"""Succinct tree topology over balanced parentheses.

The i-th open parenthesis corresponds to pre-order node i, and node u's
subtree is the ids u .. u + size(u) - 1: the marked-node queries search that
range, and the isomorphic-descendant jump is an id offset. Three tables are
kept, all built by array operations: each node's depth and subtree size,
and a level table of the nodes in (depth, id) order. Each is an ``array`` at
the narrowest width that holds its largest value (the deepest depth, or n):
below 256 levels, 5 bytes per node below 65,536 nodes and 9 from there on.
A node's ancestor at depth t is the last node of depth t at or before it,
one bisect in that depth's slice; ancestors' ids rise with depth and their
subtrees shrink, so the LCA and the lowest ancestor covering a mark are one
binary search over depth. Node u opens at 0-based position ``2u - 2 - depth(u)``.

Every public operation checks its node ids. The climb
(:meth:`~rlxt.rindex.RIndex.phi`) and the toehold's child step
(``RIndex._backward_search``) call none of them: they read the tables
themselves and check only the ids they take from the index file. No
operation has a library caller; they stay, with their tests, because the
traced benchmark (``bench/spans.py``) patches them by name, and ``cbr`` is
the reference the toehold's child step is tested against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

from .bits import pack_bits, typecode, unpack_bits
from .errors import DomainError


def _view(table):
    """A numpy view of an ``array`` table, at its own width."""
    return np.frombuffer(table, dtype=table.typecode)


class BpsTopology:
    __slots__ = ("n", "node_depth", "subtree_size", "level_nodes", "level_start")

    def __init__(self, parens):
        bits = np.asarray(parens, dtype=np.uint8)
        if len(bits) % 2 != 0:
            raise ValueError("parenthesis sequence must have even length")
        self.n = n = len(bits) // 2
        if np.count_nonzero(bits) != n:
            raise ValueError("parenthesis sequence is not balanced")
        # node_depth[u], subtree_size[u] (slot 0 unused); depth t's nodes in
        # level_nodes[level_start[t] : level_start[t+1]]. The climb reads
        # these arrays one item at a time, at a quarter of the cost of
        # int(numpy_array[i]). The arithmetic runs at a signed width that
        # holds every position; each table is written at the width of its
        # largest value (the deepest depth, or n) once its last arithmetic is
        # done. Every n-sized temporary is freed once used.
        wide = "i" if 2 * n < 1 << 31 else "q"  # no position exceeds 2n
        opens = np.flatnonzero(bits).astype(wide)
        closes = np.flatnonzero(bits == 0).astype(wide)
        # the k-th close follows the k-th open, and only the last close
        # brings the excess back to 0
        if not np.all(opens < closes):
            raise ValueError("parenthesis sequence is not balanced")
        if n == 0 or not np.all(opens[1:] < closes[:-1]):
            raise ValueError("parentheses do not form one tree")
        even = np.arange(0, 2 * n, 2, dtype=wide)  # 2u - 2 for node u
        np.subtract(even, opens, out=opens)  # node u opens at 2u - 2 - depth(u)
        self.node_depth = array(typecode(int(opens.max()).bit_length()), [0]) * (n + 1)
        depth = _view(self.node_depth)[1:]
        depth[:] = opens
        del opens
        # close j (from 0) at position q (from 0) ends a node of depth
        # q - 2j - 1; each depth's opens and closes alternate in position
        # order, so the k-th open at a depth matches the k-th close there.
        # numpy sorts 8- and 16-bit keys by radix, in linear time.
        key = (closes - even - 1).astype(depth.dtype)
        del even
        perm = np.argsort(key, kind="stable")
        del key
        closes = closes[perm]
        del perm
        by_depth = np.argsort(depth, kind="stable").astype(wide)
        # close - open + 1, where node by_depth + 1 opens at
        # 2 by_depth - depth; in place, as a temporary here would set the
        # load peak
        closes -= by_depth
        closes -= by_depth
        closes += depth[by_depth]
        closes += 1
        closes >>= 1
        narrow = typecode(n.bit_length())  # each table's largest value is n
        self.subtree_size = array(narrow, [0]) * (n + 1)
        _view(self.subtree_size)[1:][by_depth] = closes
        del closes
        by_depth += 1
        self.level_nodes = array(narrow, [0]) * n
        _view(self.level_nodes)[:] = by_depth
        del by_depth
        counts = np.bincount(depth)
        self.level_start = array(narrow, [0]) * (len(counts) + 1)
        _view(self.level_start)[1:] = np.cumsum(counts)

    @classmethod
    def from_trie(cls, trie):
        """Parentheses from the pre-order depths alone: before node u opens,
        ``depth[u-1] - depth[u] + 1`` parentheses close."""
        n, depth = trie.n, trie.depth
        closes = np.zeros(n + 1, dtype=np.int64)
        closes[2:] = depth[1:-1] - depth[2:] + 1
        bits = np.zeros(2 * n, dtype=np.uint8)
        bits[np.arange(n) + np.cumsum(closes[1:])] = 1
        return cls(bits)

    @property
    def parens(self):
        """The parentheses, 1 for open: node u opens at ``2u - 2 - depth(u)``."""
        bits = np.zeros(2 * self.n, dtype=np.uint8)
        bits[np.arange(0, 2 * self.n, 2) - _view(self.node_depth)[1:]] = 1
        return bits

    def _ancestor(self, u, t):
        """The ancestor of u at depth t, given t <= depth(u): the last node
        of depth t at or before u in pre-order."""
        nodes, start = self.level_nodes, self.level_start
        return nodes[bisect_right(nodes, u, start[t], start[t + 1]) - 1]

    def _deepest_ancestor(self, u, p, s):
        """The deepest proper ancestor a of u with a <= p or a + size(a) > s,
        given that the root qualifies and is not u. Each condition holds from
        the root down to some depth, so one binary search over depth finds it."""
        size = self.subtree_size
        lo, hi, found = 0, self.node_depth[u] - 1, 1
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            a = self._ancestor(u, mid)
            if a <= p or a + size[a] > s:
                lo, found = mid, a
            else:
                hi = mid - 1
        return found

    # -- operations ---------------------------------------------------------

    def depth(self, u):
        self._check(u)
        return self.node_depth[u]

    def cbr(self, u, k):
        """k-th child of u in pre-order (= label order), 1-based."""
        self._check(u)
        if k < 1:
            raise IndexError("child rank must be >= 1")
        # a node's next sibling comes its subtree size ids on
        size = self.subtree_size
        v, end = u + 1, u + size[u]
        for _ in range(k - 1):
            if v >= end:
                break
            v += size[v]
        if v >= end:
            raise IndexError(f"node {u} has only {self.child_count(u)} children, asked for {k}")
        return v

    def child_count(self, u):
        self._check(u)
        size = self.subtree_size
        v, end, cnt = u + 1, u + size[u], 0
        while v < end:
            v += size[v]
            cnt += 1
        return cnt

    def sr(self, u):
        """1-based rank of u among its parent's children."""
        self._check(u)
        if u == 1:
            raise DomainError("root has no sibling rank")
        size = self.subtree_size
        p = self._ancestor(u, self.node_depth[u] - 1)
        v, rank = p + 1, 1
        while v != u:
            v += size[v]
            rank += 1
        return rank

    def laq(self, u, ell):
        """Ancestor of u exactly ell levels up; laq(u, 0) = u."""
        self._check(u)
        d = self.node_depth[u]
        if ell < 0 or ell > d:
            raise IndexError(f"level {ell} exceeds depth of node {u}")
        return self._ancestor(u, d - ell)

    def lca(self, u, v):
        self._check(u)
        self._check(v)
        if u > v:
            u, v = v, u
        if v < u + self.subtree_size[u]:  # v lies in u's subtree
            return u
        # the common ancestors are u's whose subtree reaches past v
        return self._deepest_ancestor(u, 0, v)

    def isd(self, u, v, u2):
        """Image of descendant v under the subtree translation u -> u2.

        Caller guarantees the complete subtrees of u and u2 are isomorphic,
        so v keeps its pre-order offset from u; only that v descends from u
        and that the offset lies in u2's subtree are checked here.
        """
        self._check(u)
        self._check(v)
        self._check(u2)
        size = self.subtree_size
        offset = v - u
        if not 0 < offset < size[u]:
            raise DomainError(f"node {v} is not a proper descendant of {u}")
        if offset >= size[u2]:
            raise DomainError(f"node {u2}'s subtree is smaller than node {u}'s")
        return u2 + offset

    def next_marked_in_subtree(self, marks, u):
        """Pre-order-smallest marked node strictly below u, or None. ``marks``
        is a :class:`~rlxt.bits.SparseBitVec` of node ids; u's subtree is the
        ids u .. u + size - 1."""
        self._check(u)
        j = marks.succ1(u + 1)
        if j is not None and j < u + self.subtree_size[u]:
            return j
        return None

    def lowest_covering_ancestor(self, marks, u):
        """Lowest proper ancestor of u whose subtree holds a mark outside u's subtree.

        With no mark inside u's subtree (the intended use) this is exactly the
        lowest ancestor whose subtree intersects the mark set, a
        :class:`~rlxt.bits.SparseBitVec` of node ids.
        """
        self._check(u)
        if u == 1:
            raise DomainError("root has no proper ancestor")
        p = marks.pred1(u - 1)  # the last mark before u's subtree
        s = marks.succ1(u + self.subtree_size[u])  # the first after it
        if p is None and s is None:
            return None
        # an ancestor a covers p iff a <= p, and s iff a + size(a) > s; no
        # ancestor covers 0 or n + 1
        return self._deepest_ancestor(u, p or 0, self.n + 1 if s is None else s)

    def to_bytes(self):
        return pack_bits(self.parens)

    @classmethod
    def from_bytes(cls, data, offset=0):
        bits, offset = unpack_bits(data, offset)
        return cls(bits), offset

    def _check(self, u):
        if not 1 <= u <= self.n:
            raise IndexError(f"node {u} out of range 1..{self.n}")
