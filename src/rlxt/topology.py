"""Succinct tree topology over balanced parentheses.

The i-th open parenthesis corresponds to pre-order node i. Subtrees occupy
contiguous parenthesis ranges and contiguous pre-order id ranges: the
marked-node queries search an id range, and the isomorphic-descendant jump
is an id offset. Three tables are kept, each at the narrowest width that
holds it (12 bytes per node below 2**31 parens), all built by array
operations: every node's open and close position, and a level table of the
nodes in (depth, id) order. In pre-order a node's ancestor at depth t is the
last node of depth t at or before it, so a level ancestor is one bisect in
that depth's slice of the level table, and an LCA a binary search over depth.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

from .bits import pack_bits, unpack_bits
from .errors import DomainError


def _view(table):
    """A numpy view of an ``array`` table, at its own width."""
    return np.frombuffer(table, dtype=table.typecode)


class BpsTopology:
    __slots__ = ("n", "open_pos", "close_pos", "level_nodes", "level_start")

    def __init__(self, parens):
        bits = np.asarray(parens, dtype=np.uint8)
        if len(bits) % 2 != 0:
            raise ValueError("parenthesis sequence must have even length")
        self.n = n = len(bits) // 2
        if np.count_nonzero(bits) != n:
            raise ValueError("parenthesis sequence is not balanced")
        # Node u opens at open_pos[u-1] and closes at close_pos[u], both
        # 1-based, and has depth 2u - open_pos[u-1] - 1. level_nodes lists the
        # nodes by (depth, id), depth t in level_nodes[level_start[t] :
        # level_start[t+1]]. The tables are arrays, as the climb reads them
        # one item at a time, at a quarter of the cost of int(numpy_array[i]),
        # each 4 bytes per node below 2**31 parens. Every n-sized temporary is
        # freed once used, and the int64 sort results are narrowed before the
        # next one is made.
        wide = "i" if 2 * n < 1 << 31 else "q"  # no position exceeds 2n
        self.open_pos = array(wide, [0]) * n
        opens = _view(self.open_pos)
        opens[:] = np.flatnonzero(bits)
        closes = np.flatnonzero(bits == 0).astype(wide)
        # the k-th close follows the k-th open, and only the last close
        # brings the excess back to 0
        if not np.all(opens < closes):
            raise ValueError("parenthesis sequence is not balanced")
        if n == 0 or not np.all(opens[1:] < closes[:-1]):
            raise ValueError("parentheses do not form one tree")
        opens += 1
        odd = np.arange(1, 2 * n, 2, dtype=wide)  # 2u - 1 for node u
        key = odd - opens  # node depths
        top = int(key.max())
        # numpy sorts 8- and 16-bit keys by radix, in linear time
        key = key.astype(np.min_scalar_type(top))
        by_depth = np.argsort(key, kind="stable").astype(wide)
        self.level_start = array(wide, [0]) * (top + 2)
        _view(self.level_start)[1:] = np.cumsum(np.bincount(key))
        # each depth's opens and closes alternate in position order, so the
        # k-th open at a depth matches the k-th close there
        np.subtract(closes, odd, out=key, casting="unsafe")  # j-th close: q - 2j - 1
        del odd
        closes = closes[np.argsort(key, kind="stable")]
        del key
        closes += 1
        self.close_pos = array(wide, [0]) * (n + 1)
        _view(self.close_pos)[1:][by_depth] = closes
        del closes
        by_depth += 1
        self.level_nodes = array(wide, [0]) * n
        _view(self.level_nodes)[:] = by_depth

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
        """The parentheses, 1 for open, one at each node's open position."""
        bits = np.zeros(2 * self.n, dtype=np.uint8)
        bits[_view(self.open_pos) - 1] = 1
        return bits

    def _ancestor(self, u, t):
        """The ancestor of u at depth t, given t <= depth(u): the last node
        of depth t at or before u in pre-order."""
        nodes, start = self.level_nodes, self.level_start
        return nodes[bisect_right(nodes, u, start[t], start[t + 1]) - 1]

    # -- operations ---------------------------------------------------------

    def depth(self, u):
        self._check(u)
        return 2 * u - self.open_pos[u - 1] - 1

    def subtree_range(self, u):
        self._check(u)
        return self.open_pos[u - 1], self.close_pos[u]

    def cbr(self, u, k):
        """k-th child of u in pre-order (= label order), 1-based."""
        self._check(u)
        if k < 1:
            raise IndexError("child rank must be >= 1")
        # a node's next sibling comes its subtree size, (close - open + 1) / 2, ids on
        open_pos, close_pos = self.open_pos, self.close_pos
        v, end = u + 1, u + ((close_pos[u] - open_pos[u - 1] + 1) >> 1)
        for _ in range(k - 1):
            if v >= end:
                break
            v += (close_pos[v] - open_pos[v - 1] + 1) >> 1
        if v >= end:
            raise IndexError(f"node {u} has only {self.child_count(u)} children, asked for {k}")
        return v

    def child_count(self, u):
        self._check(u)
        open_pos, close_pos = self.open_pos, self.close_pos
        v, end, cnt = u + 1, u + ((close_pos[u] - open_pos[u - 1] + 1) >> 1), 0
        while v < end:
            v += (close_pos[v] - open_pos[v - 1] + 1) >> 1
            cnt += 1
        return cnt

    def sr(self, u):
        """1-based rank of u among its parent's children."""
        self._check(u)
        if u == 1:
            raise DomainError("root has no sibling rank")
        open_pos, close_pos = self.open_pos, self.close_pos
        p = self._ancestor(u, 2 * u - open_pos[u - 1] - 2)
        v, rank = p + 1, 1
        while v != u:
            v += (close_pos[v] - open_pos[v - 1] + 1) >> 1
            rank += 1
        return rank

    def laq(self, u, ell):
        """Ancestor of u exactly ell levels up; laq(u, 0) = u."""
        self._check(u)
        d = 2 * u - self.open_pos[u - 1] - 1
        if ell < 0 or ell > d:
            raise IndexError(f"level {ell} exceeds depth of node {u}")
        return self._ancestor(u, d - ell)

    def lca(self, u, v):
        self._check(u)
        self._check(v)
        if u > v:
            u, v = v, u
        open_pos = self.open_pos
        if open_pos[v - 1] < self.close_pos[u]:  # v lies in u's subtree
            return u
        # v's ancestors rise in id with depth, and those at or before u are
        # the common ancestors: find the deepest, above both u and v
        lo, hi = 0, min(2 * u - open_pos[u - 1], 2 * v - open_pos[v - 1]) - 2
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            if self._ancestor(v, mid) <= u:
                lo = mid
            else:
                hi = mid - 1
        return self._ancestor(v, lo)

    def isd(self, u, v, u2):
        """Image of descendant v under the subtree translation u -> u2.

        Caller guarantees the complete subtrees of u and u2 are isomorphic,
        so v keeps its pre-order offset from u; only that v descends from u
        and that the offset lies in u2's subtree are checked here.
        """
        self._check(u)
        self._check(v)
        self._check(u2)
        open_pos, close_pos = self.open_pos, self.close_pos
        offset = v - u
        if not 0 < offset < (close_pos[u] - open_pos[u - 1] + 1) >> 1:
            raise DomainError(f"node {v} is not a proper descendant of {u}")
        if offset >= (close_pos[u2] - open_pos[u2 - 1] + 1) >> 1:
            raise DomainError(f"node {u2}'s subtree is smaller than node {u}'s")
        return u2 + offset

    def next_marked_in_subtree(self, marks, u):
        """Pre-order-smallest marked node strictly below u, or None. ``marks``
        is a :class:`~rlxt.bits.SparseBitVec` of node ids; u's subtree is the
        ids u .. u + size - 1."""
        self._check(u)
        j = marks.succ1(u + 1)
        if j is not None and j < u + ((self.close_pos[u] - self.open_pos[u - 1] + 1) >> 1):
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
        best = None
        p = marks.pred1(u - 1)  # the last mark before u's subtree
        if p is not None:
            best = self.lca(u, p)
        s = marks.succ1(u + ((self.close_pos[u] - self.open_pos[u - 1] + 1) >> 1))
        if s is not None:
            cand = self.lca(u, s)
            # both are ancestors of u: the deeper has the larger pre-order id
            if best is None or cand > best:
                best = cand
        return best

    def to_bytes(self):
        return pack_bits(self.parens)

    @classmethod
    def from_bytes(cls, data, offset=0):
        bits, offset = unpack_bits(data, offset)
        return cls(bits), offset

    def _check(self, u):
        if not 1 <= u <= self.n:
            raise IndexError(f"node {u} out of range 1..{self.n}")
