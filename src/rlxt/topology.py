"""Succinct tree topology over balanced parentheses.

The i-th open parenthesis corresponds to pre-order node i. Subtrees occupy
contiguous parenthesis ranges, which is what the isomorphic-descendant jump
exploits, and contiguous pre-order id ranges, which the marked-node queries
search. Excess searches (level ancestor, LCA) run over the blocked minima of
the prefix-excess array and a sparse table over them. Beside the excess only
open, close and parent tables are kept, each at the narrowest width that
holds it (16 bytes per node below depth 2**15 and 2**31 parens), all built
by array operations.
"""

from __future__ import annotations

from array import array

import numpy as np

from .bits import pack_bits, unpack_bits
from .errors import DomainError

_BLOCK = 512


def _view(table):
    """A numpy view of an ``array`` table, at its own width."""
    return np.frombuffer(table, dtype=table.typecode)


def _excess(bits):
    """The prefix excess of the parentheses ``bits`` (opens minus closes
    among the first p, for p = 0..2n) in the narrowest of ``array('h')``,
    ``('i')`` and ``('q')`` that holds it. Each width is tried with a
    running sum in that width over the int8 steps: the steps are +-1 from 0,
    so a sum that overflows wraps to a negative value before any other, and
    one that stays non-negative is exact."""
    steps = bits.astype(np.int8)
    steps *= 2
    steps -= 1  # +1 open, -1 close
    for code in "hiq":
        ex = array(code, [0]) * (len(bits) + 1)
        view = _view(ex)
        np.cumsum(steps, dtype=view.dtype, out=view[1:])
        low = view.min()
        if low >= 0:
            break
    if low < 0 or view[-1] != 0:
        raise ValueError("parenthesis sequence is not balanced")
    return ex


def _depth_order(minuend, subtrahend, key_type):
    """Stable argsort of the depths ``minuend - subtrahend``. The keys are
    cast to ``key_type``, the smallest unsigned type that holds every depth:
    numpy sorts 8- and 16-bit keys by radix, in linear time."""
    key = np.empty(len(minuend), dtype=key_type)
    np.subtract(minuend, subtrahend, out=key, casting="unsafe")
    return np.argsort(key, kind="stable")


class BpsTopology:
    __slots__ = ("n", "open_pos", "close_pos", "parent_node", "_ex", "_excess",
                 "_blk_min", "_st")

    def __init__(self, parens):
        bits = np.asarray(parens, dtype=np.uint8)
        if len(bits) % 2 != 0:
            raise ValueError("parenthesis sequence must have even length")
        self.n = n = len(bits) // 2
        # excess[p]: opens minus closes among the first p parens. The node
        # opening at p is (p + excess[p]) >> 1 and node u has depth
        # 2u - open_pos[u-1] - 1, so neither needs a table of its own. The
        # tables are arrays, as the climb reads them one item at a time, at a
        # quarter of the cost of int(numpy_array[i]), each at the narrowest
        # width that holds its values: 2 bytes per paren for the excess below
        # depth 2**15, 4 per node for each of open, close and parent below
        # 2**31 parens. The excess also has a numpy view, for the block scans.
        # Every n-sized temporary is freed once used, and the int64 sort
        # results are narrowed before the next one is made.
        self._ex = _excess(bits)
        self._excess = ex = _view(self._ex)
        wide = "i" if 2 * n < 1 << 31 else "q"  # no position exceeds 2n
        self.open_pos = array(wide, [0]) * n
        opens = _view(self.open_pos)
        opens[:] = np.flatnonzero(bits.view(bool))
        opens += 1
        odd = np.arange(1, 2 * n, 2, dtype=wide)  # 2u - 1 for node u
        key_type = np.min_scalar_type(int(ex.max()))
        # each depth's opens and closes alternate in position order, so the
        # k-th open at a depth matches the k-th close there
        closes = np.flatnonzero(bits == 0).astype(wide)
        closes = closes[_depth_order(closes, odd, key_type)]  # j-th close: q - 2j
        by_depth = _depth_order(odd, opens, key_type).astype(wide)  # node u: 2u - 1 - open
        del odd
        closes += 1
        self.close_pos = array(wide, [0]) * (n + 1)
        _view(self.close_pos)[1:][by_depth] = closes
        del closes
        # in (depth, id) order, each parent's children form one run that
        # starts at its first child u, whose parent is u - 1 (the root, a run
        # of its own, gets 0); a running maximum carries each run's start on
        first = np.ones(n, dtype=bool)
        first[1:] = opens[1:] == opens[:-1] + 1
        run = np.arange(n, dtype=wide)
        run *= first.take(by_depth)
        del first
        np.maximum.accumulate(run, out=run)
        run = by_depth.take(run)
        self.parent_node = array(wide, [0]) * (n + 1)
        _view(self.parent_node)[1:][by_depth] = run
        del run, by_depth
        # blocked minima of the excess array, plus a sparse table over them
        nb = (len(ex) + _BLOCK - 1) // _BLOCK
        self._blk_min = np.minimum.reduceat(ex, np.arange(0, len(ex), _BLOCK))
        levels = [self._blk_min]
        k = 1
        while (1 << k) <= nb:
            prev = levels[-1]
            levels.append(np.minimum(prev[: nb - (1 << k) + 1], prev[(1 << (k - 1)) : nb - (1 << (k - 1)) + 1]))
            k += 1
        self._st = levels

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
        """The parentheses, 1 for open, as the steps of the excess."""
        return (np.diff(self._excess) > 0).view(np.uint8)

    # -- primitives ---------------------------------------------------------

    def _node_at_open(self, pos):
        return (pos + self._ex[pos]) >> 1

    def _range_min(self, lo, hi):
        """Min of excess[lo..hi] inclusive (0-based prefix indices)."""
        if lo > hi:
            raise ValueError("empty excess range")
        lb, rb = lo // _BLOCK, hi // _BLOCK
        if lb == rb:
            return int(self._excess[lo : hi + 1].min())
        best = min(int(self._excess[lo : (lb + 1) * _BLOCK].min()),
                   int(self._excess[rb * _BLOCK : hi + 1].min()))
        if lb + 1 <= rb - 1:
            span = rb - 1 - (lb + 1) + 1
            k = span.bit_length() - 1
            st = self._st[k]
            best = min(best, int(st[lb + 1]), int(st[rb - (1 << k)]))
        return best

    def _bwd_search_eq(self, pos, target):
        """Largest q <= pos with excess[q] == target, or -1, given
        excess[pos] >= target.

        The excess moves by +-1, so going back from pos it meets target at
        the first position holding at most target. Outside pos's own block,
        that position lies in the nearest earlier block whose minimum is at
        most target, found by descending the sparse table over block minima:
        O(log n) steps.
        """
        if pos < 0:
            return -1
        blk = pos // _BLOCK
        seg = self._excess[blk * _BLOCK : pos + 1]
        hits = np.flatnonzero(seg == target)
        if len(hits):
            return blk * _BLOCK + int(hits[-1])
        b = blk  # blocks b..blk-1 all have minima above target
        for k in range(len(self._st) - 1, -1, -1):
            if b >= 1 << k and self._st[k][b - (1 << k)] > target:
                b -= 1 << k
        if b == 0:
            return -1
        b -= 1
        seg = self._excess[b * _BLOCK : (b + 1) * _BLOCK]
        return b * _BLOCK + int(np.flatnonzero(seg <= target)[-1])

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
        p = self.parent_node[u]
        if p == 0:
            raise DomainError("root has no sibling rank")
        open_pos, close_pos = self.open_pos, self.close_pos
        v, rank = p + 1, 1
        while v != u:
            v += (close_pos[v] - open_pos[v - 1] + 1) >> 1
            rank += 1
        return rank

    def laq(self, u, ell):
        """Ancestor of u exactly ell levels up; laq(u, 0) = u."""
        self._check(u)
        opened = self.open_pos[u - 1]
        d = 2 * u - opened - 1
        if ell < 0 or ell > d:
            raise IndexError(f"level {ell} exceeds depth of node {u}")
        if ell == 0:
            return u
        if ell <= 8:
            v = u
            for _ in range(ell):
                v = self.parent_node[v]
            return v
        target = d - ell  # excess value just before the ancestor opens
        q = self._bwd_search_eq(opened - 1, target)
        return self._node_at_open(q + 1)

    def lca(self, u, v):
        self._check(u)
        self._check(v)
        if u == v:
            return u
        pu, pv = self.open_pos[u - 1], self.open_pos[v - 1]
        if pu > pv:
            u, v = v, u
            pu, pv = pv, pu
        if pv <= self.close_pos[u]:
            return u
        d = self._range_min(pu + 1, pv) - 1  # depth of the lca
        return self.laq(u, 2 * u - pu - 1 - d)  # u's depth less the lca's

    def isd(self, u, v, u2):
        """Image of descendant v under the subtree translation u -> u2.

        Caller guarantees the complete subtrees of u and u2 are isomorphic;
        only the descendant relation is checked here.
        """
        self._check(u)
        self._check(v)
        self._check(u2)
        pu, cu = self.subtree_range(u)
        pv = self.open_pos[v - 1]
        if not pu < pv <= cu:
            raise DomainError(f"node {v} is not a proper descendant of {u}")
        pos = pv - pu + self.open_pos[u2 - 1]
        return self._node_at_open(pos)

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
