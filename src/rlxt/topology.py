"""Succinct tree topology over balanced parentheses.

The i-th open parenthesis corresponds to pre-order node i. Subtrees occupy
contiguous parenthesis ranges, which is what the isomorphic-descendant jump
and the marked-node queries exploit. Excess searches (level ancestor, LCA)
run over the blocked minima of the prefix-excess array and a sparse table
over them.
"""

from __future__ import annotations

from array import array

import numpy as np

from .bits import BitVec, SparseBitVec, sorted_set, unpack_bits
from .errors import DomainError

_BLOCK = 512


class BpsTopology:
    __slots__ = (
        "n", "parens", "open_pos", "close_pos", "node_depth", "parent_node",
        "_excess", "_open_cum", "_blk_min", "_st",
    )

    def __init__(self, parens):
        bits = np.asarray(parens, dtype=np.uint8)
        if len(bits) % 2 != 0:
            raise ValueError("parenthesis sequence must have even length")
        self.n = n = len(bits) // 2
        self.parens = bits
        self._excess = np.zeros(len(bits) + 1, dtype=np.int64)
        np.cumsum(bits.astype(np.int8) * 2 - 1, out=self._excess[1:])  # +1 open, -1 close
        if self._excess[-1] != 0 or self._excess.min() < 0:
            raise ValueError("parenthesis sequence is not balanced")
        # the per-node tables are array('q'): the climb reads them one item
        # at a time, and an item read costs a quarter of int(numpy_array[i])
        self.open_pos = open_pos = array("q", [0]) * n
        self.close_pos = close_pos = array("q", [0]) * (n + 1)
        self.parent_node = parent_node = array("q", [0]) * (n + 1)
        self.node_depth = node_depth = array("q", [0]) * (n + 1)
        self._open_cum = open_cum = array("q", [0]) * (len(bits) + 1)
        # path[1..top] holds the open nodes; path[0] = 0 is the root's parent
        path = [0] * (int(self._excess.max()) + 1)
        top = 0
        node = 0
        for pos, bit in enumerate(bits.tobytes(), 1):
            if bit:
                open_pos[node] = pos
                node += 1
                parent_node[node] = path[top]
                node_depth[node] = top
                top += 1
                path[top] = node
            else:
                close_pos[path[top]] = pos
                top -= 1
            open_cum[pos] = node
        # blocked minima of the excess array, plus a sparse table over them
        nb = (len(self._excess) + _BLOCK - 1) // _BLOCK
        starts = np.arange(0, len(self._excess), _BLOCK)
        self._blk_min = np.minimum.reduceat(self._excess, starts)
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

    # -- primitives ---------------------------------------------------------

    def _node_at_open(self, pos):
        return self._open_cum[pos]

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
        return self.node_depth[u]

    def parent(self, u):
        self._check(u)
        return self.parent_node[u]

    def subtree_range(self, u):
        self._check(u)
        return self.open_pos[u - 1], self.close_pos[u]

    def cbr(self, u, k):
        """k-th child of u in pre-order (= label order), 1-based."""
        self._check(u)
        if k < 1:
            raise IndexError("child rank must be >= 1")
        pos = self.open_pos[u - 1] + 1
        close = self.close_pos[u]
        seen = 0
        while pos < close:
            child = self._node_at_open(pos)
            seen += 1
            if seen == k:
                return child
            pos = self.close_pos[child] + 1
        raise IndexError(f"node {u} has only {seen} children, asked for {k}")

    def child_count(self, u):
        self._check(u)
        pos = self.open_pos[u - 1] + 1
        close = self.close_pos[u]
        cnt = 0
        while pos < close:
            cnt += 1
            pos = self.close_pos[self._node_at_open(pos)] + 1
        return cnt

    def sr(self, u):
        """1-based rank of u among its parent's children."""
        self._check(u)
        p = self.parent_node[u]
        if p == 0:
            raise DomainError("root has no sibling rank")
        pos = self.open_pos[p - 1] + 1
        rank = 0
        while True:
            child = self._node_at_open(pos)
            rank += 1
            if child == u:
                return rank
            pos = self.close_pos[child] + 1

    def laq(self, u, ell):
        """Ancestor of u exactly ell levels up; laq(u, 0) = u."""
        self._check(u)
        if ell < 0 or ell > self.node_depth[u]:
            raise IndexError(f"level {ell} exceeds depth of node {u}")
        if ell == 0:
            return u
        if ell <= 8:
            v = u
            for _ in range(ell):
                v = self.parent_node[v]
            return v
        target = self.node_depth[u] - ell  # excess value just before the ancestor opens
        q = self._bwd_search_eq(self.open_pos[u - 1] - 1, target)
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
        return self.laq(u, self.node_depth[u] - d)

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
        """Pre-order-smallest marked node strictly below/after u in u's subtree."""
        o, c = self.subtree_range(u)
        j = marks.positions_succ(o + 1)
        if j is not None and j <= c:
            return self._node_at_open(j)
        return None

    def lowest_covering_ancestor(self, marks, u):
        """Lowest proper ancestor of u whose subtree holds a mark outside u's subtree.

        With no mark inside u's subtree (the intended use) this is exactly the
        lowest ancestor whose subtree intersects the mark set.
        """
        self._check(u)
        if u == 1:
            raise DomainError("root has no proper ancestor")
        o, c = self.subtree_range(u)
        best = None
        p = marks.positions_pred(o - 1)
        if p is not None:
            best = self.lca(u, self._node_at_open(p))
        s = marks.positions_succ(c + 1)
        if s is not None:
            cand = self.lca(u, self._node_at_open(s))
            if best is None or self.node_depth[cand] > self.node_depth[best]:
                best = cand
        return best

    def to_bytes(self):
        return BitVec(self.parens).to_bytes()

    @classmethod
    def from_bytes(cls, data, offset=0):
        bits, offset = unpack_bits(data, offset)
        return cls(bits), offset

    def _check(self, u):
        if not 1 <= u <= self.n:
            raise IndexError(f"node {u} out of range 1..{self.n}")


class MarkSet:
    """A node subset exposed as marked open-parenthesis positions."""

    __slots__ = ("_pos", "_open")

    def __init__(self, topo, node_ids):
        ids = sorted_set(node_ids)
        if len(ids) and (ids[0] < 1 or ids[-1] > topo.n):
            raise IndexError("marked node out of range")
        self._open = topo.open_pos
        self._pos = SparseBitVec(2 * topo.n, np.asarray(topo.open_pos)[ids - 1])

    def contains_node(self, u):
        """Whether node u is marked; False for any u outside 1..n."""
        opens = self._open
        return 0 < u <= len(opens) and self._pos.contains(opens[u - 1])

    def positions_succ(self, pos):
        if pos > self._pos.universe:
            return None
        return self._pos.succ1(max(pos, 1))

    def positions_pred(self, pos):
        if pos < 1:
            return None
        return self._pos.pred1(min(pos, self._pos.universe))
