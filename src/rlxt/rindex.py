"""Locate machinery: colored nodes, successor-function samples, isomorphic
child tables, toehold search, and the four-case climb.

``phi`` maps a node to its co-lex successor using only the sampled anchors
and topology jumps; the co-lex-to-pre-order permutation is never consulted.
Locate = toehold (backward search that also tracks the pre-order id of the
range's first node) + occ-1 applications of ``phi``. Count is the backward
search alone.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from .bits import SparseBitVec, concat_ranges, int_array, sorted_set
from .errors import DomainError, NoSuccessorError
from .rlxbwt import (
    OutSets,
    backward_extend,
    build_rl_xbwt,
    cr,
    run_head_preorder,
    xbwt_successor,
)
from .topology import BpsTopology, MarkSet
from .trie import colex_sort


class ColorMarks:
    """Red = outgoing labels differ from the co-lex successor's; blue =
    incoming label differs. The union feeds the topology's marked queries
    and answers "is u colored?" in one lookup."""

    __slots__ = ("red", "blue", "colored")

    def __init__(self, topo, red_ids, blue_ids):
        self.red = SparseBitVec(topo.n, red_ids)
        self.blue = SparseBitVec(topo.n, blue_ids)
        self.colored = MarkSet(topo, sorted_set(np.concatenate((self.red.positions,
                                                                 self.blue.positions))))

    def is_red(self, u):
        return self.red.contains(u)

    def is_blue(self, u):
        return self.blue.contains(u)

    def is_colored(self, u):
        return self.colored.contains_node(u)


TYPE1 = 1
TYPE2 = 2


class PhiSamples:
    """Sampled values of the co-lex successor function.

    Type 1 lives on colored nodes; type 2 on the child reached by a label
    that breaks its run. A node may carry both flags; the value is the same.
    ``keys``, ``values`` and ``flags`` are parallel :func:`~rlxt.bits.int_array`
    tables (``array('i')`` below 2**31 nodes) sorted by key.
    """

    __slots__ = ("keys", "values", "flags")

    def __init__(self, keys, values, flags):
        self.keys = int_array(keys)
        self.values = int_array(values)
        self.flags = int_array(flags)

    def _slot(self, u):
        keys = self.keys
        k = bisect_left(keys, u)
        return k if k < len(keys) and keys[k] == u else -1

    def value(self, u):
        k = self._slot(u)
        if k < 0:
            raise DomainError(f"node {u} carries no phi sample")
        return self.values[k]

    def has_type2(self, u):
        k = self._slot(u)
        return k >= 0 and bool(self.flags[k] & TYPE2)

    def arrows(self):
        return dict(zip(self.keys, self.values))

    def typed(self, which):
        return {k for k, f in zip(self.keys, self.flags) if f & which}


class IscTables:
    """Bit tables driving the isomorphic-child jump at red nodes.

    For each red node (in pre-order) two segments are appended to S: first a
    bit per outgoing label of the node (present in the successor's out-set?),
    then a bit per outgoing label of the successor (present in the node's
    out-set?). S is kept as 0/1 ``bytes``, one byte per bit: a query only
    counts and finds ones inside two segments of at most sigma bits, so it
    needs no rank directory. B1 marks red pre-order ids: it is the red set of
    :class:`ColorMarks` itself, not a copy. ``starts`` holds the segment
    boundaries inside S (two per red node plus a final sentinel).
    """

    __slots__ = ("s", "b1", "starts")

    def __init__(self, s_bits, b1, starts):
        self.s = np.asarray(s_bits, dtype=np.uint8).tobytes()
        self.b1 = b1
        # segment boundaries; offsets may repeat because a run-break node can
        # have an empty out-set (its first segment is empty)
        self.starts = int_array(starts)

    def segments(self, u):
        """(seg1, seg2) position ranges [start, end) in S for red node u, 1-based."""
        if not self.b1.contains(u):
            raise DomainError(f"node {u} is not a run-break node")
        q = self.b1.rank1(u)
        starts = self.starts
        s1, s2, e2 = starts[2 * q - 2], starts[2 * q - 1], starts[2 * q]
        return (s1, s2), (s2, e2)

    def isc(self, u, k):
        (s1, e1), (s2, e2) = self.segments(u)
        if not 1 <= k <= e1 - s1:
            raise IndexError(f"child rank {k} out of range for node {u}")
        s = self.s  # 1-based position p of S is s[p - 1]
        if not s[s1 + k - 2]:
            raise DomainError(f"label of child {k} missing from the successor's out-set")
        # the child's label is the j-th common one; find the j-th one of seg2
        pos = s2 - 2
        try:
            for _ in range(s.count(1, s1 - 1, s1 + k - 1)):
                pos = s.index(1, pos + 1, e2 - 1)
        except ValueError:  # seg2 holds fewer common labels than seg1
            raise DomainError(f"isc segments of node {u} disagree on the common labels") from None
        return pos - s2 + 2


class RIndex:
    """Assembled locate structure.

    Every locate answer is produced by the toehold + climb machinery alone;
    neither direction of the co-lex permutation is kept. The one fact of it
    a query reads is which node is co-lex-last (``phi`` has no successor to
    give there): ``pre_to_colex`` holds just that entry of the pre-order to
    co-lex map, ``{last: n}``. It keeps the map's name because measuring
    tools look the component up under that name.
    """

    __slots__ = (
        "n", "alphabet", "pre_to_colex", "topo", "rlx", "spi", "colors",
        "samples", "isc_tables", "case_counters",
    )

    def __init__(self, n, alphabet, last, topo, rlx, spi, colors, samples, isc_tables):
        self.n = n
        self.alphabet = alphabet
        self.pre_to_colex = {last: n}
        self.topo = topo
        self.rlx = rlx
        self.spi = spi
        self.colors = colors
        self.samples = samples
        self.isc_tables = isc_tables
        self.case_counters = {"1": 0, "2.1": 0, "2.2.1": 0, "2.2.2": 0}

    @property
    def last(self):
        """Pre-order id of the co-lex-last node."""
        return next(iter(self.pre_to_colex))

    def reset_counters(self):
        for k in self.case_counters:
            self.case_counters[k] = 0

    # -- queries ------------------------------------------------------------

    def toehold_search(self, pattern):
        """Co-lex range of nodes reached by ``pattern`` plus the first node.

        Returns ((lo, hi), first_preorder) or None when no node matches.
        The empty pattern matches every node, with the root first.
        """
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return None
        rng = (1, self.n)
        node = 1
        for c in codes:
            new = backward_extend(self.rlx, self.spi, rng, c)
            if new is None:
                return None
            i = xbwt_successor(self.spi, self.rlx, c, rng[0])
            base = node if i == rng[0] else run_head_preorder(self.rlx, c, i)
            node = self.topo.cbr(base, cr(self.spi, self.rlx, i, c))
            rng = new
        return rng, node

    def count(self, pattern):
        """Number of nodes reached by ``pattern``: backward search over the
        range alone, without the toehold's first node."""
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return 0
        rng = (1, self.n)
        for c in codes:
            rng = backward_extend(self.rlx, self.spi, rng, c)
            if rng is None:
                return 0
        return rng[1] - rng[0] + 1

    def locate(self, pattern):
        got = self.toehold_search(pattern)
        if got is None:
            return []
        (lo, hi), node = got
        out = [node]
        for _ in range(hi - lo):
            node = self.phi(node)
            out.append(node)
        return out

    def phi(self, u):
        """Pre-order id of u's co-lex successor (climb, Cases 1..2.2.2)."""
        if self.pre_to_colex.get(u) == self.n:
            raise NoSuccessorError(f"node {u} is last in co-lex order")
        if self.colors.is_colored(u):
            self.case_counters["1"] += 1
            return self.samples.value(u)
        topo = self.topo
        j_node = topo.next_marked_in_subtree(self.colors.colored, u)
        if j_node is not None:
            self.case_counters["1"] += 1
            return topo.laq(self.samples.value(j_node),
                            topo.depth(j_node) - topo.depth(u))
        a = topo.lowest_covering_ancestor(self.colors.colored, u)
        t = topo.depth(u) - topo.depth(a)
        k_node = topo.laq(u, t - 1)
        if self.colors.is_red(a):
            if self.samples.has_type2(k_node):
                self.case_counters["2.2.1"] += 1
                u_k1 = self.samples.value(k_node)
            else:
                self.case_counters["2.2.2"] += 1
                a1 = self.samples.value(a)
                u_k1 = topo.cbr(a1, self.isc_tables.isc(a, topo.sr(k_node)))
        else:
            self.case_counters["2.1"] += 1
            a1 = self._phi_case1(a)
            u_k1 = topo.cbr(a1, topo.sr(k_node))
        if k_node == u:
            return u_k1
        return topo.isd(k_node, u, u_k1)

    def _phi_case1(self, u):
        """Case-1 step for a node whose subtree is known to hold a colored node."""
        if self.colors.is_colored(u):
            return self.samples.value(u)
        topo = self.topo
        j_node = topo.next_marked_in_subtree(self.colors.colored, u)
        return topo.laq(self.samples.value(j_node), topo.depth(j_node) - topo.depth(u))

    def isc(self, u, k):
        return self.isc_tables.isc(u, k)


def build_index(trie, colex=None):
    """Build the full locate structure; of the colex permutation only the
    co-lex-last node is kept. Every table comes from one pass of array
    operations over the co-lex out-sets (:class:`OutSets`)."""
    if colex is None:
        colex = colex_sort(trie)
    n = trie.n
    out = OutSets(trie, colex)
    rlx, spi = build_rl_xbwt(trie, colex, out)
    topo = BpsTopology.from_trie(trie)

    c2p, p2c = colex.colex_to_pre, colex.pre_to_colex
    red_ids = c2p[np.flatnonzero(out.change) + 1]
    lam = trie.label[c2p[1:]]
    blue_ids = c2p[np.flatnonzero(lam[:-1] != lam[1:]) + 1]
    colors = ColorMarks(topo, red_ids, blue_ids)

    # type 1 on colored nodes; type 2 on the child along a label that leaves
    # the out-set between co-lex neighbours, unless that child is last
    type1 = np.union1d(red_ids, blue_ids)
    gone = out.kids[~out.in_next & (out.row < n - 1)]
    type2 = gone[p2c[gone] < n]
    keys = np.union1d(type1, type2)
    flags = (np.where(np.isin(keys, type1), TYPE1, 0)
             | np.where(np.isin(keys, type2), TYPE2, 0))
    phi_samples = PhiSamples(keys, c2p[p2c[keys] + 1], flags)

    # per red node in pre-order: which of its labels the successor holds,
    # then which of the successor's labels it holds
    red_sorted = np.sort(red_ids)
    rows = p2c[red_sorted] - 1
    seg_rows = np.stack([rows, rows + 1], axis=1).ravel()
    seg_first = out.offsets[seg_rows]
    seg_len = out.offsets[seg_rows + 1] - seg_first
    at = concat_ranges(seg_first, seg_len)
    second = np.repeat(np.arange(len(seg_len)) % 2 == 1, seg_len)
    s_bits = np.where(second, out.in_prev[at], out.in_next[at]).astype(np.uint8)
    starts = np.concatenate(([0], np.cumsum(seg_len))) + 1
    isc_tables = IscTables(s_bits, colors.red, starts)

    return RIndex(n, trie.alphabet, int(c2p[n]), topo, rlx, spi,
                  colors, phi_samples, isc_tables)
