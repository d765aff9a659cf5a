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

from .bits import BitVec, SparseBitVec, int64_array
from .errors import DomainError, NoSuccessorError
from .rlxbwt import (
    backward_extend,
    build_rl_xbwt,
    cr,
    reconstruct_out_sets,
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
        self.colored = MarkSet(topo, np.union1d(self.red.positions, self.blue.positions))

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
    ``keys``, ``values`` and ``flags`` are parallel ``array('q')`` tables
    sorted by key.
    """

    __slots__ = ("keys", "values", "flags")

    def __init__(self, keys, values, flags):
        self.keys = int64_array(keys)
        self.values = int64_array(values)
        self.flags = int64_array(flags)

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
    out-set?). B1 marks red pre-order ids; ``starts`` holds the segment
    boundaries inside S (two per red node plus a final sentinel).
    """

    __slots__ = ("s", "b1", "starts")

    def __init__(self, s_bits, b1, starts):
        self.s = BitVec(s_bits)
        self.b1 = b1
        # segment boundaries; offsets may repeat because a run-break node can
        # have an empty out-set (its first segment is empty)
        self.starts = int64_array(starts)

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
        if not self.s.get(s1 + k - 1):
            raise DomainError(f"label of child {k} missing from the successor's out-set")
        j = self.s.rank1(s1 + k - 1) - self.s.rank1(s1 - 1)
        pos = self.s.select1(self.s.rank1(s2 - 1) + j)
        return pos - s2 + 1


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
    co-lex-last node is kept."""
    if colex is None:
        colex = colex_sort(trie)
    n = trie.n
    rlx, spi = build_rl_xbwt(trie, colex)
    topo = BpsTopology.from_trie(trie)

    c2p = colex.colex_to_pre
    out_sets = reconstruct_out_sets(rlx)
    red_colex = [i for i in range(1, n) if out_sets[i - 1] != out_sets[i]]
    blue_colex = [i for i in range(1, n)
                  if trie.label[c2p[i]] != trie.label[c2p[i + 1]]]
    red_ids = [int(c2p[i]) for i in red_colex]
    blue_ids = [int(c2p[i]) for i in blue_colex]
    colors = ColorMarks(topo, red_ids, blue_ids)

    samples = {}
    for i in red_colex + blue_colex:
        u = int(c2p[i])
        samples[u] = (int(c2p[i + 1]), samples.get(u, (0, 0))[1] | TYPE1)
    for i in range(1, n):
        gone = set(out_sets[i - 1]) - set(out_sets[i])
        for c in gone:
            v = trie.child_by_label(int(c2p[i]), c)
            j = int(colex.pre_to_colex[v])
            if j < n:
                prev = samples.get(v, (0, 0))[1]
                samples[v] = (int(c2p[j + 1]), prev | TYPE2)
    items = sorted(samples.items())
    phi_samples = PhiSamples([u for u, _ in items], [v for _, (v, _) in items],
                             [f for _, (_, f) in items])

    s_bits = []
    starts = []
    red_sorted = sorted(red_ids)
    for u in red_sorted:
        i = int(colex.pre_to_colex[u])
        cur, nxt = out_sets[i - 1], out_sets[i]
        starts.append(len(s_bits) + 1)
        s_bits.extend(1 if c in nxt else 0 for c in cur)
        starts.append(len(s_bits) + 1)
        s_bits.extend(1 if c in cur else 0 for c in nxt)
    starts.append(len(s_bits) + 1)
    isc_tables = IscTables(
        np.asarray(s_bits, dtype=np.uint8),
        SparseBitVec(n, red_sorted),
        starts,
    )

    return RIndex(n, trie.alphabet, int(c2p[n]), topo, rlx, spi,
                  colors, phi_samples, isc_tables)
