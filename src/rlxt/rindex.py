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

from .bits import SparseBitVec, concat_ranges, int_array
from .errors import DomainError, NoSuccessorError
from .rlxbwt import OutSets, backward_extend, build_rl_xbwt, toehold_step
# not called here: kept because the traced benchmark patches these names in this module
from .rlxbwt import cr, run_head_preorder, xbwt_successor  # noqa: F401
from .topology import BpsTopology
from .trie import colex_sort


class ColorMarks:
    """Red = outgoing labels differ from the co-lex successor's; blue =
    incoming label differs. The union, ``colored``, is the one table of
    colored node ids: the topology's marked queries search it, "is u
    colored?" is one lookup in it, and the phi samples are keyed by it."""

    __slots__ = ("red", "blue", "colored")

    def __init__(self, n, red_ids, blue_ids):
        self.red = SparseBitVec(n, red_ids)
        self.blue = SparseBitVec(n, blue_ids)
        self.colored = SparseBitVec(n, np.concatenate((self.red.positions,
                                                       self.blue.positions)))

    def is_red(self, u):
        return self.red.contains(u)

    def is_blue(self, u):
        return self.blue.contains(u)

    def is_colored(self, u):
        return self.colored.contains(u)


class PhiSamples:
    """Sampled values of the co-lex successor function.

    Type 1 lives on the colored nodes: ``values[k]`` belongs to the k-th of
    ``colored.positions``, the set :class:`ColorMarks` holds, not a copy.
    Type 2 lives on the child reached by a label that breaks its run. The
    climb asks for a type-2 sample only at a node that is not colored (the
    child below the lowest covering ancestor, whose subtree holds no mark),
    so only those type-2 nodes are kept: ``type2_keys``, sorted, with
    ``type2_values``. A colored node's type-2 value, if any, is its type-1
    value. Every table is an :func:`~rlxt.bits.int_array`.
    """

    __slots__ = ("colored", "values", "type2_keys", "type2_values")

    def __init__(self, colored, values, type2_keys, type2_values):
        self.colored = colored
        self.values = int_array(values)
        self.type2_keys = int_array(type2_keys)
        self.type2_values = int_array(type2_values)

    def value(self, u):
        """The type-1 sample of u, a colored node."""
        keys = self.colored.positions
        k = bisect_left(keys, u)
        if k < len(keys) and keys[k] == u:
            return self.values[k]
        raise DomainError(f"node {u} is not colored: it carries no type-1 phi sample")

    def type2_value(self, u):
        """The type-2 sample of u, a node that is not colored, or None."""
        keys = self.type2_keys
        k = bisect_left(keys, u)
        return self.type2_values[k] if k < len(keys) and keys[k] == u else None

    def arrows(self):
        out = dict(zip(self.colored.positions, self.values))
        out.update(zip(self.type2_keys, self.type2_values))
        return out


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
    give there): ``last``. The transform is one object, ``rlx``, the
    :class:`~rlxt.rlxbwt.RlXbwt`: its S' tables and its run heads.
    """

    __slots__ = (
        "n", "alphabet", "last", "topo", "rlx", "colors",
        "samples", "isc_tables", "case_counters",
    )

    def __init__(self, n, alphabet, last, topo, rlx, colors, samples, isc_tables):
        self.n = n
        self.alphabet = alphabet
        self.last = last
        self.topo = topo
        self.rlx = rlx
        self.colors = colors
        self.samples = samples
        self.isc_tables = isc_tables
        self.case_counters = {"1": 0, "2.1": 0, "2.2.1": 0, "2.2.2": 0}

    @property
    def pre_to_colex(self):
        """The one entry of the pre-order to co-lex map that is kept,
        ``{last: n}``, under the map's name, which measuring tools read."""
        return {self.last: self.n}

    @property
    def spi(self):
        """The S' tables under their former name, which measuring tools
        read: they are ``rlx`` itself."""
        return self.rlx

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
        rlx, cbr = self.rlx, self.topo.cbr
        for c in codes:
            step = toehold_step(rlx, rng, c)
            if step is None:
                return None
            rng, head, k = step
            node = cbr(node if head is None else head, k)
        return rng, node

    def count(self, pattern):
        """Number of nodes reached by ``pattern``: backward search over the
        range alone, without the toehold's first node."""
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return 0
        rng = (1, self.n)
        rlx = self.rlx
        for c in codes:
            rng = backward_extend(rlx, rng, c)
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
        if u == self.last:
            raise NoSuccessorError(f"node {u} is last in co-lex order")
        succ = self._phi_case1(u)
        if succ is not None:
            self.case_counters["1"] += 1
            return succ
        topo = self.topo
        a = topo.lowest_covering_ancestor(self.colors.colored, u)
        t = topo.depth(u) - topo.depth(a)
        k_node = topo.laq(u, t - 1)
        if self.colors.is_red(a):
            u_k1 = self.samples.type2_value(k_node)
            if u_k1 is not None:
                self.case_counters["2.2.1"] += 1
            else:
                self.case_counters["2.2.2"] += 1
                a1 = self.samples.value(a)
                u_k1 = topo.cbr(a1, self.isc_tables.isc(a, topo.sr(k_node)))
        else:
            self.case_counters["2.1"] += 1
            u_k1 = topo.cbr(self._phi_case1(a), topo.sr(k_node))
        if k_node == u:
            return u_k1
        return topo.isd(k_node, u, u_k1)

    def _phi_case1(self, u):
        """Case-1 step: u's successor read off the first colored node of u's
        subtree, or None if that subtree holds no colored node."""
        if self.colors.is_colored(u):
            return self.samples.value(u)
        topo = self.topo
        j_node = topo.next_marked_in_subtree(self.colors.colored, u)
        if j_node is None:
            return None
        return topo.laq(self.samples.value(j_node), topo.depth(j_node) - topo.depth(u))

    def isc(self, u, k):
        return self.isc_tables.isc(u, k)


def type2_nodes(out, colex):
    """The type-2 sample nodes: each child along a label that leaves
    the out-set between co-lex neighbours (``out``, the :class:`OutSets`),
    unless that child is co-lex-last."""
    n = len(out.offsets) - 1
    gone = out.kids[~out.in_next & (out.row < n - 1)]
    return gone[colex.pre_to_colex[gone] < n]


def build_index(trie, colex=None):
    """Build the full locate structure; of the colex permutation only the
    co-lex-last node is kept. Every table comes from one pass of array
    operations over the co-lex out-sets (:class:`OutSets`)."""
    if colex is None:
        colex = colex_sort(trie)
    n = trie.n
    out = OutSets(trie, colex)
    rlx = build_rl_xbwt(trie, colex, out)
    topo = BpsTopology.from_trie(trie)

    c2p, p2c = colex.colex_to_pre, colex.pre_to_colex
    red_ids = c2p[np.flatnonzero(out.change) + 1]
    lam = trie.label[c2p[1:]]
    blue_ids = c2p[np.flatnonzero(lam[:-1] != lam[1:]) + 1]
    colors = ColorMarks(n, red_ids, blue_ids)

    # type 1 on the colored nodes; of type 2, the nodes that are not colored
    colored = np.asarray(colors.colored.positions)
    type2 = np.setdiff1d(type2_nodes(out, colex), colored)
    phi_samples = PhiSamples(colors.colored, c2p[p2c[colored] + 1], type2, c2p[p2c[type2] + 1])

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

    return RIndex(n, trie.alphabet, int(c2p[n]), topo, rlx, colors, phi_samples, isc_tables)
