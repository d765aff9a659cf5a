"""Locate machinery: colored nodes, successor-function samples, the
isomorphic-child jump, toehold search, and the four-case climb.

``phi`` maps a node to its co-lex successor using only the sampled anchors
and topology jumps; the co-lex-to-pre-order permutation is never consulted.
It is one function over the tables themselves, with no topology call: one
bisect in the colored ids settles case 1 or gives the marks on either side
of u's subtree, one binary search over depth gives the covering ancestor
and its child towards u, and sibling steps read subtree sizes. It checks
only what the file gives. Locate = toehold (backward search that also
tracks the pre-order id of the range's first node) + occ-1 applications of
``phi``. Count is the backward search alone. The isomorphic-child jump at
a red node compares the out-set masks of the two blocks it separates; it
stores only which block each red node ends.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .bits import SparseBitVec, int_array, sorted_set
from .errors import DomainError, NoSuccessorError
from .rlxbwt import OutSets, backward_extend, build_rl_xbwt, toehold_step
# not called here: kept because the traced benchmark patches these names in this module
from .rlxbwt import cr, run_head_preorder, xbwt_successor  # noqa: F401
from .topology import BpsTopology
from .trie import colex_sort


class ColorMarks:
    """Red = outgoing labels differ from the co-lex successor's; blue =
    incoming label differs. Their union, ``colored``, is the one large table
    of node ids: the topology's marked queries search it, "is u colored?" is
    one lookup in it, and the phi samples are keyed by it. Co-lex order
    groups the nodes by incoming label, so fewer than sigma nodes are blue:
    ``blue`` holds them, and ``blue_only`` the few of them that are not red.

    So u is red iff it is colored and not blue-only, and its rank among the
    red nodes in pre-order (from 0) is its rank among the colored ones less
    the blue-only nodes before it. ``red`` rebuilds the red set from the two
    tables for saving and inspection; no query reads it."""

    __slots__ = ("colored", "blue", "blue_only")

    def __init__(self, n, red_ids, blue_ids):
        red = sorted_set(red_ids)
        self.blue = SparseBitVec(n, blue_ids)
        blue = np.asarray(self.blue.positions, dtype=np.int64)
        blue_only = blue[np.searchsorted(red, blue) == np.searchsorted(red, blue, "right")]
        # both sorted: the few blue-only ids go in at their places among the red
        self.colored = SparseBitVec(n, np.insert(red, np.searchsorted(red, blue_only), blue_only))
        self.blue_only = int_array(blue_only)

    @property
    def red(self):
        """The red nodes, as a :class:`~rlxt.bits.SparseBitVec` built anew."""
        colored = self.colored.positions
        return SparseBitVec(self.colored.universe,
                            np.delete(colored, np.searchsorted(colored, self.blue_only)))

    @property
    def num_red(self):
        return self.colored.num_ones - len(self.blue_only)

    def red_rank(self, u):
        """u's rank among the red nodes in pre-order (from 0), or None if u
        is not red."""
        keys, blue_only = self.colored.positions, self.blue_only
        k = bisect_left(keys, u)
        if k == len(keys) or keys[k] != u:
            return None
        b = bisect_left(blue_only, u)
        return None if b < len(blue_only) and blue_only[b] == u else k - b

    def is_red(self, u):
        return self.red_rank(u) is not None

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
    """The isomorphic-child jump at red nodes, read off the block masks.

    A red node ends a block q of the run-length XBWT, and its co-lex
    successor begins block q + 1, so the two out-sets the jump compares are
    ``mask[q]`` and ``mask[q + 1]``: the masks of the
    :class:`~rlxt.rlxbwt.RlXbwt`, held here itself, not a copy. The only
    table of its own is ``blocks``: ``blocks[j]`` is the block that the
    j-th red node in pre-order ends. There is one red node per block
    boundary, so the blocks are a permutation of 0..|red| - 1. A red node's
    j is its red rank in ``colors``, the :class:`ColorMarks` itself: the
    tables hold no red set of their own.
    """

    __slots__ = ("colors", "mask", "blocks")

    def __init__(self, colors, mask, blocks):
        self.colors = colors
        self.mask = mask
        self.blocks = int_array(blocks)

    def isc(self, u, k):
        """Child rank, under u's co-lex successor, of the label of u's k-th
        child: the labels below it in the successor's mask, plus one."""
        j = self.colors.red_rank(u)
        if j is None:
            raise DomainError(f"node {u} is not a run-break node")
        return self.isc_at(j, k)

    def isc_at(self, j, k):
        """``isc`` at the j-th red node in pre-order (j from 0)."""
        q = self.blocks[j]
        m, succ = self.mask[q], self.mask[q + 1]
        if not 1 <= k <= m.bit_count():
            raise IndexError(f"child rank {k} out of range for the red node of block {q}")
        for _ in range(k - 1):  # k <= sigma: clear the k - 1 lowest labels
            m &= m - 1
        below = (m & -m) - 1  # the labels below the k-th one
        if not succ & (below + 1):
            raise DomainError(f"label of child {k} missing from the successor's out-set")
        return (succ & below).bit_count() + 1


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
        """Pre-order id of u's co-lex successor (climb, Cases 1..2.2.2).

        One pass over the topology and sample tables, with no topology call.
        One bisect in the colored ids says whether u is colored, finds the
        first mark in u's subtree, or else the marks p and s on either side of
        it. One binary search over depth finds the lowest ancestor a covering
        p or s and its child ``k_node`` towards u. Sibling ranks, the k-th
        child and ``isd`` step by subtree sizes. Only what the file gives is
        range-checked: u, each sample or type-2 value used as a node, the child
        rank against the subtree end and ``isd``'s offset.
        """
        if u == self.last:
            raise NoSuccessorError(f"node {u} is last in co-lex order")
        n = self.n
        if not 1 <= u <= n:
            raise IndexError(f"node {u} out of range 1..{n}")
        keys = self.colors.colored.positions
        size = self.topo.subtree_size
        counters = self.case_counters
        k = bisect_left(keys, u)
        s = keys[k] if k < len(keys) else n + 1
        if s == u:
            counters["1"] += 1
            return self.samples.values[k]
        if s < u + size[u]:
            succ = self._from_mark(u, k)
            counters["1"] += 1
            return succ
        p = keys[k - 1] if k else 0
        if not p and s > n:
            raise DomainError(f"node {u} has no ancestor covering a colored node")
        # an ancestor b of u covers p iff b <= p, and s iff b + size(b) > s;
        # each test holds from the root down to some depth. The smallest depth
        # that fails is one below a's, so the last failure is k_node
        topo = self.topo
        nodes, start = topo.level_nodes, topo.level_start
        lo, hi, a, k_node = 0, topo.node_depth[u] - 1, 1, u
        while lo < hi:
            mid = (lo + hi + 1) >> 1
            b = nodes[bisect_right(nodes, u, start[mid], start[mid + 1]) - 1]
            if b <= p or b + size[b] > s:
                lo, a = mid, b
            else:
                hi, k_node = mid - 1, b
        # a is red iff it is colored and not blue-only; its red rank is its
        # colored rank less the blue-only nodes before it
        ka = bisect_left(keys, a, 0, k)  # the first mark in a's subtree
        red = keys[ka] == a
        if red:
            blue_only = self.colors.blue_only
            b = bisect_left(blue_only, a)
            red = b == len(blue_only) or blue_only[b] != a
        t2 = self.samples.type2_keys
        i = bisect_left(t2, k_node) if red else len(t2)
        if i < len(t2) and t2[i] == k_node:
            counters["2.2.1"] += 1
            u_k1 = self.samples.type2_values[i]
            if not 1 <= u_k1 <= n:
                raise IndexError(f"type-2 sample {u_k1} out of range 1..{n}")
        else:
            rank, v = 1, a + 1  # k_node's rank among a's children
            while v != k_node:
                v += size[v]
                rank += 1
            if red:
                counters["2.2.2"] += 1
                rank = self.isc_tables.isc_at(ka - b, rank)
                base = self.samples.values[ka]
            else:
                counters["2.1"] += 1
                base = self._from_mark(a, ka)
            if not 1 <= base <= n:
                raise IndexError(f"sample {base} out of range 1..{n}")
            u_k1, end = base + 1, base + size[base]  # base's rank-th child
            while rank > 1 and u_k1 < end:
                u_k1 += size[u_k1]
                rank -= 1
            if u_k1 >= end:
                raise IndexError(f"node {base} has fewer children than the climb asks for")
        if k_node == u:
            return u_k1
        # isomorphic subtrees number their nodes alike
        offset = u - k_node
        if offset >= size[u_k1]:
            raise DomainError(f"node {u_k1}'s subtree is smaller than node {k_node}'s")
        return u_k1 + offset

    def _from_mark(self, x, k):
        """Case 1 at x: x's successor, read off the k-th colored node, the
        first in x's subtree. That node's sample is lifted back up to x's
        depth; if it is x itself, the sample is the answer."""
        samples = self.samples
        j, v = samples.colored.positions[k], samples.values[k]
        if j == x:
            return v
        n = self.n
        if not 1 <= v <= n:
            raise IndexError(f"sample {v} out of range 1..{n}")
        topo = self.topo
        depth = topo.node_depth
        t = depth[v] - depth[j] + depth[x]
        if t < 0:
            raise IndexError(f"sample {v} lies above the depth its mark asks for")
        nodes, start = topo.level_nodes, topo.level_start
        return nodes[bisect_right(nodes, v, start[t], start[t + 1]) - 1]

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
    colored = np.asarray(colors.colored.positions, dtype=np.int64)
    type2 = np.setdiff1d(type2_nodes(out, colex), colored)
    phi_samples = PhiSamples(colors.colored, c2p[p2c[colored] + 1], type2, c2p[p2c[type2] + 1])

    # red_ids runs in co-lex order, where the q-th red node ends block q
    isc_tables = IscTables(colors, rlx.mask, np.argsort(red_ids))

    return RIndex(n, trie.alphabet, int(c2p[n]), topo, rlx, colors, phi_samples, isc_tables)
