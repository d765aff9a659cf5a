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
``phi``. Count is the backward search alone. Both run one loop over the S'
tables, with no function call per step: one search over the block starts
per step once the range lies in one block, two at worst, and none from
the whole range. The isomorphic-child jump at a red node compares the
out-set masks of the two blocks it separates; it stores only which block
each red node ends; through it, a red node's sample is the next block's
head, the table the toehold reads its run heads from.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .bits import SparseBitVec, int_array, sorted_set, typecode
from .errors import DomainError, NoSuccessorError
from .rlxbwt import OutSets, build_rl_xbwt
# not called here: kept because the traced benchmark patches these names in this module
from .rlxbwt import backward_extend, cr, run_head_preorder, xbwt_successor  # noqa: F401
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

    def blue_only_ranks(self):
        """The blue-only nodes' ranks among the colored ones (from 0)."""
        return np.searchsorted(self.colored.positions, self.blue_only)

    def is_blue(self, u):
        return self.blue.contains(u)

    def is_colored(self, u):
        return self.colored.contains(u)


class PhiSamples:
    """Sampled values of the co-lex successor function.

    Type 1 lives on the colored nodes: ``values[k]`` belongs to the k-th of
    ``colored.positions``, the set :class:`ColorMarks` holds, not a copy
    (see :func:`colored_values`).
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


def colored_values(colors, blocks, block_head, blue_only_values):
    """The type-1 samples, one per colored node in pre-order, at the
    narrowest width of their values. The red node ending block q is
    followed in co-lex order by block q + 1's first node, so the j-th red
    node's sample is ``block_head[blocks[j] + 1]``, with ``blocks`` the
    :class:`IscTables` column. The blue-only nodes' samples are given, in
    pre-order: they are the only ones an index file stores."""
    heads = np.asarray(block_head)[1:]
    top = max(int(heads.max(initial=0)), int(blue_only_values.max(initial=0)))
    values = np.empty(colors.colored.num_ones, typecode(top.bit_length()))
    red = np.ones(len(values), dtype=bool)
    red[colors.blue_only_ranks()] = False
    values[red] = heads[np.asarray(blocks)]
    values[~red] = blue_only_values
    return values


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
    :class:`~rlxt.rlxbwt.RlXbwt`: its S' tables and its block heads.
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
        The empty pattern matches every node, with the root first. One
        :meth:`_backward_search` that also takes each step's child.
        """
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return None
        got = self._backward_search(codes, True)
        return None if got is None else ((got[0], got[1]), got[2])

    def count(self, pattern):
        """Number of nodes reached by ``pattern``: one
        :meth:`_backward_search` over the range alone, which reads no run
        head and takes no child step."""
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return 0
        got = self._backward_search(codes, False)
        return 0 if got is None else max(got[1] - got[0] + 1, 0)

    def _backward_search(self, codes, toehold):
        """(lo, hi, first) for the label codes, or None if they match no node.

        The checked ``rlxbwt`` steps and ``topo.cbr`` fused into one loop
        over the S' tables, with no call but ``bisect_right``; ``first``,
        the pre-order id of the range's first node, is 1 unless ``toehold``.
        The first step, from the whole range, is c's C-array span and c's
        first run, with no search. After it, one search over the block
        starts finds lo's block q and one over c's entries the run k that
        holds lo, or else c's next run and its block. If hi lies in that
        block, run k holds it too and it needs no search of its own;
        otherwise a second search over the block starts finds it. The
        toehold's child is block q's head, or the previous first node,
        stepped down by c's child rank: a popcount of the block's mask, then
        a walk over sibling subtree sizes. The checks are the composed
        path's: the range and the label at each step, and the node id and
        its child count at each child step.
        """
        rlx = self.rlx
        n, sigma = rlx.n, rlx.sigma
        starts, all_adds, all_base = rlx.starts, rlx.adds, rlx.base
        c_array, mask, block_head = rlx.c_array, rlx.mask, rlx.block_head
        size = self.topo.subtree_size
        search = bisect_right
        r = len(starts)
        lo, hi, node = 1, n, 1
        for c in codes:
            if not 1 <= lo <= hi <= n:
                if lo > hi and not toehold:  # backward_extend's empty range
                    return None
                raise IndexError(f"range {(lo, hi)} invalid for n={n}")
            if not 1 <= c < sigma:
                return None
            adds, base = all_adds[c], all_base[c]
            if lo == 1 and hi == n:  # the whole range: all of c's nodes
                if not adds:
                    return None
                q = adds[0]  # 0 iff the root has a c-child, else c's first run's block
                lo2, hi2 = 1, c_array[c + 1] - c_array[c]
                u = block_head[q] if toehold else node  # block_head[0] is the root
            else:
                q = search(starts, lo) - 1
                if mask[q] >> c & 1:  # c present at lo
                    k = search(adds, q) - 1
                    run = starts[adds[k]]
                    lo2 = base[k] + lo - run + 1
                    u = node
                else:  # lo2 heads c's next run, if it starts within the range
                    k = search(adds, q)
                    if k == len(adds):
                        return None
                    q = adds[k]
                    run = starts[q]
                    if run > hi:
                        return None
                    lo2 = base[k] + 1
                    if toehold:
                        u = block_head[q]
                if q + 1 == r or hi < starts[q + 1]:  # hi in block q: run k holds it
                    hi2 = base[k] + hi - run + 1
                else:  # rank of c through hi; its run, at or after k, starts at or before hi
                    qh = search(starts, hi) - 1
                    kh = search(adds, qh, k) - 1
                    if mask[qh] >> c & 1:
                        hi2 = base[kh] + hi - starts[adds[kh]] + 1
                    elif kh + 1 < len(base):  # c's run kh ended before hi's block
                        hi2 = base[kh + 1]
                    else:
                        hi2 = c_array[c + 1] - c_array[c]
            cc = c_array[c]
            lo, hi = cc + lo2, cc + hi2
            if toehold:  # node = cbr(u, child rank of c at block q)
                if not 1 <= u <= n:
                    raise IndexError(f"node {u} out of range 1..{n}")
                v, end = u + 1, u + size[u]
                for _ in range((mask[q] & ((1 << c) - 1)).bit_count()):
                    if v >= end:
                        break
                    v += size[v]
                if v >= end:
                    raise IndexError(f"node {u} has fewer children than the toehold asks for")
                node = v
        return lo, hi, node

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

    # red_ids runs in co-lex order, where the q-th red node ends block q
    isc_tables = IscTables(colors, rlx.mask, np.argsort(red_ids))

    # type 1 on the colored nodes; of type 2, the nodes that are not colored
    blue_only = np.asarray(colors.blue_only, dtype=np.int64)
    values = colored_values(colors, isc_tables.blocks, rlx.block_head, c2p[p2c[blue_only] + 1])
    type2 = np.setdiff1d(type2_nodes(out, colex), colors.colored.positions)
    phi_samples = PhiSamples(colors.colored, values, type2, c2p[p2c[type2] + 1])

    return RIndex(n, trie.alphabet, int(c2p[n]), topo, rlx, colors, phi_samples, isc_tables)
