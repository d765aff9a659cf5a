"""Locate machinery: colored nodes, successor-function samples, toehold
search, and the four-case climb.

``phi`` maps a node to its co-lex successor using only the sampled anchors
and topology jumps; the co-lex-to-pre-order permutation is never consulted.
It is one function over the tables themselves, with no topology call: one
bisect in the colored ids settles case 1 or gives the marks on either side
of u's subtree, one binary search over depth gives the covering ancestor
and its child towards u, and sibling steps read subtree sizes. It checks
only what the file gives. Locate = toehold (backward search, then one
descent to the pre-order id of the range's first node), then, at each
later position of the range, the block head where a block starts and
``phi`` of the node before it elsewhere. Count is the backward search
alone, over each label's run starts: one search per step, two at most, and
none over the block starts. The toehold runs the same range loop, then
descends once from its last step that jumps to a run head, as the
r-index's toehold keeps only the last such sample: one block search per
step from that jump on (none at the first step), and none at all when the
pattern is absent. Neither makes a function call per step, nor any search
from the whole range. The samples are keyed by the color marks' one
anchor per colored node, derived by one constructor at build and at load:
a red node's is the block after the one it ends, whose head is its sample;
a blue-only node's points past the blocks, to its stored sample. At a red
node the climb's isomorphic-child jump is a query of the run-length XBWT,
``RlXbwt.isc_at`` at the block the node ends, which compares that block's
mask with the next one's.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .bits import SparseBitVec, int_array
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

    The red nodes come in block order: ``red_ids[q]`` ends block q of the
    run-length XBWT, one per block boundary, so r' = len(red_ids) + 1.
    ``anchor`` has one entry per colored node in pre-order: q + 1 for the
    red node ending block q, whose co-lex successor heads block q + 1, and
    r' + b for the b-th blue-only node. So u is red iff it is colored with
    an anchor below r', and then the climb's isomorphic-child jump at u is
    ``RlXbwt.isc_at`` at block anchor - 1. ``red`` rebuilds the red set for
    inspection; no query reads it."""

    __slots__ = ("colored", "blue", "blue_only", "anchor")

    def __init__(self, n, red_ids, blue_ids):
        # at the narrowest dtype that holds n, which bounds the anchors too:
        # the argsort is a radix sort below 2**16
        narrow = np.min_scalar_type(n)
        red_ids = np.asarray(red_ids).astype(narrow, copy=False)
        order = np.argsort(red_ids, kind="stable")
        red, block = red_ids[order], order.astype(narrow)  # an int64 index gathers fastest
        del order
        self.blue = SparseBitVec(n, blue_ids)
        blue = np.asarray(self.blue.positions)
        blue_only = blue[np.searchsorted(red, blue) == np.searchsorted(red, blue, "right")]
        # both sorted: the few blue-only ids go in at their places among the
        # red ones, and their anchors at the same places among the blocks'
        at = np.searchsorted(red, blue_only)
        self.colored = SparseBitVec(n, np.insert(red, at, blue_only))
        self.blue_only = int_array(blue_only)
        r = len(red) + 1  # one red node per block boundary
        del red
        block += 1
        self.anchor = int_array(np.insert(block, at, np.arange(r, r + len(blue_only))))

    @property
    def red(self):
        """The red nodes, as a :class:`~rlxt.bits.SparseBitVec` built anew."""
        colored = self.colored.positions
        return SparseBitVec(self.colored.universe,
                            np.delete(colored, np.searchsorted(colored, self.blue_only)))


class PhiSamples:
    """Sampled values of the co-lex successor function.

    Type 1 lives on the colored nodes, keyed by the set :class:`ColorMarks`
    holds: the k-th one's is ``block_head[a]`` for ``a = anchor[k]`` below
    r', else ``blue_values[a - r']`` (the ``anchor`` of :class:`ColorMarks`).
    Type 2 lives on the child reached by a label that breaks its run. The
    climb asks for a type-2 sample only at a node that is not colored (the
    child below the lowest covering ancestor, whose subtree holds no mark),
    so only those type-2 nodes are kept: ``type2_keys``, sorted, with
    ``type2_values``. A colored node's type-2 value, if any, is its type-1
    value. Every table is an :func:`~rlxt.bits.int_array`.
    """

    __slots__ = ("colored", "anchor", "block_head", "blue_values", "type2_keys", "type2_values")

    def __init__(self, colored, anchor, block_head, blue_values, type2_keys, type2_values):
        self.colored = colored
        self.anchor = anchor
        self.block_head = block_head
        self.blue_values = int_array(blue_values)
        self.type2_keys = int_array(type2_keys)
        self.type2_values = int_array(type2_values)

    def slot(self, k):
        """(table, index) of the k-th colored node's sample."""
        a, heads = self.anchor[k], self.block_head
        return (heads, a) if a < len(heads) else (self.blue_values, a - len(heads))

    def type2_value(self, u):
        """The type-2 sample of u, a node that is not colored, or None."""
        keys = self.type2_keys
        k = bisect_left(keys, u)
        return self.type2_values[k] if k < len(keys) and keys[k] == u else None

    def arrows(self):
        out = {u: table[i] for u, (table, i)
               in zip(self.colored.positions, map(self.slot, range(len(self.anchor))))}
        out.update(zip(self.type2_keys, self.type2_values))
        return out


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
        "samples", "case_counters",
    )

    def __init__(self, n, alphabet, last, topo, rlx, colors, samples):
        self.n = n
        self.alphabet = alphabet
        self.last = last
        self.topo = topo
        self.rlx = rlx
        self.colors = colors
        self.samples = samples
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

    @property
    def isc_tables(self):
        """The block masks the isomorphic-child jump reads, under the name
        measuring tools read: they are ``rlx.mask`` itself."""
        return self.rlx.mask

    def reset_counters(self):
        for k in self.case_counters:
            self.case_counters[k] = 0

    # -- queries ------------------------------------------------------------

    def toehold_search(self, pattern):
        """Co-lex range of nodes reached by ``pattern`` plus the first node.

        Returns ((lo, hi), first_preorder) or None when no node matches.
        The empty pattern matches every node, with the root first. One
        :meth:`_backward_search`: one or two searches over c's run starts
        per step, then one over the block starts per step from the last
        run-head jump on, and none of those where the pattern is absent.
        """
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return None
        got = self._backward_search(codes)
        return None if got is None else ((got[0], got[1]), got[2])

    def count(self, pattern):
        """Number of nodes reached by ``pattern``: the backward search over
        the range alone, with no call but ``bisect_right``. It reads c's run
        starts, ``base[c]`` (c's node count before each run, then c's total)
        and the C array, and no block start, mask or head. Run k's length is
        ``base[c][k + 1] - base[c][k]``, the last run's too.

        The first step, from the whole range, is c's C-array span. After it,
        one search over c's run starts finds the run k that starts at or
        before lo. If lo lies within run k's length, the rank of c through
        lo follows; otherwise lo's successor heads run k + 1, if that run
        starts by hi. If hi lies within the run that holds lo or its
        successor, it needs no search of its own; otherwise a second search,
        from that run on, finds the last run that starts at or before hi,
        whose rank through hi stops at its length. The checks are
        ``backward_extend``'s: the range and the label at each step.
        """
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return 0
        rlx = self.rlx
        n, sigma = rlx.n, rlx.sigma
        all_starts, all_base, c_array = rlx.run_start, rlx.base, rlx.c_array
        search = bisect_right
        lo, hi = 1, n
        for c in codes:
            if not 1 <= lo <= hi <= n:
                if lo > hi:  # backward_extend's empty range
                    return 0
                raise IndexError(f"range {(lo, hi)} invalid for n={n}")
            if not 1 <= c < sigma:
                return 0
            run_start, base = all_starts[c], all_base[c]
            cc = c_array[c]
            if lo == 1 and hi == n:  # the whole range: all of c's nodes
                if not run_start:
                    return 0
                lo, hi = cc + 1, c_array[c + 1]
                continue
            k = search(run_start, lo) - 1
            if k >= 0:  # c's nodes before and through run k
                run, below, end = run_start[k], base[k], base[k + 1]
            if k >= 0 and lo - run < end - below:  # lo in run k
                lo2 = below + lo - run + 1
            else:  # lo's successor heads c's next run, if it starts by hi
                k += 1
                if k == len(run_start):
                    return 0
                run, below, end = run_start[k], base[k], base[k + 1]
                if run > hi:
                    return 0
                lo2 = below + 1
            if hi - run < end - below:  # hi in run k
                hi2 = below + hi - run + 1
            else:  # the run at or before hi, k or later, and its rank through hi
                k = search(run_start, hi, k) - 1
                hi2 = min(base[k] + hi - run_start[k] + 1, base[k + 1])
            lo, hi = cc + lo2, cc + hi2
        return max(hi - lo + 1, 0)

    def _backward_search(self, codes):
        """(lo, hi, first) for the label codes, or None if they match no node.

        The checked ``rlxbwt`` steps and ``topo.cbr`` fused into two loops
        over the S' tables, with no call but ``bisect_right``; ``first`` is
        the pre-order id of the range's first node. The first loop is
        :meth:`count`'s over the range: one or two searches over c's run
        starts per step, none in the first step and none over the block
        starts. It keeps lo before each step, and the last step j where lo's
        successor heads c's next run, or the first step, whose range is the
        whole trie: as in the r-index's toehold, the first nodes of the
        steps before j are never needed. If the range empties, nothing is
        read below it. The second loop descends once, from step j: its node is
        the head of the block where that run starts (one search over the
        block starts; ``first_block[c]`` at the first step), and each later
        step's is the previous first node. Each is stepped down by c's child
        rank at the block that holds lo, found by one search over the block
        starts: a popcount of the block's mask, then a walk over sibling
        subtree sizes. The checks are the composed path's: the range and the
        label at each step, and the node id and its child count at each
        child step the descent takes.
        """
        rlx = self.rlx
        n, sigma = rlx.n, rlx.sigma
        all_starts, all_base, c_array = rlx.run_start, rlx.base, rlx.c_array
        search = bisect_right
        lo, hi = 1, n
        los = []  # lo before each step
        j = jump = 0  # the last jump's step and its run's start; 0: the first step
        for c in codes:
            if not 1 <= lo <= hi <= n:
                raise IndexError(f"range {(lo, hi)} invalid for n={n}")
            if not 1 <= c < sigma:
                return None
            run_start, base = all_starts[c], all_base[c]
            cc = c_array[c]
            los.append(lo)
            if lo == 1 and hi == n:  # the whole range: all of c's nodes
                if not run_start:
                    return None
                j, jump = len(los) - 1, 0
                lo, hi = cc + 1, c_array[c + 1]
                continue
            k = search(run_start, lo) - 1
            if k >= 0:  # c's nodes before and through run k
                run, below, end = run_start[k], base[k], base[k + 1]
            if k >= 0 and lo - run < end - below:  # lo in run k
                lo2 = below + lo - run + 1
            else:  # lo's successor heads c's next run, if it starts by hi
                k += 1
                if k == len(run_start):
                    return None
                run, below, end = run_start[k], base[k], base[k + 1]
                if run > hi:
                    return None
                lo2 = below + 1
                j, jump = len(los) - 1, run
            if hi - run < end - below:  # hi in run k
                hi2 = below + hi - run + 1
            else:  # the run at or before hi, k or later, and its rank through hi
                k = search(run_start, hi, k) - 1
                hi2 = min(base[k] + hi - run_start[k] + 1, base[k + 1])
            lo, hi = cc + lo2, cc + hi2
        if not los:  # the empty pattern: every node, the root first
            return lo, hi, 1
        starts, mask, block_head = rlx.starts, rlx.mask, rlx.block_head
        size = self.topo.subtree_size
        q = search(starts, jump) - 1 if jump else rlx.first_block[codes[j]]
        u = block_head[q]  # block_head[0] is the root
        for i in range(j, len(los)):
            if i > j:
                q, u = search(starts, los[i]) - 1, node
            c = codes[i]
            # node = cbr(u, child rank of c at block q)
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
        """Pre-order ids of the nodes reached by ``pattern``, in co-lex order.

        The toehold gives the range lo..hi and the first node. Every later
        position that starts a block is read off ``block_head``, with no
        climb; each other one is ``phi`` of the node before it. One search
        over the block starts puts the cursor on the first block after lo.

        A head read puts the walk back in step with the co-lex positions, so
        a damaged sample that put the climb out of step would go unseen.
        Where a climbed node comes before block q, it must be the red node
        that ends block q - 1, whose anchor is q: one bisect in the colored
        ids checks it, and a ``DomainError`` says it is not.
        """
        got = self.toehold_search(pattern)
        if got is None:
            return []
        (lo, hi), node = got
        out = [node]
        phi, starts, heads = self.phi, self.rlx.starts, self.rlx.block_head
        keys, anchor = self.colors.colored.positions, self.samples.anchor
        q, r = bisect_right(starts, lo), len(starts)
        at = starts[q] if q < r else 0  # the next block start; no position is 0
        climbed = False
        for j in range(lo + 1, hi + 1):
            if j == at:
                if climbed:  # the node before must end block q - 1
                    k = bisect_left(keys, node)
                    if k == len(keys) or keys[k] != node or anchor[k] != q:
                        raise DomainError(f"node {node} does not end the block before block {q}")
                    climbed = False
                node = heads[q]
                q += 1
                at = starts[q] if q < r else 0
            else:
                node = phi(node)
                climbed = True
            out.append(node)
        return out

    def phi(self, u):
        """Pre-order id of u's co-lex successor (climb, Cases 1..2.2.2).

        One pass over the topology and sample tables, with no topology call.
        One bisect in the colored ids finds the first mark in u's subtree, u
        itself if it is colored (case 1 either way), or else the marks p and
        s on either side of it. One binary search over depth finds the lowest
        ancestor a covering p or s and its child ``k_node`` towards u.
        Sibling ranks, the k-th child and ``isd`` step by subtree sizes. Only
        what the file gives is range-checked: u, each sample or type-2 value
        used as a node, the child rank against the subtree end and ``isd``'s
        offset.
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
        samples, heads = self.samples, self.samples.block_head
        if s < u + size[u]:  # s is u itself or the first mark in u's subtree
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
        # a is red iff it is colored with an anchor below r': a block head
        ka = bisect_left(keys, a, 0, k)  # the first mark in a's subtree
        h = samples.anchor[ka] if keys[ka] == a else len(heads)
        red = h < len(heads)
        t2 = samples.type2_keys
        i = bisect_left(t2, k_node) if red else len(t2)
        if i < len(t2) and t2[i] == k_node:
            counters["2.2.1"] += 1
            u_k1 = samples.type2_values[i]
            if not 1 <= u_k1 <= n:
                raise IndexError(f"type-2 sample {u_k1} out of range 1..{n}")
        else:
            rank, v = 1, a + 1  # k_node's rank among a's children
            while v != k_node:
                v += size[v]
                rank += 1
            if red:
                counters["2.2.2"] += 1
                rank = self.rlx.isc_at(h - 1, rank)  # a ends block h - 1
                base = heads[h]
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
        h, heads = samples.anchor[k], samples.block_head
        v = heads[h] if h < len(heads) else samples.blue_values[h - len(heads)]
        j = samples.colored.positions[k]
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
    # in co-lex order, so in block order: the q-th red node ends block q
    red_ids = c2p[np.flatnonzero(out.change) + 1]
    lam = trie.label[c2p[1:]]
    blue_ids = c2p[np.flatnonzero(lam[:-1] != lam[1:]) + 1]
    colors = ColorMarks(n, red_ids, blue_ids)

    # type 1 on the colored nodes; of type 2, the nodes that are not colored,
    # each once: a child is in one out-set
    blue_only = np.asarray(colors.blue_only, dtype=np.int64)
    type2 = type2_nodes(out, colex)
    uncolored = np.ones(n + 1, dtype=bool)
    uncolored[np.asarray(colors.colored.positions)] = False
    type2 = np.sort(type2[uncolored[type2]])
    phi_samples = PhiSamples(colors.colored, colors.anchor, rlx.block_head,
                             c2p[p2c[blue_only] + 1], type2, c2p[p2c[type2] + 1])

    return RIndex(n, trie.alphabet, int(c2p[n]), topo, rlx, colors, phi_samples)
