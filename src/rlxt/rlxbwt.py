"""Run-length encoded XBWT: block triples, the S' delta sequence, the
counting-side queries (rank over the out-label sets, run successor, child
rank and backward range extension), and the climb's isomorphic-child jump
across a block boundary.

The XBWT is the sequence of outgoing-label sets in co-lex node order. Blocks
are maximal runs of equal sets, each encoded as (ADD, DEL, length) against
its predecessor. S' flattens the deltas as c+/c- symbols with '/' block
separators. The transform is built, and loaded, from S' as its toggles:
each label that enters or leaves the out-set at a block, block after
block. A label's toggles alternate, entering first, so whether a toggle is
c+ or c- is its parity within its label and need not be given. Queries
read S' regrouped by label: per label, the co-lex positions where its runs
start and the count of its nodes before each run, then its total, so a
run's length is the difference of two counts; plus the block starts.
Every lookup is a binary search over O(r) words. Each block's out-set is
also kept as a sigma-bit mask, one running XOR of the toggles
(:func:`out_masks`), so "is c present at block q" is one bit test and the
child rank of c is one popcount of the bits below c; the isomorphic-child
jump at the red node that ends block q compares ``mask[q]`` with
``mask[q + 1]`` (:meth:`RlXbwt.isc_at`). The blocks are kept only in
those tables: the toggles, the exits, the node counts, the C array and
the triples are derived from them. One object, :class:`RlXbwt`, holds the
tables, the masks and each block's head, the pre-order id of its first
node, and every query takes it as its one transform argument.

The queries here check every argument. ``RIndex.count`` and
``RIndex.toehold_search`` call none of them: each runs its own loop over
the tables, which takes the first step from the C array. ``count`` fuses
``backward_extend`` alone: one search over c's run starts per step, two
at most, and none over the block starts. The toehold
(``RIndex._backward_search``) runs the same range loop, then fuses
``xbwt_successor``, ``run_head_preorder`` and ``cr`` in one descent from
its last run-head jump: one block search per step from that jump on. The
queries stay as the checked reference the tests compare those
loops with, and because the traced benchmark (``bench/spans.py``) patches
them by name.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .bits import concat_ranges, int_array, typecode
from .errors import DomainError
from .trie import ColexOrder, LabeledTrie, _depths, _levels, _subtree_sizes


def per_label(values, counts):
    """Label-sorted ``values`` cut into one table per label, all at the
    width :func:`~rlxt.bits.int_array` picks for the whole: 2 bytes per
    value below 2**16, 4 below 2**32. Slicing an array copies exactly its
    length."""
    table = int_array(values)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [table[a:b] for a, b in zip(bounds, bounds[1:])]


class RlXbwt:
    """The run-length XBWT: S' regrouped by label, answering rank,
    successor and child rank, plus the block heads' pre-order ids and the
    isomorphic-child jump between neighbouring blocks' masks.

    Blocks are numbered from 0 and ``starts[q]`` is the co-lex position where
    block q begins. For each label c, ``run_start[c]`` lists the co-lex
    positions where c's runs begin: the starts of the blocks where c enters
    the out-set (c's first, third, ... toggles: the c+ symbols of S').
    ``mask[q]`` is block q's out-set: bit c is set iff c is present there
    (see :func:`out_masks`).

    The rest follows from the runs. c's k-th run spans the positions from
    ``run_start[c][k]`` through its last c-node, and each of them has one
    c-child. ``base[c]`` holds c's node count before each of its runs, then
    c's total, one entry more than ``run_start[c]``, and ``c_array`` sums
    every label's totals. So run k always holds ``base[c][k + 1] -
    base[c][k]`` positions, and c leaves the out-set (c's second, fourth,
    ... toggles: the c- symbols of S') at the block starting one past it.
    Rank of c through i is then one search in ``run_start[c]`` and one
    comparison with that run's length.
    ``toggles``, ``triples``, ``r_prime`` and ``colex_parents`` are views
    derived from the tables.

    ``block_head[q]`` is the pre-order id of block q's first node, one
    :func:`~rlxt.bits.int_array` of r' ids; ``block_head[0]`` is the root,
    1. The c-run heads are the heads of the blocks that start at
    ``run_start[c]``; ``first_block[c]`` is the block where c's first run
    starts (0 for a label with no run), so the toehold's first step, from
    the whole range, makes no search. The heads and the masks are attached
    once the tables are built, so the temporaries of the three never
    coexist.
    """

    __slots__ = ("n", "sigma", "starts", "run_start", "first_block", "base", "c_array", "mask",
                 "block_head")

    def __init__(self, sigma, blocks, labels, lengths):
        """Block q holds ``lengths[q]`` positions. The toggles of S' are
        ``labels``, each in 1..sigma-1, with the block of each in
        ``blocks``: block after block, ascending in label within
        a block (S' order), so no label toggles twice in one block. A
        label's toggles alternate: it enters the out-set at its first,
        leaves at its second, enters at its third, and so on, so every
        stream of toggles is one of runs."""
        # the per-block and per-run temporaries are held at the narrowest
        # width of their values, not at int64, since a load can peak here:
        # positions below n + 2, keys of a label and a block, and the runs'
        # running count at the width of its total. Each goes once used.
        lengths = np.asarray(lengths)
        self.n = n = int(lengths.sum(dtype=np.int64))
        self.sigma = sigma
        r = len(lengths)
        # each block's first position, then n + 1: the start of a virtual
        # block r, where a label still present in the last block leaves
        starts = np.empty(r + 1, np.min_scalar_type(n + 1))
        starts[0] = 1
        np.cumsum(lengths, dtype=starts.dtype, out=starts[1:])
        starts[1:] += 1
        self.starts = int_array(starts[:r])
        # one in-place sort of the keys label << b | block, with b bits for
        # blocks 0..r, orders each label's toggles by block, a label with an
        # odd count closed by a virtual exit at block r; then its runs start
        # at its even-numbered keys and stop at the odd-numbered ones
        b = r.bit_length()
        labels = np.asarray(labels)
        per = np.bincount(labels, minlength=sigma)
        odd = np.flatnonzero(per & 1)
        m = len(labels)
        keys = np.empty(m + len(odd), np.min_scalar_type((sigma - 1) << b | r))
        np.left_shift(labels, b, out=keys[:m], dtype=keys.dtype, casting="unsafe")
        np.bitwise_or(keys[:m], blocks, out=keys[:m], casting="unsafe")
        keys[m:] = odd << b | r
        keys.sort()
        keys &= (1 << b) - 1  # the blocks alone
        n_entries = (per + 1) >> 1
        first = np.cumsum(n_entries) - n_entries  # each label's first run
        has = n_entries > 0
        first_block = np.zeros(sigma, keys.dtype)
        first_block[has] = keys[::2][first[has]]
        self.first_block = int_array(first_block)
        heads = starts[keys[::2]]
        runs = starts[keys[1::2]]
        del keys, starts, first_block
        runs -= heads  # each run's stop is past its head
        self.run_start = per_label(heads, n_entries)
        del heads
        before = np.zeros(len(runs) + 1, dtype=np.min_scalar_type(int(runs.sum(dtype=np.int64))))
        np.cumsum(runs, out=before[1:])
        del runs
        # c's counts are before[first[c]] through before[last[c]], which
        # closes c's runs with its total, less the first; before never
        # falls, so they cannot wrap
        last = first + n_entries
        counts = np.insert(before[:-1], last, before[last])
        counts -= np.repeat(before[first], n_entries + 1)
        self.base = per_label(counts, n_entries + 1)
        del counts
        self.c_array = int_array(np.concatenate(([0], before[last].astype(np.int64) + 1)))
        del before
        self.mask = self.block_head = None

    @property
    def r_prime(self):
        return len(self.starts)

    def block_lengths(self):
        """Positions per block, as an int64 array."""
        return np.diff(np.asarray(self.starts, dtype=np.int64), append=self.n + 1)

    @property
    def triples(self):
        """``[(add, dele, length)]`` per block, the label tuples ascending."""
        return [(add, dele, ln) for (add, dele), ln
                in zip(self.block_deltas(), self.block_lengths().tolist())]

    @property
    def run_heads(self):
        """``{c: [(colex, preorder), ...]}`` for labels 1..sigma-1: the
        start and the head of each of c's runs, the head of its block."""
        heads = self.block_head
        return {c: [(i, heads[self.block_of(i)]) for i in self.run_start[c]]
                for c in range(1, self.sigma)}

    def run_stats(self):
        """(r, per-label run counts, r')."""
        r_c = {c: len(rs) for c, rs in enumerate(self.run_start) if len(rs)}
        return sum(r_c.values()), r_c, self.r_prime

    def _runs(self):
        """Every run's label, start and length, label after label, as int64:
        run k of c holds ``base[c][k + 1] - base[c][k]`` positions."""
        per = [len(rs) for rs in self.run_start]
        counts = np.concatenate(self.base).astype(np.int64)
        totals = np.cumsum(np.add(per, 1)) - 1  # where each label's total sits
        lengths = np.delete(np.diff(counts), totals[:-1])
        labels = np.repeat(np.arange(self.sigma, dtype=np.int64), per)
        return labels, np.concatenate(self.run_start).astype(np.int64), lengths

    def colex_parents(self):
        """The parent co-lex position of each of positions 2..n: the k-th
        c-child hangs off the k-th position of c's runs, label after label."""
        _, starts, lengths = self._runs()
        return concat_ranges(starts, lengths)

    def _blocks_at(self, positions):
        """The block starting at each of ``positions``, all block starts:
        one lookup in a map from each block's start to its number."""
        r = len(self.starts)
        block_at = np.zeros(self.n + 1, np.min_scalar_type(r))
        block_at[self.starts] = np.arange(r)
        return block_at[positions]

    def toggles(self):
        """S' as its toggles, (blocks, labels) as int64, by block and then
        by label: c enters at the block starting at each of its runs and
        leaves at the block starting one past it; a run through n never
        leaves."""
        labels, starts, lengths = self._runs()
        ends = starts + lengths
        exits = ends <= self.n
        keys = self._blocks_at(np.concatenate((starts, ends[exits]))).astype(np.int64) << 8
        keys |= np.concatenate((labels, labels[exits]))
        keys.sort()
        return keys >> 8, keys & 255

    def deltas(self):
        """S' block by block: the ADD count per block, the ADD labels in S'
        order, then the same for DEL. A toggle is an ADD iff it is the
        first, third, ... of its label's."""
        blocks, labels = self.toggles()
        per = np.bincount(labels, minlength=self.sigma)
        nth = np.empty(len(labels), np.int64)  # each toggle's number within its label
        nth[np.argsort(labels, kind="stable")] = (np.arange(len(labels))
                                                   - np.repeat(np.cumsum(per) - per, per))
        add = nth % 2 == 0
        r = len(self.starts)
        return (np.bincount(blocks[add], minlength=r), labels[add],
                np.bincount(blocks[~add], minlength=r), labels[~add])

    def block_deltas(self):
        """``[(add, dele)]`` per block, the label tuples ascending."""
        n_add, add_labels, n_del, del_labels = self.deltas()
        add_labels, del_labels = add_labels.tolist(), del_labels.tolist()
        add_end, del_end = np.cumsum(n_add).tolist(), np.cumsum(n_del).tolist()
        return [(tuple(add_labels[a0:a1]), tuple(del_labels[d0:d1])) for a0, a1, d0, d1
                in zip([0] + add_end[:-1], add_end, [0] + del_end[:-1], del_end)]

    def delta_counts(self):
        """(sum|ADD|, sum|DEL|) over all blocks: every run exits but those
        present in the last block."""
        runs = sum(map(len, self.run_start))
        return runs, runs - self.mask[-1].bit_count()

    def block_of(self, i):
        """0-based block containing co-lex position i."""
        return bisect_right(self.starts, i) - 1

    def isc_at(self, q, k):
        """The isomorphic-child jump at the red node that ends block q: the
        child rank, under that node's co-lex successor, of the label of its
        k-th child. The successor begins block q + 1, so the two out-sets
        are ``mask[q]`` and ``mask[q + 1]``, and the rank is the labels
        below that label in the successor's mask, plus one."""
        m, succ = self.mask[q], self.mask[q + 1]
        if not 1 <= k <= m.bit_count():
            raise IndexError(f"child rank {k} out of range for the red node of block {q}")
        for _ in range(k - 1):  # k <= sigma: clear the k - 1 lowest labels
            m &= m - 1
        below = (m & -m) - 1  # the labels below the k-th one
        if not succ & (below + 1):
            raise DomainError(f"label of child {k} missing from the successor's out-set")
        return (succ & below).bit_count() + 1

    def symbols(self):
        """Decode S' back to (kind, label) pairs; kind in {'+','-','/'}."""
        out = []
        for add, dele in self.block_deltas():
            out += [("+", c) for c in add] + [("-", c) for c in dele]
            out.append(("/", None))
        return out


def out_masks(sigma, labels, first):
    """Each block's out-set as a mask, bit c set iff label c is present,
    from S' as its toggles: ``labels`` in S' order, and ``first``, true at
    the first toggle of each block after block 0. A label is present at
    block q iff it toggled an odd number of times in blocks 0..q, so the
    mask is one running XOR of the toggled labels' bits, read at each
    block's last toggle: just before each first one, and at the end. The
    masks are an ``array`` of the narrowest unsigned typecode whose items
    hold sigma bits, or a list of ints when sigma > 64; either way
    ``mask[q]`` is an int."""
    code = typecode(sigma)
    dtype = np.dtype(code)
    nwords = -(-sigma // 64)
    labels = np.asarray(labels, dtype=np.uint8)  # codes below sigma <= 256
    ends = np.ones(len(labels) + 1, bool)  # the XOR through toggle j - 1 ends a block
    ends[:-1] = first

    def running(w):  # bits 64w.. of the labels, XORed through each block
        bits = np.zeros(len(labels) + 1, dtype)
        np.left_shift(1, labels & 63, out=bits[1:], dtype=dtype,
                      where=True if nwords == 1 else labels >> 6 == w)
        np.bitwise_xor.accumulate(bits, out=bits)
        return bits[ends]

    words = [running(w) for w in range(nwords)]
    if nwords == 1:
        masks = array(code, [0]) * len(words[0])
        np.frombuffer(masks, dtype)[:] = words[0]
        return masks
    raw = np.column_stack(words).astype("<u8").tobytes()
    step = 8 * nwords
    return [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]


class OutSets:
    """The out-label sets in co-lex order, as compressed rows.

    Row r is co-lex position r + 1: its entries ``offsets[r]:offsets[r+1]``
    hold the node's outgoing labels in ascending order (``labels``) and the
    children they lead to (``kids``); ``row`` gives each entry's row.
    ``in_prev``/``in_next`` flag the entries whose label the row before /
    after also holds, and ``change[r]`` says rows r and r + 1 differ.
    """

    __slots__ = ("offsets", "labels", "kids", "row", "in_prev", "in_next", "change")

    def __init__(self, trie, colex):
        n = trie.n
        nodes = colex.colex_to_pre[1:]
        first = trie.child_start[nodes]
        deg = trie.child_start[nodes + 1] - first
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=self.offsets[1:])
        self.row = np.repeat(np.arange(n), deg)
        self.kids = trie.child_ids[concat_ranges(first, deg)]
        self.labels = trie.label[self.kids]
        width = trie.alphabet.sigma
        key = self.row * width + self.labels  # distinct: a label once per row
        self.in_prev = np.isin(key - width, key, assume_unique=True)
        self.in_next = np.isin(key + width, key, assume_unique=True)
        missing = np.bincount(self.row[~self.in_next], minlength=n)
        self.change = (deg[:-1] != deg[1:]) | (missing[:-1] > 0)


def build_rl_xbwt(trie, colex, out=None):
    """Build the run-length XBWT from a trie and its order; ``out`` is the
    trie's :class:`OutSets`, built here if not given."""
    if out is None:
        out = OutSets(trie, colex)
    n = trie.n
    sigma = trie.alphabet.sigma
    starts = np.flatnonzero(np.concatenate(([True], out.change)))  # first row of each block
    is_start = np.zeros(n + 1, dtype=bool)
    is_start[starts] = True
    # a block's toggles: the labels its first row gains and those the row
    # before it loses. Each list is in (row, label) order, so one stable
    # sort of the keys row << 8 | label, row the block's first, merges them
    add = ~out.in_prev & is_start[out.row]
    dele = ~out.in_next & is_start[out.row + 1]
    keys = np.concatenate((out.row[add], out.row[dele] + 1)).astype(np.min_scalar_type(n << 8))
    keys <<= 8
    keys |= np.concatenate((out.labels[add], out.labels[dele])).astype(keys.dtype)
    keys.sort(kind="stable")
    blocks = np.cumsum(is_start, dtype=np.min_scalar_type(len(starts)))[keys >> 8]
    blocks -= 1  # the block whose first row each key holds
    labels = (keys & 255).astype(np.uint8)
    rlx = RlXbwt(sigma, blocks, labels, np.diff(starts, append=n))
    rlx.mask = out_masks(sigma, labels, np.diff(blocks, prepend=0) > 0)
    rlx.block_head = int_array(colex.colex_to_pre[starts + 1])
    return rlx


def xbwt_rank(rlx, c, i):
    """Number of colex positions j <= i whose out-set contains label c."""
    if i == 0:
        return 0
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise IndexError(f"label {c} out of alphabet")
    run_start = rlx.run_start[c]
    k = bisect_right(run_start, i) - 1
    if k < 0:
        return 0
    base = rlx.base[c]
    if rlx.mask[rlx.block_of(i)] >> c & 1:  # run k holds i
        return base[k] + i - run_start[k] + 1
    return base[k + 1]  # c's runs 0..k have all ended


def xbwt_successor(rlx, c, i):
    """Smallest colex position i' >= i with c in its out-set, or None."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        return None
    q = rlx.block_of(i)
    if rlx.mask[q] >> c & 1:
        return i  # the block containing i already carries c
    run_start = rlx.run_start[c]
    k = bisect_right(run_start, i)  # c's next run: none starts at i
    return run_start[k] if k < len(run_start) else None


def cr(rlx, i, c):
    """Child rank: position of label c within the out-set of colex node i."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise DomainError(f"label {c} not in alphabet")
    q = rlx.block_of(i)
    if not rlx.mask[q] >> c & 1:
        raise DomainError(f"label {c} not outgoing at colex position {i}")
    return (rlx.mask[q] & ((1 << c) - 1)).bit_count() + 1  # one plus the labels below c


def backward_extend(rlx, rng, c):
    """One backward-search step: range of P -> range of P.c, or None if empty."""
    lo, hi = rng
    if not (1 <= lo <= hi <= rlx.n):
        raise IndexError(f"range {rng} invalid for n={rlx.n}")
    if c is None or not 1 <= c < rlx.sigma:
        return None
    base = rlx.c_array[c]
    lo2 = base + xbwt_rank(rlx, c, lo - 1) + 1
    hi2 = base + xbwt_rank(rlx, c, hi)
    if lo2 > hi2:
        return None
    return (lo2, hi2)


def run_head_preorder(rlx, c, i):
    """Pre-order id of the c-run head at colex position i: the head of the
    block where a run of c starts at i."""
    run_start = rlx.run_start[c] if 1 <= c < rlx.sigma else ()
    k = bisect_left(run_start, i)
    if k == len(run_start) or run_start[k] != i:
        raise DomainError(f"colex position {i} is not a {c}-run head")
    return rlx.block_head[rlx.block_of(i)]


def reconstruct_trie(parents, c_array, alphabet):
    """The trie and its co-lex order from each of positions 2..n's parent
    co-lex position and the C array. Top-down, one level per pass, a node's
    pre-order id is its parent's + 1 + its earlier (smaller-labeled) siblings'
    subtree sizes, and the depths laid out by those ids are the trie.
    Positions sorted by (label, parent) are the co-lex order."""
    n = len(parents) + 1
    par = np.concatenate(([0, 0], parents))
    if n > 1 and (par[2:].min() < 1 or par[2:].max() > n):
        raise ValueError(f"parent position outside 1..{n}")
    depth = _depths(par)
    size = _subtree_sizes(par, depth)
    kids = np.argsort(par[2:], kind="stable") + 2  # by parent, siblings by position
    before = np.cumsum(size[kids]) - size[kids]  # sizes of the kids ahead in that order
    first = np.searchsorted(par[kids], par[kids])  # where each kid's siblings begin
    pre = np.zeros(n + 1, dtype=np.int64)  # first each node's id less its parent's
    pre[1] = 1
    pre[kids] = 1 + before - before[first]
    for level in _levels(depth)[1:]:
        pre[level] += pre[par[level]]
    pre_depth, label = np.zeros((2, n + 1), dtype=np.int64)
    pre_depth[pre] = depth
    label[pre[1:]] = np.repeat(np.arange(len(c_array) - 1), np.diff(c_array))
    return LabeledTrie(pre_depth, label, alphabet), ColexOrder(pre)
