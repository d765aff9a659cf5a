"""Run-length encoded XBWT: block triples, the S' delta sequence, and the
counting-side queries (rank over the out-label sets, run successor, child
rank, backward range extension, and the toehold step that fuses them).

The XBWT is the sequence of outgoing-label sets in co-lex node order. Blocks
are maximal runs of equal sets, each encoded as (ADD, DEL, length) against
its predecessor. S' flattens the deltas as c+/c- symbols with '/' block
separators. Queries read S' regrouped by label: per label, the blocks where
it enters and leaves the out-set and the count of its nodes before each
entry, plus the block starts; every lookup is a binary search over O(r)
words. A toehold step searches the block starts once per range end and
ranks the child with two searches per label below it. The blocks are kept
only in those tables: the node counts, the C array and the triples are
derived from them. One object, :class:`RlXbwt`, holds the tables and the
run heads' pre-order ids, O(r) words in all, and every query takes it as
its one transform argument.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .bits import concat_ranges, int_array
from .errors import DomainError
from .trie import ColexOrder, LabeledTrie, _depths, _levels, _subtree_sizes


def by_label(sigma, labels, values):
    """``values`` sorted by their labels, stably, so each label keeps its
    entries' order, and the number of values per label 0..sigma-1."""
    labels = np.asarray(labels, dtype=np.uint8)  # codes below sigma <= 256: a radix sort
    order = np.argsort(labels, kind="stable")
    return np.asarray(values, dtype=np.int64)[order], np.bincount(labels, minlength=sigma)


def per_label(values, counts):
    """Label-sorted ``values`` cut into one table per label, all at the
    width :func:`~rlxt.bits.int_array` picks for the whole: 4 bytes per
    value below 2**31. Slicing an array copies exactly its length."""
    table = int_array(values)
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    return [table[a:b] for a, b in zip(bounds, bounds[1:])]


def _in_block_order(tables):
    """The entries of per-label block tables in S' order, by block and then
    by label: (blocks, labels)."""
    labels = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
    blocks = np.concatenate(tables)
    order = np.argsort(blocks, kind="stable")
    return blocks[order], labels[order]


class RlXbwt:
    """The run-length XBWT: S' regrouped by label, answering rank,
    successor and child rank, plus the run heads' pre-order ids.

    Blocks are numbered from 0 and ``starts[q]`` is the co-lex position where
    block q begins. For each label c, ``adds[c]`` lists the blocks where c
    enters the out-set (the c+ symbols of S') and ``dels[c]`` the blocks
    where it leaves (the c- symbols). Entries and exits alternate, starting
    with an entry, so c is present in block q iff its last entry at or before
    q is not followed by an exit at or before q. All tables together hold
    |S'| = r' + sum|ADD| + sum|DEL| words.

    The rest follows from the blocks. c's k-th run spans the positions from
    its entry's block start to its exit's, or through n when it has no exit,
    and each of them has one c-child: ``base[c][k]``, the number of c-nodes
    before block ``adds[c][k]``, sums c's earlier runs, and ``c_array``
    sums every label's runs. ``triples``, ``r_prime`` and
    ``colex_parents`` are views derived from the tables.

    The c-run heads are the nodes at the starts of the blocks in
    ``adds[c]``: ``head_pre[c][k]`` is the pre-order id of the head of the
    run entering at block ``adds[c][k]``, one :func:`~rlxt.bits.int_array`
    per label (label 0, the root's, has none). They are attached once the
    tables are built, so the temporaries of the two never coexist.
    """

    __slots__ = ("n", "sigma", "starts", "adds", "dels", "base", "c_array", "head_pre")

    def __init__(self, sigma, n_add, add_labels, n_del, del_labels, lengths):
        """Per block q: ``n_add[q]`` entering and ``n_del[q]`` leaving labels
        and ``lengths[q]`` positions. ``add_labels``/``del_labels`` hold the
        labels block after block, ascending within a block (S' order). A
        ValueError says that some label's entries and exits do not alternate."""
        lengths = np.asarray(lengths, dtype=np.int64)
        ends = np.cumsum(lengths) + 1  # one past each block, n + 1 for the last
        starts = ends - lengths
        self.n = int(ends[-1]) - 1
        self.sigma = sigma
        self.starts = int_array(starts)
        blocks = np.arange(len(lengths))
        entries, n_entries = by_label(sigma, add_labels, np.repeat(blocks, n_add))
        exits, n_exits = by_label(sigma, del_labels, np.repeat(blocks, n_del))
        bad = np.flatnonzero((n_exits > n_entries) | (n_exits < n_entries - 1))
        if len(bad):
            c = int(bad[0])
            raise ValueError(f"label {c} enters the out-set {n_entries[c]} times, "
                             f"leaves {n_exits[c]}")
        # each run ends where its exit's block starts; a label still present
        # in the last block gets an exit past it
        heads = starts[entries]
        stops = np.insert(starts[exits], np.cumsum(n_exits)[n_entries > n_exits], ends[-1])
        # entries and exits alternate in distinct blocks iff, label after
        # label, every run's head and stop come in strictly increasing order
        shift = np.repeat(np.arange(sigma) * ends[-1], n_entries)
        if (np.diff(np.column_stack((heads + shift, stops + shift)).ravel()) <= 0).any():
            raise ValueError("a label's entries and exits do not alternate")
        before = np.concatenate(([0], np.cumsum(stops - heads)))
        first = np.cumsum(n_entries) - n_entries
        self.base = per_label(before[:-1] - np.repeat(before[first], n_entries), n_entries)
        self.c_array = int_array(np.concatenate(([0], before[first + n_entries] + 1)))
        self.adds = per_label(entries, n_entries)
        self.dels = per_label(exits, n_exits)
        self.head_pre = None

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
        """``{c: [(colex, preorder), ...]}`` for labels 1..sigma-1, derived
        from the per-label tables."""
        starts = self.starts
        return {c: [(starts[q], u) for q, u in zip(self.adds[c], self.head_pre[c])]
                for c in range(1, self.sigma)}

    def run_stats(self):
        """(r, per-label run counts, r')."""
        r_c = {c: len(adds) for c, adds in enumerate(self.adds) if len(adds)}
        return sum(r_c.values()), r_c, self.r_prime

    def colex_parents(self):
        """The parent co-lex position of each of positions 2..n: the k-th
        c-child hangs off the k-th position of c's runs, label after label;
        ``base`` and the C array give each run's offset among the children."""
        offsets = np.concatenate(self.base) + np.repeat(
            np.asarray(self.c_array)[:-1] - 1, [len(b) for b in self.base])
        heads = np.asarray(self.starts)[np.concatenate(self.adds)]
        return concat_ranges(heads, np.diff(offsets, append=self.n - 1))

    def deltas(self):
        """S' block by block: the ADD count per block, the ADD labels in S'
        order, then the same for DEL."""
        r = len(self.starts)
        add_blocks, add_labels = _in_block_order(self.adds)
        del_blocks, del_labels = _in_block_order(self.dels)
        return (np.bincount(add_blocks, minlength=r), add_labels,
                np.bincount(del_blocks, minlength=r), del_labels)

    def block_deltas(self):
        """``[(add, dele)]`` per block, the label tuples ascending."""
        n_add, adds, n_del, dels = self.deltas()
        adds, dels = adds.tolist(), dels.tolist()
        add_end, del_end = np.cumsum(n_add).tolist(), np.cumsum(n_del).tolist()
        return [(tuple(adds[a0:a1]), tuple(dels[d0:d1])) for a0, a1, d0, d1
                in zip([0] + add_end[:-1], add_end, [0] + del_end[:-1], del_end)]

    def delta_counts(self):
        """(sum|ADD|, sum|DEL|) over all blocks."""
        return sum(map(len, self.adds)), sum(map(len, self.dels))

    def block_of(self, i):
        """0-based block containing co-lex position i."""
        return bisect_right(self.starts, i) - 1

    def symbols(self):
        """Decode S' back to (kind, label) pairs; kind in {'+','-','/'}."""
        out = []
        for add, dele in self.block_deltas():
            out += [("+", c) for c in add] + [("-", c) for c in dele]
            out.append(("/", None))
        return out


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
    add = ~out.in_prev & is_start[out.row]  # labels a block gains
    dele = ~out.in_next & is_start[out.row + 1]  # labels the row before a block loses
    add_labels = out.labels[add]
    rlx = RlXbwt(sigma, np.bincount(out.row[add], minlength=n)[starts], add_labels,
                 np.bincount(out.row[dele] + 1, minlength=n + 1)[starts],
                 out.labels[dele], np.diff(starts, append=n))
    # a block's entering labels are the run heads; group them by label
    rlx.head_pre = per_label(*by_label(sigma, add_labels, colex.colex_to_pre[out.row[add] + 1]))
    return rlx


def xbwt_rank(rlx, c, i):
    """Number of colex positions j <= i whose out-set contains label c."""
    if i == 0:
        return 0
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise IndexError(f"label {c} out of alphabet")
    adds = rlx.adds[c]
    q = rlx.block_of(i)
    k = bisect_right(adds, q) - 1
    if k < 0:
        return 0
    dels = rlx.dels[c]
    if k < len(dels) and dels[k] <= q:
        i = rlx.starts[dels[k]] - 1  # c left before block q; count up to its exit
    return rlx.base[c][k] + i - rlx.starts[adds[k]] + 1


def xbwt_successor(rlx, c, i):
    """Smallest colex position i' >= i with c in its out-set, or None."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        return None
    q = rlx.block_of(i)
    adds = rlx.adds[c]
    k = bisect_right(adds, q)
    if k > bisect_right(rlx.dels[c], q):
        return i  # the block containing i already carries c
    return rlx.starts[adds[k]] if k < len(adds) else None


def cr(rlx, i, c):
    """Child rank: position of label c within the out-set of colex node i."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise DomainError(f"label {c} not in alphabet")
    q = rlx.block_of(i)
    if bisect_right(rlx.adds[c], q) == bisect_right(rlx.dels[c], q):
        raise DomainError(f"label {c} not outgoing at colex position {i}")
    return _child_rank(rlx, q, c)


def _child_rank(rlx, q, c):
    """Rank of label c among the out-labels of block q, which holds c: one
    plus the labels d < c present there. Entries and exits alternate, so a
    label is present at q iff more of its entries than its exits lie at or
    before q."""
    adds, dels = rlx.adds, rlx.dels
    k = 1
    for d in range(1, c):
        k += bisect_right(adds[d], q) - bisect_right(dels[d], q)
    return k


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


def toehold_step(rlx, rng, c):
    """One toehold step: ``backward_extend``, ``xbwt_successor``,
    ``run_head_preorder`` and ``cr`` fused, with one block search per range
    end. Returns ``((lo2, hi2), head, k)``, or None if P.c matches nothing:
    the first node of the new range is child k of ``head``, the pre-order id
    of the c-run head at the successor i of lo, or of the range's own first
    node when ``head`` is None (i = lo). Run heads and child ranks are read
    at a block that holds c by construction, so neither is checked again."""
    lo, hi = rng
    if not (1 <= lo <= hi <= rlx.n):
        raise IndexError(f"range {rng} invalid for n={rlx.n}")
    if c is None or not 1 <= c < rlx.sigma:
        return None
    starts, adds, dels, base = rlx.starts, rlx.adds[c], rlx.dels[c], rlx.base[c]
    q = bisect_right(starts, lo) - 1
    k = bisect_right(adds, q) - 1
    if k >= 0 and (k >= len(dels) or dels[k] > q):  # c present at lo: i = lo
        head = None
        lo2 = base[k] + lo - starts[adds[k]] + 1
    else:  # i heads c's next run, if it starts within the range
        k += 1
        if k == len(adds) or starts[adds[k]] > hi:
            return None
        q = adds[k]
        head = rlx.head_pre[c][k]
        lo2 = base[k] + 1
    # rank of c through hi; its run, at or after k, starts at or before hi
    qh = bisect_right(starts, hi) - 1
    kh = bisect_right(adds, qh, k) - 1
    if kh < len(dels) and dels[kh] <= qh:
        hi = starts[dels[kh]] - 1  # c left before hi's block; count up to its exit
    cc = rlx.c_array[c]
    return (cc + lo2, cc + base[kh] + hi - starts[adds[kh]] + 1), head, _child_rank(rlx, q, c)


def run_head_preorder(rlx, c, i):
    """Pre-order id of the c-run head at colex position i: the run that
    enters at the block starting at i."""
    adds = rlx.adds[c] if 1 <= c < rlx.sigma else ()
    q = rlx.block_of(i)
    k = bisect_left(adds, q)
    if k == len(adds) or adds[k] != q or rlx.starts[q] != i:
        raise DomainError(f"colex position {i} is not a {c}-run head")
    return rlx.head_pre[c][k]


def reconstruct_trie(parents, c_array, alphabet):
    """The trie and its co-lex order from each of positions 2..n's parent
    co-lex position and the C array. Top-down, one level per pass, a node's
    pre-order id is its parent's + 1 + its earlier (smaller-labeled) siblings'
    subtree sizes. Positions sorted by (label, parent) are the co-lex order."""
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
    parent, label = np.zeros((2, n + 1), dtype=np.int64)
    parent[pre] = pre[par]
    label[pre[1:]] = np.repeat(np.arange(len(c_array) - 1), np.diff(c_array))
    return LabeledTrie(parent, label, alphabet), ColexOrder(pre)
