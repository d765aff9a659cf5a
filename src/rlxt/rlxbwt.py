"""Run-length encoded XBWT: block triples, the S' delta sequence, and the
counting-side queries (rank over the out-label sets, run successor, child
rank, backward range extension).

The XBWT is the sequence of outgoing-label sets in co-lex node order. Blocks
are maximal runs of equal sets, each encoded as (ADD, DEL, length) against
its predecessor. S' flattens the deltas as c+/c- symbols with '/' block
separators. Queries read S' regrouped by label: per label, the blocks where
it enters and leaves the out-set and the count of its nodes before each
entry, plus the block starts; every lookup is a binary search over O(r)
words.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

import numpy as np

from .bits import int64_array
from .errors import DomainError


class RlXbwt:
    """Block triples plus the supporting arrays.

    ``triples[q] = (add, dele, length)`` with label-code tuples sorted
    ascending. ``c_array[c]`` counts nodes whose incoming label precedes c,
    so the co-lex positions with incoming label c are
    ``c_array[c]+1 .. c_array[c+1]``. For every co-lex position starting a
    c-run, ``head_colex[c]`` holds the position and ``head_pre[c]`` the
    pre-order id of its node: two parallel ``array('q')`` per label, sorted
    by position (label 0, the root's, has none).
    """

    __slots__ = ("n", "sigma", "triples", "c_array", "head_colex", "head_pre")

    def __init__(self, n, sigma, triples, c_array, head_colex, head_pre):
        self.n = n
        self.sigma = sigma
        self.triples = triples
        self.c_array = c_array
        self.head_colex = head_colex
        self.head_pre = head_pre

    @property
    def r_prime(self):
        return len(self.triples)

    @property
    def run_heads(self):
        """``{c: [(colex, preorder), ...]}`` for labels 1..sigma-1, derived
        from the per-label tables."""
        return {c: list(zip(self.head_colex[c], self.head_pre[c]))
                for c in range(1, self.sigma)}

    def run_stats(self):
        """(r, per-label run counts, r')."""
        r_c = {c: len(cols) for c, cols in enumerate(self.head_colex) if len(cols)}
        return sum(r_c.values()), r_c, self.r_prime

    def block_out_sets(self):
        """Unroll the triples into the per-block out-label sets."""
        sets = []
        cur = set()
        for add, dele, _ln in self.triples:
            cur = (cur - set(dele)) | set(add)
            sets.append(tuple(sorted(cur)))
        return sets


class SPrimeIndex:
    """S' regrouped by label, answering rank, successor and child rank.

    Blocks are numbered from 0 and ``starts[q]`` is the co-lex position where
    block q begins. For each label c, ``adds[c]`` lists the blocks where c
    enters the out-set (the c+ symbols of S'), ``dels[c]`` the blocks where
    it leaves (the c- symbols), and ``base[c][k]`` the number of c-nodes
    before block ``adds[c][k]``. Entries and exits alternate, starting with
    an entry, so c is present in block q iff its last entry at or before q
    is not followed by an exit at or before q. All tables together hold
    |S'| = r' + sum|ADD| + sum|DEL| words.
    """

    __slots__ = ("starts", "adds", "dels", "base")

    def __init__(self, sigma, triples, partials):
        """``partials`` holds the c-node counts of the c+ symbols in S' order."""
        self.starts = array("q")
        self.adds = [array("q") for _ in range(sigma)]
        self.dels = [array("q") for _ in range(sigma)]
        self.base = [array("q") for _ in range(sigma)]
        counts = iter(partials)
        s = 1
        for q, (add, dele, ln) in enumerate(triples):
            self.starts.append(s)
            s += ln
            for c in add:
                self.adds[c].append(q)
                self.base[c].append(next(counts))
            for c in dele:
                self.dels[c].append(q)

    def _by_block(self):
        """Per block, its (label, base) entries and its exiting labels,
        each in ascending label order as in S'."""
        adds = [[] for _ in self.starts]
        dels = [[] for _ in self.starts]
        for c in range(len(self.adds)):
            for q, b in zip(self.adds[c], self.base[c]):
                adds[q].append((c, b))
            for q in self.dels[c]:
                dels[q].append(c)
        return adds, dels

    @property
    def partials(self):
        """The c-node counts of the c+ symbols, in S' order (as stored)."""
        adds, _ = self._by_block()
        return [b for entries in adds for _, b in entries]

    def block_of(self, i):
        """0-based block containing co-lex position i."""
        return bisect_right(self.starts, i) - 1

    def entry(self, c, q):
        """Index into ``adds[c]`` of c's entry whose run covers block q, or -1."""
        k = bisect_right(self.adds[c], q) - 1
        if k < 0:
            return -1
        dels = self.dels[c]
        return -1 if k < len(dels) and dels[k] <= q else k

    def symbols(self):
        """Decode S' back to (kind, label) pairs; kind in {'+','-','/'}."""
        out = []
        for entries, exits in zip(*self._by_block()):
            out += [("+", c) for c, _ in entries] + [("-", c) for c in exits]
            out.append(("/", None))
        return out


def build_rl_xbwt(trie, colex):
    """Build the block triples and the S' index from a trie and its order."""
    n = trie.n
    sigma = trie.alphabet.sigma
    labels = trie.label[trie.child_ids].tolist()  # grouped by parent, ascending
    child_start = trie.child_start.tolist()
    out_sets = [tuple(labels[child_start[u] : child_start[u + 1]])
                for u in colex.colex_to_pre[1 : n + 1].tolist()]
    triples = []
    starts = []
    prev = ()
    i = 1
    while i <= n:
        cur = out_sets[i - 1]
        j = i
        while j < n and out_sets[j] == cur:
            j += 1
        add = tuple(sorted(set(cur) - set(prev)))
        dele = tuple(sorted(set(prev) - set(cur)))
        triples.append((add, dele, j - i + 1))
        starts.append(i)
        prev = cur
        i = j + 1

    counts = np.bincount(trie.label[1 : n + 1] + 1, minlength=sigma + 1)
    c_array = np.cumsum(counts)  # c_array[c] = nodes with incoming label < c

    head_colex = [[] for _ in range(sigma)]
    head_pre = [[] for _ in range(sigma)]
    for q, (add, _dele, _ln) in enumerate(triples):
        s = starts[q]
        for c in add:
            head_colex[c].append(s)
            head_pre[c].append(int(colex.colex_to_pre[s]))

    partials = []
    cum = [0] * sigma  # nodes with label c in the processed prefix
    for q, (add, _dele, ln) in enumerate(triples):
        partials.extend(cum[c] for c in add)
        for c in out_sets[starts[q] - 1]:
            cum[c] += ln
    spi = SPrimeIndex(sigma, triples, partials)
    rlx = RlXbwt(n, sigma, triples, c_array, [int64_array(h) for h in head_colex],
                 [int64_array(h) for h in head_pre])
    return rlx, spi


def xbwt_rank(spi, rlx, c, i):
    """Number of colex positions j <= i whose out-set contains label c."""
    if i == 0:
        return 0
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise IndexError(f"label {c} out of alphabet")
    adds = spi.adds[c]
    q = spi.block_of(i)
    k = bisect_right(adds, q) - 1
    if k < 0:
        return 0
    dels = spi.dels[c]
    if k < len(dels) and dels[k] <= q:
        i = spi.starts[dels[k]] - 1  # c left before block q; count up to its exit
    return spi.base[c][k] + i - spi.starts[adds[k]] + 1


def xbwt_successor(spi, rlx, c, i):
    """Smallest colex position i' >= i with c in its out-set, or None."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        return None
    q = spi.block_of(i)
    if spi.entry(c, q) >= 0:
        return i  # the block containing i already carries c
    adds = spi.adds[c]
    k = bisect_right(adds, q)
    return spi.starts[adds[k]] if k < len(adds) else None


def cr(spi, rlx, i, c):
    """Child rank: position of label c within the out-set of colex node i."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise DomainError(f"label {c} not in alphabet")
    q = spi.block_of(i)
    if spi.entry(c, q) < 0:
        raise DomainError(f"label {c} not outgoing at colex position {i}")
    return sum(1 for d in range(1, c + 1) if spi.entry(d, q) >= 0)


def backward_extend(rlx, spi, rng, c):
    """One backward-search step: range of P -> range of P.c, or None if empty."""
    lo, hi = rng
    if not (1 <= lo <= hi <= rlx.n):
        raise IndexError(f"range {rng} invalid for n={rlx.n}")
    if c is None or not 1 <= c < rlx.sigma:
        return None
    base = int(rlx.c_array[c])
    lo2 = base + xbwt_rank(spi, rlx, c, lo - 1) + 1
    hi2 = base + xbwt_rank(spi, rlx, c, hi)
    if lo2 > hi2:
        return None
    return (lo2, hi2)


def run_head_preorder(rlx, c, i):
    """Pre-order id of the c-run head at colex position i (stored table)."""
    cols = rlx.head_colex[c] if 1 <= c < rlx.sigma else None
    if not cols:
        raise DomainError(f"no runs for label {c}")
    k = bisect_left(cols, i)
    if k == len(cols) or cols[k] != i:
        raise DomainError(f"colex position {i} is not a {c}-run head")
    return rlx.head_pre[c][k]


def reconstruct_out_sets(rlx):
    """Per-colex-position out-sets unrolled from the triples."""
    out = []
    block_sets = rlx.block_out_sets()
    for (add, dele, ln), s in zip(rlx.triples, block_sets):
        out.extend([s] * ln)
    return out


def reconstruct_trie(rlx, byte_of_code):
    """Rebuild the full trie from the transform (used when loading an index)."""
    return reconstruct_trie_from_outsets(
        rlx.n, rlx.sigma, reconstruct_out_sets(rlx), rlx.c_array, byte_of_code
    )


def reconstruct_trie_from_outsets(n, sigma, out_sets, c_array, byte_of_code):
    """Shared reconstruction: colex out-sets + C array -> LabeledTrie."""
    from .trie import LabeledTrie, Alphabet

    lam = np.zeros(n + 1, dtype=np.int64)
    for c in range(1, sigma):
        lam[c_array[c] + 1 : c_array[c + 1] + 1] = c
    children_of = [[] for _ in range(n + 1)]
    seen = np.zeros(sigma, dtype=np.int64)
    for i in range(1, n + 1):
        for c in out_sets[i - 1]:
            seen[c] += 1
            children_of[i].append((c, int(c_array[c] + seen[c])))
    parent = [0, 0]
    labels = [0, 0]
    stack = [(child, 1, c) for c, child in reversed(children_of[1])]
    while stack:
        i, par, c = stack.pop()
        uid = len(parent)
        parent.append(par)
        labels.append(c)
        for cc, child in reversed(children_of[i]):
            stack.append((child, uid, cc))
    alphabet = Alphabet.__new__(Alphabet)
    alphabet.byte_of_code = np.asarray(byte_of_code, dtype=np.int64)
    alphabet.code_of_byte = {int(b): k for k, b in enumerate(byte_of_code) if k > 0}
    return LabeledTrie(parent, labels, alphabet)
