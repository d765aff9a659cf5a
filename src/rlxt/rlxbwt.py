"""Run-length encoded XBWT: block triples, the S' delta sequence, and the
counting-side queries (rank over the out-label sets, run successor, child
rank, backward range extension).

The XBWT is the sequence of outgoing-label sets in co-lex node order. Blocks
are maximal runs of equal sets, each encoded as (ADD, DEL, length) against
its predecessor. S' flattens the deltas as c+/c- symbols with '/' block
separators; a wavelet sequence over S' plus O(r) sampled partial ranks
answers rank/successor/child-rank without touching the full transform.
"""

from __future__ import annotations

import numpy as np

from .bits import SparseBitVec, WaveletSeq
from .errors import DomainError


class RlXbwt:
    """Block triples plus the supporting arrays.

    ``triples[q] = (add, dele, length)`` with label-code tuples sorted
    ascending. ``c_array[c]`` counts nodes whose incoming label precedes c,
    so the co-lex positions with incoming label c are
    ``c_array[c]+1 .. c_array[c+1]``. ``run_heads[c]`` holds (colex, preorder)
    pairs for every position starting a c-run.
    """

    __slots__ = ("n", "sigma", "triples", "block_starts", "c_array", "run_heads")

    def __init__(self, n, sigma, triples, block_starts, c_array, run_heads):
        self.n = n
        self.sigma = sigma
        self.triples = triples
        self.block_starts = block_starts
        self.c_array = c_array
        self.run_heads = run_heads

    @property
    def r_prime(self):
        return len(self.triples)

    def run_stats(self):
        """(r, per-label run counts, r')."""
        r_c = {c: len(heads) for c, heads in self.run_heads.items() if len(heads)}
        return sum(r_c.values()), r_c, self.r_prime

    def block_of(self, i):
        """1-based block number containing colex position i."""
        return self.block_starts.rank1(i)

    def block_start(self, q):
        return self.block_starts.select1(q)

    def block_out_sets(self):
        """Unroll the triples into the per-block out-label sets."""
        sets = []
        cur = set()
        for add, dele, _ln in self.triples:
            cur = (cur - set(dele)) | set(add)
            sets.append(tuple(sorted(cur)))
        return sets


class SPrimeIndex:
    """Wavelet sequence over S' plus the partial rank samples.

    Symbol codes over an edge alphabet of m = sigma-1 labels:
    ``c- -> c-1``, ``c+ -> m + c - 1``, ``/ -> 2m``; this realizes the
    required order (all minus, then all plus, then the separator).
    ``partials[k]`` stores, for the k-th plus-symbol occurrence in S', the
    number of c-nodes strictly before that occurrence's block.
    """

    __slots__ = ("m", "wavelet", "partials")

    def __init__(self, m, wavelet, partials):
        self.m = m
        self.wavelet = wavelet
        self.partials = partials

    def minus(self, c):
        return c - 1

    def plus(self, c):
        return self.m + c - 1

    @property
    def slash(self):
        return 2 * self.m

    def symbols(self):
        """Decode S' back to (kind, label) pairs; kind in {'+','-','/'}."""
        out = []
        for p in range(1, len(self.wavelet) + 1):
            s = self.wavelet.access(p)
            if s == self.slash:
                out.append(("/", None))
            elif s >= self.m:
                out.append(("+", s - self.m + 1))
            else:
                out.append(("-", s + 1))
        return out


def build_rl_xbwt(trie, colex):
    """Build the block triples and the S' index from a trie and its order."""
    n = trie.n
    sigma = trie.alphabet.sigma
    out_sets = [tuple(int(c) for c in trie.out_labels(int(colex.colex_to_pre[i])))
                for i in range(1, n + 1)]
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
    block_starts = SparseBitVec(n, starts)

    counts = np.zeros(sigma + 1, dtype=np.int64)
    for u in range(1, n + 1):
        counts[trie.label[u] + 1] += 1
    c_array = np.cumsum(counts)  # c_array[c] = nodes with incoming label < c

    run_heads = {c: [] for c in range(1, sigma)}
    for q, (add, _dele, _ln) in enumerate(triples):
        s = starts[q]
        for c in add:
            run_heads[c].append((s, int(colex.colex_to_pre[s])))

    m = sigma - 1
    symbols = []
    partials = []
    cum = np.zeros(sigma, dtype=np.int64)  # nodes with label c in the processed prefix
    for q, (add, dele, ln) in enumerate(triples):
        s = starts[q]
        for c in add:
            symbols.append(m + c - 1)
            partials.append(int(cum[c]))
        for c in dele:
            symbols.append(c - 1)
        symbols.append(2 * m)
        for c in out_sets[s - 1]:
            cum[c] += ln
    wavelet = WaveletSeq(symbols, 2 * m + 1 if m else 1)
    spi = SPrimeIndex(m, wavelet, np.asarray(partials, dtype=np.int64))
    rlx = RlXbwt(n, sigma, triples, block_starts, c_array,
                 {c: heads for c, heads in run_heads.items()})
    return rlx, spi


def _last_sym_before(spi, sym, j):
    """Position of the last occurrence of sym at position <= j, or 0."""
    k = spi.wavelet.rank(sym, j)
    if k == 0:
        return 0
    return spi.wavelet.select(sym, k)


def xbwt_rank(spi, rlx, c, i):
    """Number of colex positions j <= i whose out-set contains label c."""
    if i == 0:
        return 0
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise IndexError(f"label {c} out of alphabet")
    b = rlx.block_of(i)
    j = spi.wavelet.select(spi.slash, b)
    pos_plus = _last_sym_before(spi, spi.plus(c), j)
    if pos_plus == 0:
        return 0
    pos_minus = _last_sym_before(spi, spi.minus(c), j)
    if pos_plus > pos_minus:
        i_eff = i
    else:
        # c is absent from the blocks after that minus; clamp to just before them
        b_minus = spi.wavelet.rank(spi.slash, pos_minus) + 1
        i_eff = rlx.block_start(b_minus) - 1
    b_plus = spi.wavelet.rank(spi.slash, pos_plus) + 1
    s = rlx.block_start(b_plus)
    k = spi.wavelet.range_rank(spi.plus(1), spi.plus(rlx.sigma - 1), pos_plus)
    return int(spi.partials[k - 1]) + (i_eff - s) + 1


def xbwt_successor(spi, rlx, c, i):
    """Smallest colex position i' >= i with c in its out-set, or None."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        return None
    b = rlx.block_of(i)
    j = spi.wavelet.select(spi.slash, b)
    pos_plus = _last_sym_before(spi, spi.plus(c), j)
    pos_minus = _last_sym_before(spi, spi.minus(c), j)
    if pos_plus > pos_minus:
        return i  # the block containing i already carries c
    k = spi.wavelet.rank(spi.plus(c), j)
    try:
        nxt = spi.wavelet.select(spi.plus(c), k + 1)
    except IndexError:
        return None
    b_next = spi.wavelet.rank(spi.slash, nxt) + 1
    return rlx.block_start(b_next)


def cr(spi, rlx, i, c):
    """Child rank: position of label c within the out-set of colex node i."""
    if not 1 <= i <= rlx.n:
        raise IndexError(f"colex position {i} out of range 1..{rlx.n}")
    if not 1 <= c < rlx.sigma:
        raise DomainError(f"label {c} not in alphabet")
    b = rlx.block_of(i)
    j = spi.wavelet.select(spi.slash, b)
    pos_plus = _last_sym_before(spi, spi.plus(c), j)
    pos_minus = _last_sym_before(spi, spi.minus(c), j)
    if pos_plus <= pos_minus or pos_plus == 0:
        raise DomainError(f"label {c} not outgoing at colex position {i}")
    plus_cnt = spi.wavelet.range_rank(spi.plus(1), spi.plus(c), j)
    minus_cnt = spi.wavelet.range_rank(spi.minus(1), spi.minus(c), j)
    return plus_cnt - minus_cnt


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
    heads = rlx.run_heads.get(c)
    if not heads:
        raise DomainError(f"no runs for label {c}")
    import bisect

    k = bisect.bisect_left(heads, (i, -1))
    if k == len(heads) or heads[k][0] != i:
        raise DomainError(f"colex position {i} is not a {c}-run head")
    return heads[k][1]


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
