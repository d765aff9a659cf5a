"""Sampling-based locate over the plain (uncompressed) XBWT.

This is the comparison foil for the run-length index: navigation works on a
wavelet sequence over the flattened out-label sets, locate converts a co-lex
position to its pre-order id via a tree cover of parameter t. Roots of the
cover are sampled (pre-order id + complete-subtree size, partial-summed in
co-lex order); non-sampled positions walk up to their cover root and replay
a pre-order visit, skipping over foreign cover components using the size
sums.
"""

from __future__ import annotations

import numpy as np

from .bits import SparseBitVec, WaveletSeq
from .errors import DomainError
from .rlxbwt import OutSets
from .trie import colex_sort


class XbwtNav:
    """Parent/child navigation in co-lex coordinates on the flat XBWT."""

    __slots__ = ("n", "sigma", "wavelet", "flat", "node_end", "c_array")

    def __init__(self, n, sigma, wavelet, flat, node_end):
        self.n = n
        self.sigma = sigma
        self.wavelet = wavelet
        self.flat = flat  # raw label sequence; the wavelet is the query structure
        self.node_end = node_end  # node_end[i] = total out-degree of colex 1..i
        # c_array[c] = nodes with incoming label < c: the root plus flat's labels below c
        self.c_array = np.concatenate(([0], 1 + np.cumsum(np.bincount(flat, minlength=sigma))))

    @classmethod
    def from_trie(cls, trie, colex):
        out = OutSets(trie, colex)
        wavelet = WaveletSeq(out.labels, trie.alphabet.sigma)
        return cls(trie.n, trie.alphabet.sigma, wavelet, out.labels, out.offsets)

    def colex_parents(self):
        """The parent co-lex position of positions 2..n: flat's rows, stably by label."""
        rows = np.repeat(np.arange(1, self.n + 1), np.diff(self.node_end))
        return rows[np.argsort(self.flat, kind="stable")]

    def label_of(self, i):
        """Incoming label of colex node i (the Lambda sequence is sorted)."""
        return int(np.searchsorted(self.c_array, i - 1, side="right")) - 1

    def out_labels(self, i):
        lo, hi = int(self.node_end[i - 1]), int(self.node_end[i])
        return [int(c) for c in self.flat[lo:hi]]

    def xbwt_parent(self, i):
        if i == 1:
            raise DomainError("the root has no parent")
        if not 1 <= i <= self.n:
            raise IndexError(f"colex position {i} out of range")
        c = self.label_of(i)
        q = i - int(self.c_array[c])
        p = self.wavelet.select(c, q)
        return int(np.searchsorted(self.node_end[1:], p, side="left")) + 1

    def xbwt_child(self, i, c):
        if not 1 <= i <= self.n:
            raise IndexError(f"colex position {i} out of range")
        if not 1 <= c < self.sigma:
            raise DomainError(f"label {c} out of alphabet")
        before = self.wavelet.rank(c, int(self.node_end[i - 1]))
        here = self.wavelet.rank(c, int(self.node_end[i])) - before
        if here != 1:
            raise DomainError(f"label {c} not outgoing at colex position {i}")
        return int(self.c_array[c]) + before + 1

    def backward_extend(self, rng, c):
        lo, hi = rng
        if c is None or not 1 <= c < self.sigma:
            return None
        base = int(self.c_array[c])
        lo2 = base + self.wavelet.rank(c, int(self.node_end[lo - 1])) + 1
        hi2 = base + self.wavelet.rank(c, int(self.node_end[hi]))
        if lo2 > hi2:
            return None
        return (lo2, hi2)


class TreeCover:
    """Greedy bottom-up cover: components close once they reach t nodes,
    promoting the current node to a root shared with its parent's component.
    Components stay within 2t-1 nodes; roots number at most ~2n/t."""

    __slots__ = ("t", "roots", "component_sizes")

    def __init__(self, t, roots, component_sizes):
        self.t = t
        self.roots = roots
        self.component_sizes = component_sizes

    @classmethod
    def from_trie(cls, trie, t):
        if not 1 <= t <= trie.n:
            raise DomainError(f"cover parameter t={t} out of range 1..{trie.n}")
        n = trie.n
        roots = set()
        sizes = []
        contrib = np.ones(n + 1, dtype=np.int64)
        for u in range(n, 0, -1):
            acc = 1
            for ch in trie.children(u):
                c = int(contrib[ch])
                if acc + c >= t:
                    roots.add(u)
                    sizes.append(acc + c)
                    acc = 1
                else:
                    acc += c
            if u == 1:
                if acc > 1 or 1 not in roots:
                    sizes.append(acc)
                roots.add(1)
            elif acc >= t:
                roots.add(u)
                sizes.append(acc)
                acc = 1
            contrib[u] = acc
        return cls(t, roots, sizes)


class SampledLocate:
    """Cover-root samples aligned to marked co-lex positions."""

    __slots__ = ("nav", "marked", "samples", "psums", "alphabet", "t")

    def __init__(self, nav, marked, samples, psums, alphabet, t):
        self.nav = nav
        self.marked = marked
        self.samples = samples
        self.psums = psums
        self.alphabet = alphabet
        self.t = t

    @classmethod
    def build(cls, trie, colex, t):
        nav = XbwtNav.from_trie(trie, colex)
        cover = TreeCover.from_trie(trie, t)
        size = trie.subtree_sizes()
        root_colex = sorted(int(colex.pre_to_colex[u]) for u in cover.roots)
        marked = SparseBitVec(trie.n, root_colex)
        samples = colex.colex_to_pre[root_colex]
        psums = np.concatenate(([0], np.cumsum(size[samples])))
        return cls(nav, marked, samples, psums, trie.alphabet, t), cover

    def _root_sample(self, i):
        k = self.marked.rank1(i)
        return int(self.samples[k - 1])

    def _size_of_marked(self, i):
        k = self.marked.rank1(i)
        return int(self.psums[k] - self.psums[k - 1])

    def sampled_preorder(self, i):
        """Pre-order id of colex node i via the cover root and a replayed
        pre-order visit with size skips."""
        if not 1 <= i <= self.nav.n:
            raise IndexError(f"colex position {i} out of range")
        if self.marked.contains(i):
            return self._root_sample(i)
        k = i
        while not self.marked.contains(k):
            k = self.nav.xbwt_parent(k)
        pre = self._root_sample(k)
        # pre-order DFS from the cover root; entering a non-root child costs
        # +1, a foreign cover component is skipped with its complete size
        stack = [(k, self.nav.out_labels(k), 0)]
        while stack:
            node, labels, idx = stack.pop()
            while idx < len(labels):
                ch = self.nav.xbwt_child(node, labels[idx])
                idx += 1
                if self.marked.contains(ch):
                    pre += self._size_of_marked(ch)
                    continue
                pre += 1
                if ch == i:
                    return pre
                stack.append((node, labels, idx))
                stack.append((ch, self.nav.out_labels(ch), 0))
                break
        raise AssertionError(f"colex {i} not found in its cover component")

    def search_range(self, pattern):
        codes = self.alphabet.encode(pattern)
        if codes is None:
            return None
        rng = (1, self.nav.n)
        for c in codes:
            rng = self.nav.backward_extend(rng, c)
            if rng is None:
                return None
        return rng

    def count(self, pattern):
        rng = self.search_range(pattern)
        return 0 if rng is None else rng[1] - rng[0] + 1

    def locate(self, pattern):
        rng = self.search_range(pattern)
        if rng is None:
            return []
        return [self.sampled_preorder(i) for i in range(rng[0], rng[1] + 1)]


def build_sampled(trie, colex=None, t=None):
    if colex is None:
        colex = colex_sort(trie)
    if t is None:
        t = max(1, int(np.sqrt(trie.n)))
    sl, _cover = SampledLocate.build(trie, colex, t)
    return sl
