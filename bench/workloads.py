"""Seeded corpus and pattern generators for the benchmark workloads.

Each generator returns the Format A corpus (a list of byte lines) and the
pattern list. The library sees only these bytes; nothing here imports rlxt,
so a change under ``src/`` or ``tests/`` cannot change the inputs.
"""

from __future__ import annotations

import random
import string
from typing import Callable, NamedTuple

from oracle import ReversedPrefixOracle

LOWER = string.ascii_lowercase.encode()
ACGT = b"acgt"


def _random_words(rng, count, lo, hi):
    """``count`` distinct random words; word k has length lo + k mod (hi-lo+1),
    so the lengths are the same for every seed."""
    words = set()
    k = 0
    while len(words) < count:
        words.add(bytes(rng.choice(LOWER) for _ in range(lo + k % (hi - lo + 1))))
        k += 1
    return sorted(words)


def _edit_word(rng, word):
    """One substitution, insertion or deletion at a random position."""
    k = rng.randrange(len(word))
    op = rng.randrange(3)
    if op == 0:
        return word[:k] + bytes([rng.choice(LOWER)]) + word[k + 1:]
    if op == 1:
        return word[:k] + bytes([rng.choice(LOWER)]) + word[k:]
    if len(word) > 2:
        return word[:k] + word[k + 1:]
    return word + bytes([rng.choice(LOWER)])


def _stratified(candidates, quotas, occurrences):
    """``quotas[m]`` candidates of each length m: the middle ones of as many
    equal-size strata of the candidates of that length sorted by
    occurrences. Query time grows with both, so their spread is nearly the
    same for every seed."""
    out = []
    for m, quota in quotas.items():
        ordered = sorted((c for c in candidates if len(c) == m), key=lambda c: (occurrences(c), c))
        out += [ordered[(2 * k + 1) * len(ordered) // (2 * quota)] for k in range(quota)]
    return out


def _substrings(rng, lines, draws, lo, hi):
    """The distinct substrings of ``lo..hi`` bytes among ``draws`` random
    draws from the corpus; a pool many times larger than the pattern set,
    so that its spread of occurrence counts hardly depends on the seed."""
    subs = set()
    for _ in range(draws):
        line = rng.choice(lines)
        m = min(rng.randint(lo, hi), len(line))
        k = rng.randrange(len(line) - m + 1)
        subs.add(line[k:k + m])
    return sorted(subs)


def _spread_lengths(rng, lines, count, lo, hi, occurrences, pool=16):
    """``count`` substrings with lengths spread evenly over ``lo..hi``, each
    the median by occurrences of ``pool`` random substrings of its length,
    so that the lengths and the occurrences are nearly the same for every
    seed."""
    out = []
    for k in range(count):
        m = lo + (hi - lo) * k // max(count - 1, 1)
        cands = set()
        for _ in range(pool):
            line = rng.choice(lines)
            j = rng.randrange(len(line) - m + 1)
            cands.add(line[j:j + m])
        ordered = sorted(cands, key=lambda c: (occurrences(c), c))
        out.append(ordered[len(ordered) // 2])
    return out


def versioned_dict(seed, scale):
    """Lightly edited versions of one word list, each under a short prefix.

    ``words`` base words of 4..10 letters; ``versions`` versions, each
    derived from the previous one by editing ``edit_rate`` of its words
    (chosen at random, the same number in every version).
    Line ``v`` + version number + ``/`` + word. Patterns are substrings of
    the corpus: a quarter of 2 bytes, the rest of 3 and 4 bytes in halves.
    """
    rng = random.Random(f"versioned-dict/{seed}")
    words, versions, edit_rate, npat = scale
    cur = _random_words(rng, words, 4, 10)
    lines = []
    for v in range(versions):
        if v:
            for k in rng.sample(range(words), round(edit_rate * words)):
                cur[k] = _edit_word(rng, cur[k])
        lines.extend(b"v%02d/" % v + w for w in cur)
    oracle = ReversedPrefixOracle(lines)
    cands = [p for p in _substrings(rng, lines, 16 * npat, 2, 4) if b"/" not in p]
    quotas = {2: npat // 4, 3: 3 * npat // 8}
    quotas[4] = npat - quotas[2] - quotas[3]
    pats = _stratified(cands, quotas, oracle.count)
    rng.shuffle(pats)
    return lines, pats, oracle


def deep_lines(seed, scale):
    """Long ``acgt`` lines repeated in versions with point mutations.

    ``nlines`` lines of ``length`` symbols; each of ``versions`` versions
    copies the previous one and substitutes ``mutations`` symbols per line.
    Within a version, the k-th mutation of the lines falls in a different
    ``length / nlines`` stretch for every line, so the trie's size and
    branching are nearly the same for every seed. Patterns are 16..64
    symbols: half are substrings of the corpus, half the same with the last
    byte changed so that they occur nowhere.
    """
    rng = random.Random(f"deep-lines/{seed}")
    nlines, length, versions, mutations, npat = scale
    cur = [bytearray(rng.choice(ACGT) for _ in range(length)) for _ in range(nlines)]
    lines = []
    for v in range(versions):
        if v:
            for _ in range(mutations):
                strata = list(range(nlines))
                rng.shuffle(strata)
                for line, st in zip(cur, strata):
                    k = rng.randrange(st * length // nlines, (st + 1) * length // nlines)
                    line[k] = rng.choice([b for b in ACGT if b != line[k]])
        lines.extend(bytes(line) for line in cur)
    oracle = ReversedPrefixOracle(lines)
    present = _spread_lengths(rng, lines, npat // 2, 16, 64, oracle.count)
    absent = []
    for p in present:
        for b in rng.sample(ACGT, 4):
            q = p[:-1] + bytes([b])
            if b != p[-1] and oracle.count(q) == 0:
                absent.append(q)
                break
    pats = present + absent
    rng.shuffle(pats)
    return lines, pats, oracle


def random_dict(seed, scale):
    """A plain list of random lowercase words of 3..12 letters; no versions.

    Patterns are substrings of the words: a fifth of 2 letters, the rest of 3.
    """
    rng = random.Random(f"random-dict/{seed}")
    words, npat = scale
    lines = _random_words(rng, words, 3, 12)
    oracle = ReversedPrefixOracle(lines)
    quotas = {2: npat // 5, 3: npat - npat // 5}
    pats = _stratified(_substrings(rng, lines, 16 * npat, 2, 3), quotas, oracle.count)
    rng.shuffle(pats)
    return lines, pats, oracle


class Workload(NamedTuple):
    generator: Callable
    scale: tuple  # full size
    smoke_scale: tuple  # toy size for the smoke mode
    trace_batch: int  # patterns per query kind in one traced round


WORKLOADS = {
    "versioned-dict": Workload(versioned_dict, (400, 20, 0.02, 400), (40, 4, 0.05, 20), 100),
    "deep-lines": Workload(deep_lines, (16, 200, 16, 2, 400), (4, 70, 3, 2, 20), 25),
    "random-dict": Workload(random_dict, (5000, 400), (200, 20), 100),
}


def generate(name, seed, smoke=False):
    w = WORKLOADS[name]
    return w.generator(seed, w.smoke_scale if smoke else w.scale)
