"""End-to-end acceptance suite.

One test per criterion, each printing a PASS line with headline numbers
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
The shared corpus (500 random tries + 50 repetitive tries, with indexes
for both engines) is built once at module scope.
"""

import math
import random
import statistics
import time
from collections import namedtuple

import pytest

from rlxt import storage
from rlxt.baseline import SampledLocate
from rlxt.measures import check_entropy_bounds, gamma_r, quotient, verify_attractor
from rlxt.rindex import build_index
from rlxt.trie import build_from_strings, colex_sort, oracle_locate

from conftest import (
    EX26_BLUE,
    EX26_COLEX_TO_PRE,
    EX26_RED,
    make_dictionary,
    make_random_trie,
    make_text_dictionary,
    path_trie,
    present_patterns,
    random_patterns,
    repetitive_lines,
    trie_alpha_bytes,
    versioned_lines,
)

SUITE_T0 = time.perf_counter()

Bundle = namedtuple("Bundle", "trie order idx sl kind")


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} {name}: PASS ({detail})")


def _bundle(trie, kind):
    order = colex_sort(trie)
    idx = build_index(trie, order)
    # small cover parameter = the fast end of the baseline's space/time knob;
    # the full t spectrum is exercised in the baseline module tests
    sl, _ = SampledLocate.build(trie, order, min(max(1, math.isqrt(trie.n)), 8))
    return Bundle(trie, order, idx, sl, kind)


@pytest.fixture(scope="module")
def corpus():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    bundles = []
    sigmas = [2, 4, 8, 26]
    for k in range(500):
        bundles.append(_bundle(make_random_trie(rng, 500, sigmas[k % 4]), "random"))
    alphabets = {4: b"abcd", 8: b"abcdefgh", 26: b"abcdefghijklmnopqrstuvwxyz"}
    for k in range(50):
        sz = [4, 8, 26][k % 3]
        alpha = alphabets[sz]
        if k < 2:  # two large instances near the size cap
            words = make_dictionary(rng, 550, alpha, 4, 14)
            lines = versioned_lines(rng, words, alpha, versions=5 if k == 0 else 3)
            lines += repetitive_lines(rng, words, alpha, copies=3, edit_rate=0.02)
        elif k % 3 == 0:
            words = make_dictionary(rng, rng.randint(40, 200), alpha, 3, 12)
            lines = repetitive_lines(rng, words, alpha, rng.randint(2, 8))
        elif k % 3 == 1:
            words = make_text_dictionary(rng, rng.randint(60, 250), alpha)
            lines = repetitive_lines(rng, words, alpha, rng.randint(2, 6))
        else:
            words = make_dictionary(rng, rng.randint(30, 120), alpha, 3, 10)
            lines = versioned_lines(rng, words, alpha, rng.randint(3, 12))
        trie = build_from_strings(lines)
        assert trie.n <= 20_000
        bundles.append(_bundle(trie, "repetitive"))
    return {"bundles": bundles, "build_seconds": time.perf_counter() - t0, "rng": rng}


# suffix tags of controlled multiplicity inside the fixed dictionary; they
# give fixed-length patterns whose occurrence counts span the occ targets
FAMILY_TAGS = [(b"jqx", 2), (b"vqz", 12), (b"kqw", 110), (b"zqy", 700)]


@pytest.fixture(scope="module")
def family():
    """1, 2, 4, ..., 256 concatenated copies of a fixed 1000-word dictionary,
    every copy carrying 1% random edits."""
    rng = random.Random(77)
    alpha = b"abcdefghijklmnopqrstuvwxyz"

    def word(k):
        return bytes(rng.choices(alpha, k=k))

    base = set()
    for tag, count in FAMILY_TAGS:
        while sum(1 for w in base if w.endswith(tag)) < count:
            base.add(word(rng.randint(5, 17)) + tag)
    while len(base) < 1000:
        w = word(rng.randint(8, 20))
        if not any(w.endswith(t) for t, _ in FAMILY_TAGS):
            base.add(w)
    base = sorted(base)[:1000]

    def mutate(w):
        i = rng.randrange(len(w))
        return w[:i] + bytes(rng.choices(alpha, k=1)) + w[i + 1 :]

    rows = []
    for copies in [1, 2, 4, 8, 16, 32, 64, 128, 256]:
        lines = []
        for _ in range(copies):
            for w in base:
                lines.append(mutate(w) if rng.random() < 0.01 else w)
        trie = build_from_strings(lines)
        order = colex_sort(trie)
        idx = build_index(trie, order)
        sl, _ = SampledLocate.build(trie, order, 1)
        rows.append({
            "copies": copies,
            "n": trie.n,
            "r": idx.rlx.run_stats()[0],
            "machinery_bits": storage.machinery_bits(idx),
            "sampled_bits": 8 * len(storage.save_sampled(sl)),
            "idx": idx,
            "order": order,
            "trie": trie,
        })
    return rows


def test_criterion_1_golden_example_fidelity(ex26, ex26_colex):
    t0 = time.perf_counter()
    assert list(ex26_colex.colex_to_pre[1:]) == EX26_COLEX_TO_PRE

    idx = build_index(ex26, ex26_colex)
    A, B, C = 1, 2, 3
    assert idx.rlx.triples == [
        ((A, B, C), (), 3), ((), (A, C), 4), ((), (B,), 1), ((A, C), (), 3),
        ((), (A, C), 8), ((B, C), (), 2), ((), (B, C), 3), ((A,), (), 2),
    ]
    assert [ln for _, _, ln in idx.rlx.triples] == [3, 4, 1, 3, 8, 2, 3, 2]
    r, _, r_prime = idx.rlx.run_stats()
    assert (r, r_prime) == (8, 8)

    want_sprime = [("+", A), ("+", B), ("+", C), ("/", None), ("-", A), ("-", C),
                   ("/", None), ("-", B), ("/", None), ("+", A), ("+", C), ("/", None),
                   ("-", A), ("-", C), ("/", None), ("+", B), ("+", C), ("/", None),
                   ("-", B), ("-", C), ("/", None), ("+", A), ("/", None)]
    assert idx.spi.symbols() == want_sprime

    assert set(int(p) for p in idx.colors.red.positions) == EX26_RED
    assert set(int(p) for p in idx.colors.blue.positions) == EX26_BLUE

    arrows = {1: 2, 3: 4, 15: 21, 21: 10, 10: 22, 14: 6, 8: 26, 26: 18, 7: 13,
              17: 20, 4: 11, 16: 19}
    assert idx.samples.arrows() == arrows

    assert quotient(ex26, ex26_colex, "out-set").num_classes == 8
    assert quotient(ex26, ex26_colex, "isomorphic").num_classes == 12
    assert quotient(ex26, ex26_colex, "isomorphic+label").num_classes == 14

    gamma = gamma_r(ex26, ex26_colex, idx.rlx)
    assert set(gamma.edges) == {(3, 4), (3, 7), (15, 16), (14, 15), (14, 17),
                                (7, 8), (7, 9), (9, 10)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, "golden-example-fidelity", f"all Figure-1/2 values, {elapsed * 1e3:.0f} ms")


def test_criterion_2_climb_goldens(ex26):
    idx = build_index(ex26)
    idx.reset_counters()
    assert idx.phi(2) == 3
    assert idx.case_counters == {"1": 1, "2.1": 0, "2.2.1": 0, "2.2.2": 0}
    assert idx.phi(24) == 16
    assert idx.case_counters["2.1"] == 1
    assert idx.phi(5) == 12
    assert idx.case_counters["2.2.1"] == 1
    assert idx.phi(6) == 5
    assert idx.case_counters["2.2.2"] == 1
    _report(2, "climb-goldens", "phi(2)=3 phi(24)=16 phi(5)=12 phi(6)=5, one case each")


def test_criterion_3_oracle_equivalence(corpus):
    t0 = time.perf_counter()
    bundles = corpus["bundles"]
    rng = random.Random(99)
    assert sum(b.kind == "random" for b in bundles) >= 500
    assert sum(b.kind == "repetitive" for b in bundles) >= 50
    assert max(b.trie.n for b in bundles if b.kind == "random") <= 500
    patterns_checked = 0
    phi_checked = 0
    for b in bundles:
        trie, order, idx, sl = b.trie, b.order, b.idx, b.sl
        alpha = trie_alpha_bytes(trie)
        pats = set(present_patterns(trie, rng, 12))
        if alpha:
            pats.update(random_patterns(rng, alpha, 8))
        pats.add(b"")
        pats.add(b"\xff")  # byte outside every alphabet
        for pat in sorted(pats):
            want = oracle_locate(trie, pat, order)
            assert idx.locate(pat) == want
            assert sl.locate(pat) == want
            assert idx.count(pat) == len(want)
            patterns_checked += 1
        for i in range(1, trie.n):
            u = int(order.colex_to_pre[i])
            assert idx.phi(u) == int(order.colex_to_pre[i + 1])
        phi_checked += trie.n - 1
    elapsed = corpus["build_seconds"] + (time.perf_counter() - t0)
    assert elapsed <= 300
    _report(3, "oracle-equivalence",
            f"{len(bundles)} tries, {patterns_checked} patterns, "
            f"{phi_checked} phi calls, {elapsed:.1f} s incl. builds")


def test_criterion_4_inequality_suite(corpus):
    t0 = time.perf_counter()
    for b in corpus["bundles"]:
        rlx = b.idx.rlx
        r, _, r_prime = rlx.run_stats()
        sum_del = sum(len(d) for _, d, _ in rlx.triples)
        sum_add = sum(len(a) for a, _, _ in rlx.triples)
        assert sum_del <= r
        assert sum_add <= 2 * r
        assert r_prime <= max(3 * r, 1)
        check_entropy_bounds(b.trie, b.order, rlx, k_max=2)  # raises on violation
        q_out = quotient(b.trie, b.order, "out-set")
        q_iso = quotient(b.trie, b.order, "isomorphic")
        q_eq = quotient(b.trie, b.order, "isomorphic+label")
        assert r <= q_eq.omega
        assert q_eq.num_classes >= q_iso.num_classes >= q_out.num_classes
        starts_out = {s for s, _ in q_out.classes}
        starts_iso = {s for s, _ in q_iso.classes}
        starts_eq = {s for s, _ in q_eq.classes}
        assert starts_out <= starts_iso <= starts_eq
        assert q_out.num_classes == r_prime
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120
    _report(4, "inequality-suite",
            f"{len(corpus['bundles'])} tries, k in 0..2, {elapsed:.1f} s")


def test_criterion_5_attractor_validity(corpus):
    for b in corpus["bundles"]:
        g = gamma_r(b.trie, b.order, b.idx.rlx)
        assert len(g) == b.idx.rlx.run_stats()[0]
        assert verify_attractor(b.trie, g, "complete-subtrees", b.order)
    rng = random.Random(123)
    exhaustive = 0
    while exhaustive < 100:
        t = make_random_trie(rng, 12, rng.choice([2, 3]))
        order = colex_sort(t)
        from rlxt.rlxbwt import build_rl_xbwt

        rlx = build_rl_xbwt(t, order)
        g = gamma_r(t, order, rlx)
        assert verify_attractor(t, g, "all-connected", order)
        exhaustive += 1
    _report(5, "attractor-validity",
            f"complete-subtrees on {len(corpus['bundles'])} tries, "
            f"all-connected on {exhaustive} tries (n<=12)")


def test_criterion_6_path_trie_degeneration():
    rng = random.Random(321)
    checked = 0
    for _ in range(100):
        alpha = rng.choice([b"ab", b"abcd", b"abcdefghijklmnopqrstuvwxyz"])
        s = bytes(rng.choice(alpha) for _ in range(rng.randint(1, 2000)))
        trie = path_trie(s)
        order = colex_sort(trie)
        idx = build_index(trie, order)
        outs = [tuple(int(c) for c in trie.out_labels(int(order.colex_to_pre[i])))
                for i in range(1, trie.n + 1)]
        naive_runs = 0
        for c in range(1, trie.alphabet.sigma):
            prev = False
            for i in range(1, trie.n + 1):
                now = c in outs[i - 1]
                if prev and not now:
                    naive_runs += 1
                prev = now
            if prev:
                naive_runs += 1
        assert idx.rlx.run_stats()[0] == naive_runs
        # single-pattern locate == ending positions from a naive string scan
        ln = rng.randint(1, min(12, len(s)))
        start = rng.randrange(0, len(s) - ln + 1)
        pats = [s[start : start + ln], bytes(rng.choice(alpha) for _ in range(3))]
        for pat in pats:
            ends = {e + 1 for e in range(len(pat), len(s) + 1)
                    if s[e - len(pat) : e] == pat}
            got = idx.locate(pat)
            assert set(got) == ends  # node at depth d has pre-order id d+1
            assert got == oracle_locate(trie, pat, order)
        checked += 1
    _report(6, "path-trie-degeneration", f"{checked} strings up to length 2000")


def test_criterion_7_space_behavior(family):
    ns = [row["n"] for row in family]
    mach = [row["machinery_bits"] for row in family]
    sampled = [row["sampled_bits"] for row in family]
    rs = [row["r"] for row in family]
    assert all(a < b for a, b in zip(ns, ns[1:]))
    n_ratio = ns[-1] / ns[0]
    mach_ratio = mach[-1] / mach[0]
    sampled_ratio = sampled[-1] / sampled[0]
    beta_mach = math.log(mach_ratio) / math.log(n_ratio)
    beta_sampled = math.log(sampled_ratio) / math.log(n_ratio)
    # locate machinery grows sub-linearly in n ...
    assert beta_mach <= 0.9, f"machinery growth exponent {beta_mach:.2f}"
    # ... tracks r within a constant factor <= 4x across the family ...
    track = [m / (r * math.log2(n)) for m, r, n in zip(mach, rs, ns)]
    assert max(track) / min(track) <= 4.0
    # ... while the t=1 baseline grows linearly in n
    assert 0.9 <= beta_sampled <= 1.25, f"baseline growth exponent {beta_sampled:.2f}"
    _report(7, "space-behavior",
            f"n x{n_ratio:.2f}, machinery x{mach_ratio:.2f} (beta {beta_mach:.2f}), "
            f"baseline x{sampled_ratio:.2f} (beta {beta_sampled:.2f}), "
            f"r-tracking drift {max(track) / min(track):.2f}x")


def _median_locate_seconds(idx, pattern, reps, trials=5):
    out = []
    for _ in range(trials):
        t0 = time.perf_counter()
        for _ in range(reps):
            idx.locate(pattern)
        out.append((time.perf_counter() - t0) / reps)
    return statistics.median(out)


def test_criterion_8_time_behavior(family):
    row = family[-1]
    idx = row["idx"]
    # fixed pattern length 3: the four suffix tags locate structurally similar
    # node sets whose sizes realize the four occ levels (decade-spaced)
    pats = sorted(((tag, idx.count(tag)) for tag, _ in FAMILY_TAGS), key=lambda po: po[1])
    occs = [occ for _, occ in pats]
    assert all(b >= 4 * a for a, b in zip(occs, occs[1:])), f"occ levels not spread: {occs}"
    assert occs[-1] / occs[0] >= 100, f"occ spread too narrow: {occs}"
    times = []
    for pat, occ in pats:
        est = _median_locate_seconds(idx, pat, 3, trials=1)
        reps = max(3, int(0.03 / max(est, 1e-7)))
        times.append(_median_locate_seconds(idx, pat, reps))
    # marginal per-occurrence cost: slope of locate time between occ levels;
    # this isolates the per-occurrence term from the fixed search cost
    slopes = [(t2 - t1) / (o2 - o1)
              for (t1, o1), (t2, o2) in zip(zip(times, occs), zip(times[1:], occs[1:]))]
    assert all(s > 0 for s in slopes), f"locate time not increasing with occ: {times}"
    spread = max(slopes) / min(slopes)
    assert spread <= 3.0, f"per-occurrence slope varies {spread:.2f}x: {slopes}"
    _report(8, "time-behavior",
            f"occ {occs}, per-occ slopes "
            f"{[f'{s * 1e6:.2f}us' for s in slopes]}, spread {spread:.2f}x")


def test_total_suite_runtime_budget():
    elapsed = time.perf_counter() - SUITE_T0
    assert elapsed <= 900, f"acceptance suite took {elapsed:.0f} s"
    _report("8b", "suite-runtime", f"{elapsed:.0f} s elapsed, budget 900 s")
