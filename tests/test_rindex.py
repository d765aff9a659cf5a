import random

import numpy as np
import pytest

from rlxt import rindex, rlxbwt, storage
from rlxt.errors import DomainError, NoSuccessorError
from rlxt.rindex import build_index, type2_nodes
from rlxt.rlxbwt import OutSets
from rlxt.trie import build_from_strings, colex_sort, oracle_locate

from conftest import (
    EX26_BLUE,
    EX26_COLEX_TO_PRE,
    EX26_RED,
    make_dictionary,
    make_random_trie,
    present_patterns,
    random_patterns,
    trie_alpha_bytes,
    versioned_lines,
)

EX26_TYPE1_ARROWS = {1: 2, 3: 4, 15: 21, 21: 10, 10: 22, 14: 6, 8: 26, 26: 18, 7: 13, 17: 20}
EX26_TYPE2_ONLY_ARROWS = {4: 11, 16: 19}


@pytest.fixture(scope="module")
def idx26(ex26):
    return build_index(ex26)


def test_colors_ex26(idx26):
    assert set(int(p) for p in idx26.colors.red.positions) == EX26_RED
    assert set(int(p) for p in idx26.colors.blue.positions) == EX26_BLUE


def test_phi_samples_ex26(ex26, ex26_colex, idx26):
    want = dict(EX26_TYPE1_ARROWS)
    want.update(EX26_TYPE2_ONLY_ARROWS)
    assert idx26.samples.arrows() == want
    assert set(idx26.samples.colored.positions) == EX26_RED | EX26_BLUE
    assert set(type2_nodes(OutSets(ex26, ex26_colex), ex26_colex)) == {4, 7, 8, 15, 16, 17}
    assert list(idx26.samples.type2_keys) == [4, 16]


def test_single_node_index():
    idx = build_index(build_from_strings([]))
    assert idx.colors.red.num_ones == 0 and idx.colors.blue.num_ones == 0
    assert len(idx.samples.values) == 0 and len(idx.samples.type2_keys) == 0
    assert idx.locate(b"") == [1]
    assert idx.count(b"a") == 0


def test_toehold_examples(idx26):
    assert idx26.toehold_search(b"ac") == ((20, 22), 18)
    assert idx26.toehold_search(b"") == ((1, 26), 1)
    assert idx26.toehold_search(b"bb") is None


def test_phi_golden_climbs(idx26):
    idx26.reset_counters()
    assert idx26.phi(2) == 3
    assert idx26.case_counters["1"] == 1
    assert idx26.phi(24) == 16
    assert idx26.case_counters["2.1"] == 1
    assert idx26.phi(5) == 12
    assert idx26.case_counters["2.2.1"] == 1
    assert idx26.phi(6) == 5
    assert idx26.case_counters["2.2.2"] == 1


def test_phi_last_node_errors(idx26, ex26_colex):
    last = int(ex26_colex.colex_to_pre[26])
    with pytest.raises(NoSuccessorError):
        idx26.phi(last)


def test_phi_full_permutation_ex26(idx26, ex26_colex):
    for i in range(1, 26):
        u = int(ex26_colex.colex_to_pre[i])
        assert idx26.phi(u) == int(ex26_colex.colex_to_pre[i + 1])


def test_isc_examples(idx26):
    assert idx26.isc(3, 2) == 1
    with pytest.raises(DomainError):
        idx26.isc(3, 1)
    with pytest.raises(DomainError):
        idx26.isc(4, 1)  # not a run-break node


def test_isc_on_corrected_shared_label_trie():
    # two subtrees reached along the same label whose roots are colex-adjacent:
    # u (out {a,c}) is red, its successor v has out {c,d}; the shared label c
    # is u's 2nd child and v's 1st
    t = build_from_strings([b"aea", b"aec", b"bec", b"bed"])
    order = colex_sort(t)
    u, v = 3, 7  # "ae" and "be"
    assert int(order.pre_to_colex[v]) == int(order.pre_to_colex[u]) + 1
    idx = build_index(t)
    assert idx.colors.is_red(u)
    assert idx.isc(u, 2) == 1


def test_locate_examples(idx26):
    assert idx26.locate(b"ac") == [18, 7, 13]
    assert idx26.locate(b"b") == [22, 14, 6, 5, 12, 24, 16, 19, 8]
    assert idx26.locate(b"") == EX26_COLEX_TO_PRE


def test_count_examples(idx26):
    assert idx26.count(b"ac") == 3
    assert idx26.count(b"") == 26
    assert idx26.count(b"ca") == 2
    assert idx26.count(b"zzz") == 0


def test_count_skips_the_toehold(monkeypatch):
    # count is a range-only backward search: the toehold's successor and
    # child-rank steps belong to locate
    rng = random.Random(43)
    t = make_random_trie(rng, 180, 4)
    idx = build_index(t)
    pats = _pattern_suite(t, rng) + [b""]
    want = [len(idx.locate(pat)) for pat in pats]

    def forbidden(*args):
        raise AssertionError("count reached a toehold step")

    monkeypatch.setattr(rindex, "toehold_step", forbidden)
    monkeypatch.setattr(rindex, "xbwt_successor", forbidden)
    monkeypatch.setattr(rindex, "cr", forbidden)
    monkeypatch.setattr(rlxbwt, "_child_rank", forbidden)  # what toehold_step calls
    assert [idx.count(pat) for pat in pats] == want
    assert any(want)


def test_toehold_searches_blocks_at_most_twice_per_symbol(monkeypatch):
    # one block search per range end: the toehold's constant over the r'
    # block starts, counted on a loaded index
    rng = random.Random(45)
    t = make_random_trie(rng, 200, 5)
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
    starts = idx.rlx.starts
    calls = []
    real = rlxbwt.bisect_right

    def counting(a, *args):
        if a is starts:
            calls.append(1)
        return real(a, *args)

    monkeypatch.setattr(rlxbwt, "bisect_right", counting)
    for pat in present_patterns(t, rng, 60):
        calls.clear()
        assert idx.toehold_search(pat) is not None
        assert 0 < len(calls) <= 2 * len(pat)


def test_toehold_step_searches_at_most_four_times(monkeypatch):
    # the child rank is a popcount, so a step's searches do not grow with
    # its label: two over the block starts, at most two over c's entries
    rng = random.Random(46)
    alpha = bytes(range(33, 33 + 130))
    t = build_from_strings([bytes([b]) for b in alpha] + make_dictionary(rng, 600, alpha, 1, 6))
    assert t.alphabet.sigma >= 120
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
    rlx = idx.rlx
    searched = []

    def counting(real):
        def search(a, *args):
            searched.append(a)
            return real(a, *args)
        return search

    monkeypatch.setattr(rlxbwt, "bisect_right", counting(rlxbwt.bisect_right))
    monkeypatch.setattr(rlxbwt, "bisect_left", counting(rlxbwt.bisect_left))
    top = 0
    for pat in present_patterns(t, rng, 100):
        span = (1, rlx.n)
        for c in idx.alphabet.encode(pat):
            searched.clear()
            span = rlxbwt.toehold_step(rlx, span, c)[0]
            assert sum(a is rlx.starts for a in searched) == 2
            assert len(searched) <= 4
            assert all(a is rlx.starts or a is rlx.adds[c] for a in searched)
            top = max(top, c)
    assert top >= 100


def _pattern_suite(trie, rng):
    pats = set()
    paths = trie.path_byte_strings()
    for v in range(1, trie.n + 1):
        s = paths[v]
        for ln in range(1, min(6, len(s)) + 1):
            pats.add(s[len(s) - ln :])
    # every downward path label of length <= 6 is a suffix of some root path,
    # extended here with interior substrings to cover absent-as-suffix cases
    for v in range(1, trie.n + 1):
        s = paths[v]
        for ln in range(1, min(6, len(s)) + 1):
            for st in range(0, len(s) - ln + 1, max(1, (len(s) - ln) // 2 + 1)):
                pats.add(s[st : st + ln])
    alpha = trie_alpha_bytes(trie)
    if alpha:
        pats.update(random_patterns(rng, alpha, 200))
    return sorted(pats)


def test_locate_matches_oracle_random_corpus():
    rng = random.Random(41)
    for _ in range(25):
        t = make_random_trie(rng, 180, rng.choice([2, 3, 5]))
        order = colex_sort(t)
        idx = build_index(t, order)
        for pat in _pattern_suite(t, rng):
            want = oracle_locate(t, pat, order)
            assert idx.locate(pat) == want
            assert idx.count(pat) == len(want)


def test_locate_makes_no_searchsorted_call(ex26, monkeypatch):
    # the climb and the toehold read array('q') tables with bisect; a scalar
    # numpy search on the query path would cost several times more
    rng = random.Random(44)
    tries = [ex26, make_random_trie(rng, 200, 4)]
    indexes = []
    for t in tries:
        order = colex_sort(t)
        fresh = build_index(t, order)
        _, loaded, _, _ = storage.load_bytes(storage.save_rindex(fresh))
        pats = _pattern_suite(t, rng) + [b""]
        indexes.append((fresh, loaded, pats, [oracle_locate(t, p, order) for p in pats]))

    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.searchsorted called on the query path")

    monkeypatch.setattr(np, "searchsorted", forbidden)
    for fresh, loaded, pats, want in indexes:
        assert [fresh.locate(p) for p in pats] == want
        assert [loaded.locate(p) for p in pats] == want
        assert max(map(len, want)) > 1  # the climb ran


def test_out_of_range_nodes(idx26):
    # array('q') wraps a negative index, so node 0 must not read entry -1
    n = idx26.n
    assert not idx26.colors.is_colored(0)
    assert not idx26.colors.is_colored(n + 1)
    assert [u for u in range(1, n + 1) if idx26.colors.is_colored(u)] == sorted(
        EX26_RED | EX26_BLUE)
    for u in (0, n + 1, -1):
        with pytest.raises(IndexError):
            idx26.phi(u)


def test_phi_matches_permutation_random_corpus():
    rng = random.Random(42)
    for _ in range(40):
        t = make_random_trie(rng, 250, rng.choice([2, 3, 4, 8]))
        order = colex_sort(t)
        idx = build_index(t, order)
        for i in range(1, t.n):
            u = int(order.colex_to_pre[i])
            assert idx.phi(u) == int(order.colex_to_pre[i + 1])


def test_case_counters_all_fire_on_corpus():
    rng = random.Random(43)
    tries = [build_from_strings([w.encode() for w in
                                 __import__("conftest").EX26_WORDS])]
    for _ in range(10):
        tries.append(make_random_trie(rng, 150, 3))
    totals = {"1": 0, "2.1": 0, "2.2.1": 0, "2.2.2": 0}
    for t in tries:
        order = colex_sort(t)
        idx = build_index(t, order)
        for i in range(1, t.n):
            idx.phi(int(order.colex_to_pre[i]))
        for k, v in idx.case_counters.items():
            totals[k] += v
    assert all(v > 0 for v in totals.values())


def test_adjacency_preserved_on_shared_labels():
    rng = random.Random(44)
    for _ in range(25):
        t = make_random_trie(rng, 200, 3)
        order = colex_sort(t)
        for i in range(1, t.n):
            u, v = int(order.colex_to_pre[i]), int(order.colex_to_pre[i + 1])
            shared = set(int(c) for c in t.out_labels(u)) & set(int(c) for c in t.out_labels(v))
            for c in shared:
                cu, cv = t.child_by_label(u, c), t.child_by_label(v, c)
                assert order.pre_to_colex[cv] == order.pre_to_colex[cu] + 1


def test_successor_isomorphic_iff_no_red_descendant():
    rng = random.Random(45)
    for _ in range(25):
        t = make_random_trie(rng, 150, 3)
        order = colex_sort(t)
        idx = build_index(t, order)
        sig = t.iso_signatures()
        size = t.subtree_sizes()
        for i in range(1, t.n):
            u, v = int(order.colex_to_pre[i]), int(order.colex_to_pre[i + 1])
            has_red = any(idx.colors.is_red(w) for w in range(u, u + int(size[u])))
            assert (sig[u] == sig[v]) == (not has_red)


def test_adjacent_paths_shift():
    rng = random.Random(46)
    for _ in range(20):
        t = make_random_trie(rng, 200, 3)
        order = colex_sort(t)
        idx = build_index(t, order)
        for _ in range(40):
            u = rng.randint(1, t.n)
            chain = [u]
            while t.degree(chain[-1]) and rng.random() < 0.8:
                kids = t.children(chain[-1])
                chain.append(int(rng.choice(list(kids))))
            # blue allowed only on the first node, red only on the last
            if any(idx.colors.is_blue(w) for w in chain[1:]):
                continue
            if any(idx.colors.is_red(w) for w in chain[:-1]):
                continue
            if all(int(order.pre_to_colex[w]) == t.n for w in chain):
                continue
            shifted = []
            ok = True
            for w in chain:
                i = int(order.pre_to_colex[w])
                if i == t.n:
                    ok = False
                    break
                shifted.append(int(order.colex_to_pre[i + 1]))
            assert ok, "a node of the chain has no successor despite the premise"
            for a, b in zip(shifted, shifted[1:]):
                assert int(t.parent[b]) == a


def _assert_index_matches_oracles(t):
    order = colex_sort(t)
    idx = build_index(t, order)
    for i in range(1, t.n):
        assert idx.phi(int(order.colex_to_pre[i])) == int(order.colex_to_pre[i + 1])
    rng = random.Random(t.n)
    for pat in present_patterns(t, rng, 8) + [b""]:
        assert idx.locate(pat) == oracle_locate(t, pat, order)


def test_degenerate_shapes():
    from rlxt.trie import build_from_edges

    # full-fanout star: one block per out-set transition, every child a leaf
    _assert_index_matches_oracles(build_from_edges(9, [(1, k) for k in range(1, 9)]))
    # comb: tooth leaf then spine continuation at every level
    edges, u, nid = [], 1, 1
    for _ in range(20):
        edges.append((u, 1))
        edges.append((u, 2))
        nid += 2
        u = nid
    _assert_index_matches_oracles(build_from_edges(nid, edges))
    # unary path built from edges (single-label alphabet)
    _assert_index_matches_oracles(build_from_edges(30, [(k, 7) for k in range(1, 30)]))


def test_concurrent_reads_are_consistent(idx26, ex26, ex26_colex):
    from concurrent.futures import ThreadPoolExecutor

    pats = [b"ac", b"b", b"", b"ca", b"aacc", b"zz"] * 20
    want = [oracle_locate(ex26, p, ex26_colex) for p in pats]
    with ThreadPoolExecutor(max_workers=8) as ex:
        got = list(ex.map(idx26.locate, pats))
    assert got == want


def test_isc_matches_naive_on_random_tries():
    # sigma 4 keeps the block masks in an array; sigma 65 and 200, every byte
    # a one-letter word beside versioned words, keep them as a list of ints.
    # Each index is checked as built and as loaded
    rng = random.Random(47)
    tries = [make_random_trie(rng, 150, 4) for _ in range(25)]
    for sigma in (65, 200):
        alpha = bytes(range(47, 46 + sigma))  # "/" and the version tags among them
        words = make_dictionary(rng, 60, alpha, 2, 6)
        tries.append(build_from_strings([bytes([b]) for b in alpha]
                                        + versioned_lines(rng, words, alpha, 3)))
        assert tries[-1].alphabet.sigma == sigma
    for t in tries:
        order = colex_sort(t)
        built = build_index(t, order)
        assert isinstance(built.rlx.mask, list) == (t.alphabet.sigma > 64)
        _, loaded, _, _ = storage.load_bytes(storage.save_rindex(built))
        for idx in (built, loaded):
            for i in range(1, t.n):
                u = int(order.colex_to_pre[i])
                if not idx.colors.is_red(u):
                    continue
                cur = [int(c) for c in t.out_labels(u)]
                nxt = [int(c) for c in t.out_labels(int(order.colex_to_pre[i + 1]))]
                for k, c in enumerate(cur, 1):
                    if c in nxt:
                        assert idx.isc(u, k) == nxt.index(c) + 1
                    else:
                        with pytest.raises(DomainError):
                            idx.isc(u, k)
