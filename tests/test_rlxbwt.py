import random

import numpy as np
import pytest

from rlxt import storage
from rlxt.errors import DeterminismError, DomainError
from rlxt.rindex import build_index
from rlxt.rlxbwt import (
    backward_extend,
    build_rl_xbwt,
    cr,
    reconstruct_trie,
    run_head_preorder,
    xbwt_rank,
    xbwt_successor,
)
from rlxt.trie import Alphabet, build_from_strings, colex_sort

from conftest import EX26_COLEX_TO_PRE, make_random_trie, path_trie

A, B, C = 1, 2, 3  # label codes in EX26


@pytest.fixture(scope="module")
def rlx26(ex26, ex26_colex):
    return build_rl_xbwt(ex26, ex26_colex)


def test_ex26_triples(rlx26):
    rlx = rlx26
    expected = [
        ((A, B, C), (), 3),
        ((), (A, C), 4),
        ((), (B,), 1),
        ((A, C), (), 3),
        ((), (A, C), 8),
        ((B, C), (), 2),
        ((), (B, C), 3),
        ((A,), (), 2),
    ]
    assert rlx.triples == expected


def test_ex26_sprime_string(rlx26):
    rlx = rlx26
    want = [
        ("+", A), ("+", B), ("+", C), ("/", None),
        ("-", A), ("-", C), ("/", None),
        ("-", B), ("/", None),
        ("+", A), ("+", C), ("/", None),
        ("-", A), ("-", C), ("/", None),
        ("+", B), ("+", C), ("/", None),
        ("-", B), ("-", C), ("/", None),
        ("+", A), ("/", None),
    ]
    assert rlx.symbols() == want


def test_ex26_run_stats(rlx26):
    rlx = rlx26
    r, r_c, r_prime = rlx.run_stats()
    assert (r, r_prime) == (8, 8)
    assert r_c == {A: 3, B: 2, C: 3}


def test_single_node_trie_degenerate():
    t = build_from_strings([])
    rlx = build_rl_xbwt(t, colex_sort(t))
    assert rlx.triples == [((), (), 1)]
    r, r_c, r_prime = rlx.run_stats()
    assert (r, r_prime) == (0, 1)
    assert r_c == {}


def test_xbwt_rank_examples(rlx26):
    rlx = rlx26
    assert xbwt_rank(rlx, B, 7) == 7
    assert xbwt_rank(rlx, A, 26) == 8
    assert xbwt_rank(rlx, C, 0) == 0


def test_xbwt_successor_examples(rlx26):
    rlx = rlx26
    assert xbwt_successor(rlx, B, 8) == 20
    assert xbwt_successor(rlx, A, 1) == 1
    assert xbwt_successor(rlx, C, 22) is None


def test_cr_examples(rlx26):
    rlx = rlx26
    assert cr(rlx, 3, C) == 3
    assert cr(rlx, 20, C) == 2
    with pytest.raises(DomainError):
        cr(rlx, 4, A)


def test_backward_extend_examples(rlx26):
    rlx = rlx26
    assert backward_extend(rlx, (1, 26), A) == (2, 9)
    assert backward_extend(rlx, (2, 9), C) == (20, 22)
    assert backward_extend(rlx, (4, 7), A) is None


def test_c_array_ex26(rlx26):
    rlx = rlx26
    assert list(rlx.c_array[:4]) == [0, 1, 9, 18]


def test_run_heads_ex26(rlx26):
    rlx = rlx26
    assert rlx.run_heads[A] == [(1, 1), (9, 10), (25, 20)]
    assert rlx.run_heads[B] == [(1, 1), (20, 18)]
    assert run_head_preorder(rlx, A, 9) == 10
    with pytest.raises(DomainError):
        run_head_preorder(rlx, A, 2)


def _naive_out_sets(trie, colex):
    return [tuple(int(c) for c in trie.out_labels(int(colex.colex_to_pre[i])))
            for i in range(1, trie.n + 1)]


def test_reconstruction_and_bounds_random():
    rng = random.Random(31)
    for _ in range(40):
        t = make_random_trie(rng, 250, rng.choice([2, 4, 8]))
        order = colex_sort(t)
        rlx = build_rl_xbwt(t, order)
        outs = _naive_out_sets(t, order)
        parents = rlx.colex_parents()
        assert parents.tolist() == order.pre_to_colex[t.parent[order.colex_to_pre[2:]]].tolist()
        t2, order2 = reconstruct_trie(parents, rlx.c_array, t.alphabet)
        assert np.array_equal(t2.parent, t.parent)
        assert np.array_equal(t2.label, t.label)
        assert np.array_equal(order2.colex_to_pre, order.colex_to_pre)
        r, r_c, r_prime = rlx.run_stats()
        sum_del = sum(len(d) for _, d, _ in rlx.triples)
        sum_add = sum(len(a) for a, _, _ in rlx.triples)
        assert sum_del <= r
        assert sum_add <= 2 * r
        assert r_prime <= max(3 * r, 1)
        if t.n > 1:  # so blocks are maximal: consecutive blocks differ
            assert all(a or d for a, d, _ in rlx.triples)
        # naive run-break count agrees
        want_r = 0
        for c in range(1, t.alphabet.sigma):
            for i in range(1, t.n + 1):
                if c in outs[i - 1] and (i == t.n or c not in outs[i]):
                    want_r += 1
        assert r == want_r


def test_queries_match_naive_scans():
    # a small and a larger alphabet; tables built fresh and rebuilt by a load
    rng = random.Random(32)
    cases = [(sigma, loaded) for sigma in (3, 27) for loaded in (False, True)
             for _ in range(25)]
    for sigma, loaded in cases:
        t = make_random_trie(rng, 150, sigma)
        order = colex_sort(t)
        if loaded:
            blob = storage.save_rindex(build_index(t, order))
            _, idx, _, _ = storage.load_bytes(blob)
            rlx = idx.rlx
        else:
            rlx = build_rl_xbwt(t, order)
        outs = _naive_out_sets(t, order)
        for _ in range(60):
            c = rng.randint(1, t.alphabet.sigma - 1)
            i = rng.randint(1, t.n)
            want_rank = sum(1 for j in range(1, i + 1) if c in outs[j - 1])
            assert xbwt_rank(rlx, c, i) == want_rank
            want_succ = next((j for j in range(i, t.n + 1) if c in outs[j - 1]), None)
            assert xbwt_successor(rlx, c, i) == want_succ
            if c in outs[i - 1]:
                assert cr(rlx, i, c) == outs[i - 1].index(c) + 1
            else:
                with pytest.raises(DomainError):
                    cr(rlx, i, c)


def test_sprime_interleaving_invariant():
    rng = random.Random(33)
    for _ in range(25):
        t = make_random_trie(rng, 200, 4)
        rlx = build_rl_xbwt(t, colex_sort(t))
        syms = rlx.symbols()
        for c in range(1, t.alphabet.sigma):
            kinds = [k for k, lab in syms if lab == c]
            # between consecutive c+ there is exactly one c-
            for a, b in zip(kinds, kinds[1:]):
                assert (a, b) in {("+", "-"), ("-", "+")}
            if kinds:
                assert kinds[0] == "+"


def test_path_trie_runs_match_string_rle():
    rng = random.Random(34)
    for _ in range(30):
        s = bytes(rng.choice(b"abc") for _ in range(rng.randint(1, 300)))
        t = path_trie(s)
        order = colex_sort(t)
        rlx = build_rl_xbwt(t, order)
        outs = _naive_out_sets(t, order)
        naive_runs = 0
        for c in range(1, t.alphabet.sigma):
            prev = False
            for i in range(1, t.n + 1):
                now = c in outs[i - 1]
                if prev and not now:
                    naive_runs += 1
                prev = now
            if prev:
                naive_runs += 1
        assert rlx.run_stats()[0] == naive_runs


def test_reconstruct_trie_round_trip(ex26, ex26_colex):
    rlx = build_rl_xbwt(ex26, ex26_colex)
    t2, order = reconstruct_trie(rlx.colex_parents(), rlx.c_array, ex26.alphabet)
    assert np.array_equal(t2.parent, ex26.parent)
    assert np.array_equal(t2.label, ex26.label)
    assert order.colex_to_pre.tolist() == [0] + EX26_COLEX_TO_PRE


@pytest.mark.parametrize("parents", [
    [1, 4, 3],  # positions 3 and 4 are each other's parent
    [1, 3, 4],  # 2 -> 3 -> 4 -> 4
    [2, 2, 2],  # the root has no child; 2 is its own parent
])
def test_parents_off_the_root_raise(parents):
    with pytest.raises(ValueError, match="a parent chain never reaches the root"):
        reconstruct_trie(np.array(parents), [0, 1, 4], Alphabet(b"a"))


@pytest.mark.parametrize("parents, c_array, match", [
    ([1, 5, 1], [0, 1, 4], "parent position outside 1..4"),
    ([1, 0, 1], [0, 1, 4], "parent position outside 1..4"),
    ([1, 1, 1], [0, 2, 4], "node 2: sentinel label on an edge"),  # two nodes labeled 0
    ([1, 1, 1], [0, 1, 3], "shape mismatch"),  # labels for 3 nodes of 4
])
def test_arrays_that_are_no_trie_raise(parents, c_array, match):
    with pytest.raises(ValueError, match=match):
        reconstruct_trie(np.array(parents), c_array, Alphabet(b"a"))


def test_two_equal_labels_under_one_parent_raise():
    # positions 2 and 3 both carry 'a' under the root: not a trie
    with pytest.raises(DeterminismError):
        reconstruct_trie(np.array([1, 1, 2]), [0, 1, 4], Alphabet(b"a"))
