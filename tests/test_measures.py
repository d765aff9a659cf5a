import math
import random

import pytest

from rlxt.measures import (
    AttractorSet,
    check_entropy_bounds,
    entropy_hk,
    gamma_r,
    quotient,
    verify_attractor,
)
from rlxt.rlxbwt import build_rl_xbwt
from rlxt.trie import build_from_strings, colex_sort

from conftest import make_random_trie, path_trie

EX26_GAMMA = {(3, 4), (3, 7), (15, 16), (14, 15), (14, 17), (7, 8), (7, 9), (9, 10)}


def test_entropy_ex26(ex26, ex26_colex):
    want = 2 * math.log2(math.comb(26, 8)) + math.log2(math.comb(26, 9))
    got = entropy_hk(ex26, ex26_colex, 0)
    assert got.h_bits == pytest.approx(want, rel=1e-12)
    assert round(got.h_bits, 2) == 62.73
    (rho, n_prime, counts, _bits), = got.contexts
    assert (rho, n_prime) == ((), 26)
    assert counts == {1: 8, 2: 9, 3: 8}


def test_entropy_degenerate_cases():
    t = build_from_strings([])
    assert entropy_hk(t, colex_sort(t), 0).h_bits == 0.0
    assert entropy_hk(t, colex_sort(t), 3).h_bits == 0.0
    p = path_trie(b"aaa")
    assert entropy_hk(p, colex_sort(p), 0).h_bits == pytest.approx(2.0)


def test_entropy_bounds_examples(ex26, ex26_colex):
    rlx = build_rl_xbwt(ex26, ex26_colex)
    rep = check_entropy_bounds(ex26, ex26_colex, rlx, k_max=2)
    assert rep["r"] == 8
    assert rep["sigma_eff"] == 3
    b0 = rep["bounds"][0]
    assert b0["bound"] == pytest.approx(b0["h_wc_k"] + 3)
    assert b0["margin"] > 0
    assert rep["h_wc_0_bound"] == pytest.approx(2 * b0["h_wc_k"] + 1)

    p = path_trie(b"aaa")
    pc = colex_sort(p)
    prlx = build_rl_xbwt(p, pc)
    prep = check_entropy_bounds(p, pc, prlx, k_max=2)
    assert prep["r"] == 1
    assert prep["bounds"][0]["h_wc_k"] == pytest.approx(2.0)

    t = build_from_strings([])
    tc = colex_sort(t)
    trlx = build_rl_xbwt(t, tc)
    trep = check_entropy_bounds(t, tc, trlx, k_max=2)
    assert trep["r"] == 0


def test_entropy_bounds_random_corpus():
    rng = random.Random(51)
    for _ in range(30):
        t = make_random_trie(rng, 200, rng.choice([2, 3, 6]))
        order = colex_sort(t)
        rlx = build_rl_xbwt(t, order)
        rep = check_entropy_bounds(t, order, rlx, k_max=2)
        hs = [b["h_wc_k"] for b in rep["bounds"]]
        assert hs[1] <= hs[0] + 1e-9 and hs[2] <= hs[1] + 1e-9


def test_gamma_r_examples(ex26, ex26_colex):
    rlx = build_rl_xbwt(ex26, ex26_colex)
    got = gamma_r(ex26, ex26_colex, rlx)
    assert set(got.edges) == EX26_GAMMA
    assert len(got) == rlx.run_stats()[0] == 8

    t = build_from_strings([])
    assert len(gamma_r(t, colex_sort(t), build_rl_xbwt(t, colex_sort(t)))) == 0

    p = path_trie(b"ab")
    pg = gamma_r(p, colex_sort(p), build_rl_xbwt(p, colex_sort(p)))
    assert set(pg.edges) == {(1, 2), (2, 3)}


def test_gamma_size_equals_r_random():
    rng = random.Random(52)
    for _ in range(30):
        t = make_random_trie(rng, 200, 3)
        order = colex_sort(t)
        rlx = build_rl_xbwt(t, order)
        assert len(gamma_r(t, order, rlx)) == rlx.run_stats()[0]


def test_verify_attractor_ex26(ex26, ex26_colex):
    rlx = build_rl_xbwt(ex26, ex26_colex)
    g = gamma_r(ex26, ex26_colex, rlx)
    assert verify_attractor(ex26, g, "complete-subtrees", ex26_colex)
    assert not verify_attractor(ex26, AttractorSet(frozenset()), "complete-subtrees", ex26_colex)


def test_verify_attractor_all_connected_small():
    rng = random.Random(53)
    with pytest.raises(Exception):
        verify_attractor(make_random_trie(rng, 30, 2), AttractorSet(frozenset()), "all-connected")
    checked = 0
    while checked < 12:
        t = make_random_trie(rng, 12, rng.choice([2, 3]))
        if t.n < 2:
            continue
        order = colex_sort(t)
        rlx = build_rl_xbwt(t, order)
        g = gamma_r(t, order, rlx)
        assert verify_attractor(t, g, "all-connected", order)
        checked += 1


def test_quotient_ex26(ex26, ex26_colex):
    q_out = quotient(ex26, ex26_colex, "out-set")
    q_iso = quotient(ex26, ex26_colex, "isomorphic")
    q_eq = quotient(ex26, ex26_colex, "isomorphic+label")
    assert q_out.num_classes == 8
    assert q_iso.num_classes == 12
    assert q_eq.num_classes == 14
    assert q_eq.omega == 20
    assert q_eq.omega >= 8  # r <= omega


def _refines(fine, coarse):
    coarse_starts = {s for s, _ in coarse.classes}
    fine_starts = {s for s, _ in fine.classes}
    return coarse_starts <= fine_starts


def test_quotient_refinement_chain_random():
    rng = random.Random(54)
    for _ in range(30):
        t = make_random_trie(rng, 200, 3)
        order = colex_sort(t)
        rlx = build_rl_xbwt(t, order)
        q_out = quotient(t, order, "out-set")
        q_iso = quotient(t, order, "isomorphic")
        q_eq = quotient(t, order, "isomorphic+label")
        assert q_eq.num_classes >= q_iso.num_classes >= q_out.num_classes
        assert _refines(q_eq, q_iso) and _refines(q_iso, q_out)
        assert q_out.num_classes == rlx.r_prime
        assert rlx.run_stats()[0] <= q_eq.omega
