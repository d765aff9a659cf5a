import math
import random

import pytest

from rlxt import storage
from rlxt.baseline import SampledLocate, TreeCover, XbwtNav, build_sampled
from rlxt.errors import DomainError
from rlxt.trie import Alphabet, LabeledTrie, colex_sort, oracle_locate

from conftest import EX26_COLEX_TO_PRE, make_random_trie, present_patterns

A, B, C = 1, 2, 3


@pytest.fixture(scope="module")
def nav26(ex26, ex26_colex):
    return XbwtNav.from_trie(ex26, ex26_colex)


def test_parent_examples(nav26):
    assert nav26.xbwt_parent(4) == 3
    assert nav26.xbwt_parent(2) == 1
    assert nav26.xbwt_parent(14) == 5
    with pytest.raises(DomainError):
        nav26.xbwt_parent(1)


def test_child_examples(nav26):
    assert nav26.xbwt_child(3, B) == 12
    with pytest.raises(DomainError):
        nav26.xbwt_child(8, A)


def test_parent_child_inverse(nav26, ex26, ex26_colex):
    for i in range(1, 27):
        for c in nav26.out_labels(i):
            assert nav26.xbwt_parent(nav26.xbwt_child(i, c)) == i
    for i in range(2, 27):
        label = int(ex26.label[ex26_colex.colex_to_pre[i]])
        assert nav26.xbwt_child(nav26.xbwt_parent(i), label) == i


def _with_unused_label(t, m):
    """``t`` with every label code from m on moved up by one, so that code
    m labels no edge and its slice of the parent table is empty."""
    label = t.label + (t.label >= m)
    label[1] = 0
    return LabeledTrie(t.parent, label, Alphabet(range(1, t.alphabet.sigma + 1)))


def _check_nav(nav, t, order, rng):
    flat, ends = list(nav.flat), list(nav.node_end)
    for i in range(1, t.n + 1):
        u = int(order.colex_to_pre[i])
        if i > 1:
            assert nav.xbwt_parent(i) == int(order.pre_to_colex[t.parent[u]])
        outs = [int(x) for x in t.out_labels(u)]
        assert list(nav.out_labels(i)) == outs
        for c in range(1, nav.sigma):
            if c in outs:
                assert nav.xbwt_child(i, c) == int(order.pre_to_colex[t.child_by_label(u, c)])
            else:
                with pytest.raises(DomainError):
                    nav.xbwt_child(i, c)
    # backward search against a scan of flat: the c-children of lo..hi
    # follow the root, every smaller label's nodes and the c-children of 1..lo-1
    ranges = [(1, t.n)] + [sorted(rng.choices(range(1, t.n + 1), k=2)) for _ in range(20)]
    for c in range(1, nav.sigma):
        for lo, hi in ranges:
            first = 2 + sum(x < c for x in flat) + flat[: ends[lo - 1]].count(c)
            here = flat[ends[lo - 1] : ends[hi]].count(c)
            want = (first, first + here - 1) if here else None
            assert nav.backward_extend((lo, hi), c) == want


def test_nav_matches_trie_maps():
    rng = random.Random(61)
    for k in range(24):
        t = make_random_trie(rng, 150, 27 if k % 2 else 3)
        if k % 3 == 0:
            t = _with_unused_label(t, rng.randint(1, t.alphabet.sigma))
        order = colex_sort(t)
        _, loaded, _, _ = storage.load_bytes(storage.save_sampled(build_sampled(t, order)))
        for nav in (XbwtNav.from_trie(t, order), loaded.nav):
            _check_nav(nav, t, order, rng)


def test_cover_degenerate(ex26):
    whole = TreeCover.from_trie(ex26, 26)
    assert whole.roots == {1}
    assert whole.component_sizes == [26]
    every = TreeCover.from_trie(ex26, 1)
    assert every.roots == set(range(1, 27))


def test_cover_bounds(ex26):
    cov = TreeCover.from_trie(ex26, 4)
    assert all(s <= 2 * 4 - 1 for s in cov.component_sizes)
    assert len(cov.roots) <= max(1, math.ceil(2 * 26 / 4))
    rng = random.Random(62)
    for _ in range(25):
        t = make_random_trie(rng, 300, 3)
        for t_par in {2, 4, max(2, int(math.isqrt(t.n)))}:
            if t_par > t.n:
                continue
            cov = TreeCover.from_trie(t, t_par)
            assert all(s <= 2 * t_par - 1 for s in cov.component_sizes)
            assert len(cov.roots) <= max(1, math.ceil(2 * t.n / t_par))


def test_sampled_preorder_is_the_permutation(ex26, ex26_colex):
    for t_par in (1, 2, 4, 6, 26):
        sl, _ = SampledLocate.build(ex26, ex26_colex, t_par)
        got = [sl.sampled_preorder(i) for i in range(1, 27)]
        assert got == EX26_COLEX_TO_PRE


def test_sampled_preorder_random_tries():
    rng = random.Random(63)
    for _ in range(20):
        t = make_random_trie(rng, 250, rng.choice([2, 3, 5]))
        order = colex_sort(t)
        for t_par in {1, 2, max(1, int(math.isqrt(t.n))), t.n}:
            sl, _ = SampledLocate.build(t, order, t_par)
            for i in range(1, t.n + 1):
                assert sl.sampled_preorder(i) == int(order.colex_to_pre[i])


def test_sampled_locate_examples(ex26, ex26_colex):
    sl, _ = SampledLocate.build(ex26, ex26_colex, 4)
    assert sl.locate(b"ac") == [18, 7, 13]
    assert sl.locate(b"") == EX26_COLEX_TO_PRE
    assert sl.locate(b"bb") == []


def test_sampled_locate_matches_oracle():
    rng = random.Random(64)
    for _ in range(15):
        t = make_random_trie(rng, 200, 3)
        order = colex_sort(t)
        sl = build_sampled(t, order)
        for pat in present_patterns(t, rng, 12) + [b"zz", b""]:
            want = oracle_locate(t, pat, order)
            assert sl.locate(pat) == want
            assert sl.count(pat) == len(want)
