import random
from bisect import bisect_left, bisect_right
from collections import Counter

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
    checked_toehold,
    is_blue,
    is_colored,
    is_red,
    isc,
    make_dictionary,
    make_random_trie,
    path_trie,
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


def test_type2_keys_are_the_uncolored_type2_nodes(ex26):
    # the set difference of the type-2 nodes and the colored ids, as numpy
    # computes it, on random tries with sigma 2 to 100, the one-node trie, a
    # star and a path, built and loaded: sorted, distinct and uncolored
    rng = random.Random(48)
    tries = [ex26] + [make_random_trie(rng, 300, sigma)
                      for sigma in (2, 3, 5, 27, 64, 65, 100) for _ in range(3)]
    tries += [build_from_strings([]), build_from_strings([bytes([b]) for b in range(33, 233)]),
              path_trie(b"acgt" * 50)]
    kept = 0
    for t in tries:
        order = colex_sort(t)
        built = build_index(t, order)
        want = np.setdiff1d(type2_nodes(OutSets(t, order), order),
                            built.colors.colored.positions).tolist()
        kept += len(want)
        _, loaded, _, _ = storage.load_bytes(storage.save_rindex(built))
        for idx in (built, loaded):
            keys = list(idx.samples.type2_keys)
            assert keys == want
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert set(keys).isdisjoint(idx.colors.colored.positions)
    assert kept


def test_single_node_index():
    idx = build_index(build_from_strings([]))
    assert idx.colors.red.num_ones == 0 and idx.colors.blue.num_ones == 0
    assert len(idx.samples.anchor) == 0 and len(idx.samples.type2_keys) == 0
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
    assert isc(idx26, 3, 2) == 1
    with pytest.raises(DomainError):
        isc(idx26, 3, 1)
    with pytest.raises(DomainError):
        isc(idx26, 4, 1)  # not a run-break node


def test_isc_on_corrected_shared_label_trie():
    # two subtrees reached along the same label whose roots are colex-adjacent:
    # u (out {a,c}) is red, its successor v has out {c,d}; the shared label c
    # is u's 2nd child and v's 1st
    t = build_from_strings([b"aea", b"aec", b"bec", b"bed"])
    order = colex_sort(t)
    u, v = 3, 7  # "ae" and "be"
    assert int(order.pre_to_colex[v]) == int(order.pre_to_colex[u]) + 1
    idx = build_index(t)
    assert is_red(idx.colors, u)
    assert isc(idx, u, 2) == 1


def test_locate_examples(idx26):
    assert idx26.locate(b"ac") == [18, 7, 13]
    assert idx26.locate(b"b") == [22, 14, 6, 5, 12, 24, 16, 19, 8]
    assert idx26.locate(b"") == EX26_COLEX_TO_PRE


def test_count_examples(idx26):
    assert idx26.count(b"ac") == 3
    assert idx26.count(b"") == 26
    assert idx26.count(b"ca") == 2
    assert idx26.count(b"zzz") == 0


class _Untouchable:
    """Stands in for a table that must not be read: any access raises."""

    def __init__(self, name):
        self.name = name

    def _refuse(self, *args):
        raise AssertionError(f"{self.name} was read")

    __getattr__ = __getitem__ = __len__ = __iter__ = __bool__ = __index__ = _refuse


def test_count_skips_the_toehold(monkeypatch):
    # count is a range-only backward search: the block heads and the
    # subtree sizes the child step reads belong to locate's toehold
    rng = random.Random(43)
    t = make_random_trie(rng, 180, 4)
    idx = build_index(t)
    pats = _pattern_suite(t, rng) + [b""]
    want = [len(idx.locate(pat)) for pat in pats]

    monkeypatch.setattr(idx.rlx, "block_head", _Untouchable("rlx.block_head"))
    monkeypatch.setattr(idx.topo, "subtree_size", _Untouchable("topo.subtree_size"))
    with pytest.raises(AssertionError, match="was read"):
        idx.toehold_search(next(pat for pat, w in zip(pats, want) if w))
    assert [idx.count(pat) for pat in pats] == want
    assert any(want)


def _count_searches(monkeypatch):
    """A list that grows by the table searched, per search made through
    ``rindex.bisect_right``."""
    searched = []
    real = rindex.bisect_right

    def counting(a, *args):
        searched.append(a)
        return real(a, *args)

    monkeypatch.setattr(rindex, "bisect_right", counting)
    return searched


def test_toehold_searches_blocks_at_most_twice_per_symbol(monkeypatch):
    # one block search per range end at most: the toehold's constant over
    # the r' block starts, counted on a loaded index. The first step, from
    # the whole range, reads the C array and searches nothing
    searched = _count_searches(monkeypatch)
    rng = random.Random(45)
    t = make_random_trie(rng, 200, 5)
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
    for pat in present_patterns(t, rng, 60):
        searched.clear()
        assert idx.toehold_search(pat) is not None
        blocks = sum(a is idx.rlx.starts for a in searched)
        assert len(pat) == 1 or 0 < blocks
        assert blocks <= 2 * (len(pat) - 1)
    # the path z y x^40: node z is co-lex-last, with out-set {y}. So y's
    # range is that one node, and each x-step after it extends a one-node
    # range: every range after the whole one sits in one block, and each
    # step from it searches the block starts once. count searches x's run
    # starts once per step instead, and the block starts never
    t = build_from_strings([b"zy" + b"x" * 40])
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
    pat = b"y" + b"x" * 30
    (x,) = idx.alphabet.encode(b"x")
    searched.clear()
    assert idx.toehold_search(pat) == ((12, 12), 33)
    assert sum(a is idx.rlx.starts for a in searched) == len(pat) - 1
    searched.clear()
    assert idx.count(pat) == 1
    assert len(searched) == len(pat) - 1
    assert all(a is idx.rlx.run_start[x] for a in searched)


def test_toehold_step_searches_at_most_four_times(monkeypatch):
    # the child rank is a popcount, so a step's searches do not grow with
    # its label: on an alphabet of 130, with labels past 100, each step
    # after the first searches at most twice over the block starts and four
    # times in all, only over the block starts and its label's run starts. A
    # step's searches are those of the pattern through it less those of the
    # pattern before it
    searched = _count_searches(monkeypatch)
    rng = random.Random(46)
    alpha = bytes(range(33, 33 + 130))
    t = build_from_strings([bytes([b]) for b in alpha] + make_dictionary(rng, 600, alpha, 1, 6))
    assert t.alphabet.sigma >= 120
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
    rlx = idx.rlx
    top = 0
    for pat in present_patterns(t, rng, 100):
        codes = idx.alphabet.encode(pat)
        done = 0
        for j, c in enumerate(codes):
            searched.clear()
            assert idx.toehold_search(pat[: j + 1]) is not None
            step = searched[done:]
            done = len(searched)
            blocks = sum(a is rlx.starts for a in step)
            assert (j == 0) == (not step)
            assert 1 <= blocks <= 2 or j == 0
            assert len(step) <= 4
            assert all(a is rlx.starts or a is rlx.run_start[c] for a in step)
            top = max(top, c)
    assert top >= 100


def test_count_step_searches_at_most_twice_over_its_run_starts(monkeypatch):
    # count reads no block start: on an alphabet of 130, with labels past
    # 100, each step after the first searches c's run starts once, twice
    # where hi lies past the run that lo's successor starts or lies in, and
    # nothing else. The first step, from the whole range, searches nothing
    searched = _count_searches(monkeypatch)
    rng = random.Random(47)
    alpha = bytes(range(33, 33 + 130))
    t = build_from_strings([bytes([b]) for b in alpha] + make_dictionary(rng, 600, alpha, 1, 6))
    assert t.alphabet.sigma > 64
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
    rlx = idx.rlx
    top = twice = 0
    for pat in present_patterns(t, rng, 100) + random_patterns(rng, alpha, 100):
        codes = idx.alphabet.encode(pat)
        done = 0
        for j, c in enumerate(codes):
            searched.clear()
            if idx.count(pat[: j + 1]) == 0:
                break
            step = searched[done:]
            done = len(searched)
            assert (j == 0) == (not step) and len(step) <= 2
            assert all(a is rlx.run_start[c] for a in step)
            twice += len(step) == 2
            top = max(top, c)
    assert top >= 100 and twice


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


def _phi_folded(idx, toehold):
    """``locate`` as it was defined before it read block heads: the
    toehold's first node, then ``phi`` folded over the rest of its range."""
    (lo, hi), node = toehold
    out = [node]
    for _ in range(hi - lo):
        out.append(idx.phi(out[-1]))
    return out


def test_locate_reads_block_heads_and_climbs_between_them():
    # locate is the toehold's first node, then phi folded hi - lo times, on
    # random tries with label pools of 2, 5, 27 and 100, a comb (spine x^200
    # with a leaf a under every spine node), a star of degree 200 and a path;
    # each index is saved and loaded. A position that starts a block is read
    # off its head, so one locate makes hi - lo phi calls less one per block
    # start in (lo, hi]
    rng = random.Random(52)
    tries = [make_random_trie(rng, 250, sigma) for sigma in (2, 5, 27, 100)]
    tries.append(build_from_strings([b"x" * i + b"a" for i in range(201)] + [b"x" * 200]))
    tries.append(build_from_strings([bytes([b]) for b in range(33, 233)]))
    tries.append(build_from_strings([bytes(rng.choice(b"acgt") for _ in range(300))]))
    heads_read = ends_last = starts_on_head = 0
    for t in tries:
        _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
        starts = idx.rlx.starts
        for pat in _pattern_suite(t, rng) + [b""]:
            got = idx.toehold_search(pat)
            if got is None:
                assert idx.locate(pat) == []
                continue
            (lo, hi), _ = got
            want = _phi_folded(idx, got)
            heads = bisect_right(starts, hi) - bisect_right(starts, lo)
            before = sum(idx.case_counters.values())
            assert idx.locate(pat) == want, pat
            assert sum(idx.case_counters.values()) - before == hi - lo - heads, pat
            heads_read += heads
            ends_last += hi == idx.n
            starts_on_head += lo > 1 and lo in starts
    assert heads_read and ends_last and starts_on_head


def test_locate_catches_a_climb_out_of_step_at_the_next_block(ex26):
    # each blue-only sample and type-2 value in turn overwritten with 0, 1, n
    # and a neighbouring id. A climbed node before a block start must end the
    # block before it, so where phi folded over the range answers wrongly,
    # locate raises instead of reading the heads back in step; where both
    # answer, they agree
    rng = random.Random(53)
    caught = 0
    for t in (ex26, make_random_trie(rng, 300, 3), make_random_trie(rng, 300, 6)):
        idx = build_index(t)
        n = idx.n
        pats = present_patterns(t, rng, 25) + [b""]
        right = [idx.locate(p) for p in pats]

        def folded(pat):
            return _phi_folded(idx, idx.toehold_search(pat))

        def outcome(query, pat):  # any other exception fails the test
            try:
                return query(pat)
            except (DomainError, IndexError, NoSuccessorError) as e:
                return type(e)

        for table in (idx.samples.blue_values, idx.samples.type2_values):
            for k in range(len(table)):
                kept = table[k]
                for bad in {0, 1, n, kept - 1 if kept > 1 else kept + 1} - {kept}:
                    table[k] = bad
                    for pat, want in zip(pats, right):
                        old, got = outcome(folded, pat), outcome(idx.locate, pat)
                        if isinstance(got, list):
                            assert not isinstance(old, list) or got == old, (k, bad, pat)
                        else:
                            caught += isinstance(old, list) and old != want
                table[k] = kept
    assert caught


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
    assert not is_colored(idx26.colors, 0)
    assert not is_colored(idx26.colors, n + 1)
    assert [u for u in range(1, n + 1) if is_colored(idx26.colors, u)] == sorted(
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
            has_red = any(is_red(idx.colors, w) for w in range(u, u + int(size[u])))
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
            if any(is_blue(idx.colors, w) for w in chain[1:]):
                continue
            if any(is_red(idx.colors, w) for w in chain[:-1]):
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
                if not is_red(idx.colors, u):
                    continue
                cur = [int(c) for c in t.out_labels(u)]
                nxt = [int(c) for c in t.out_labels(int(order.colex_to_pre[i + 1]))]
                for k, c in enumerate(cur, 1):
                    if c in nxt:
                        assert isc(idx, u, k) == nxt.index(c) + 1
                    else:
                        with pytest.raises(DomainError):
                            isc(idx, u, k)


def _checked_phi(idx, u):
    """The climb composed of the topology's checked public calls: the
    reference the fused ``RIndex.phi`` must agree with. Returns
    (successor, case)."""
    topo, colors, samples = idx.topo, idx.colors, idx.samples

    def value(x):
        keys = colors.colored.positions
        k = bisect_left(keys, x)
        if k < len(keys) and keys[k] == x:
            table, i = samples.slot(k)
            return table[i]
        raise DomainError(f"node {x} is not colored")

    def case1(x):
        if is_colored(colors, x):
            return value(x)
        j = topo.next_marked_in_subtree(colors.colored, x)
        if j is None:
            return None
        return topo.laq(value(j), topo.depth(j) - topo.depth(x))

    if u == idx.last:
        raise NoSuccessorError(f"node {u} is last in co-lex order")
    succ = case1(u)
    if succ is not None:
        return succ, "1"
    a = topo.lowest_covering_ancestor(colors.colored, u)
    k_node = topo.laq(u, topo.depth(u) - topo.depth(a) - 1)
    if is_red(colors, a):
        case, u_k1 = "2.2.1", samples.type2_value(k_node)
        if u_k1 is None:
            case, u_k1 = "2.2.2", topo.cbr(value(a), isc(idx, a, topo.sr(k_node)))
    else:
        case, u_k1 = "2.1", topo.cbr(case1(a), topo.sr(k_node))
    return (u_k1 if k_node == u else topo.isd(k_node, u, u_k1)), case


def _assert_fused_climb_matches(idx):
    for u in range(1, idx.n + 1):
        if u == idx.last:
            continue
        want, case = _checked_phi(idx, u)
        before = dict(idx.case_counters)
        assert idx.phi(u) == want
        assert {k: v - before[k] for k, v in idx.case_counters.items() if v != before[k]} == {
            case: 1}


def test_fused_climb_matches_checked_composition():
    # every non-last node of random tries, a comb (spine x^500 with a leaf a
    # under every spine node), a star of degree 200 (its masks are a list of
    # ints) and a path; each index as built and as loaded
    rng = random.Random(48)
    tries = [make_random_trie(rng, 250, rng.choice([2, 3, 4, 8])) for _ in range(40)]
    tries.append(build_from_strings([b"x" * i + b"a" for i in range(501)] + [b"x" * 500]))
    tries.append(build_from_strings([bytes([b]) for b in range(33, 233)]))
    tries.append(build_from_strings([bytes(rng.choice(b"acgt") for _ in range(300))]))
    assert tries[-2].alphabet.sigma > 64
    seen = set()
    for t in tries:
        built = build_index(t)
        _, loaded, _, _ = storage.load_bytes(storage.save_rindex(built))
        for idx in (built, loaded):
            _assert_fused_climb_matches(idx)
            seen.update(k for k, v in idx.case_counters.items() if v)
    assert seen == {"1", "2.1", "2.2.1", "2.2.2"}


def _checked_count(idx, codes):
    """``count`` as the fold of the checked ``rlxbwt.backward_extend``."""
    rng = (1, idx.n)
    for c in codes:
        rng = rlxbwt.backward_extend(idx.rlx, rng, c)
        if rng is None:
            return 0
    return rng[1] - rng[0] + 1


def test_fused_search_matches_checked_steps():
    # random tries with label pools of 3 to 100 (above 64 the masks are a
    # list of ints), a one-node trie, a star of degree 200, a comb and a
    # path; each index as built and as loaded. For every suite pattern,
    # longer present ones, absent ones and the empty pattern, count and the
    # toehold agree with the checked steps folded, through every branch
    rng = random.Random(50)
    tries = [make_random_trie(rng, 250, sigma) for sigma in (3, 3, 4, 5, 8, 27, 70)]
    tries.append(make_random_trie(rng, 250, 100))
    while tries[-1].alphabet.sigma <= 64:
        tries[-1] = make_random_trie(rng, 250, 100)
    tries += [make_random_trie(rng, 150, rng.choice([2, 3, 4])) for _ in range(12)]
    tries.append(build_from_strings([]))
    tries.append(build_from_strings([bytes([b]) for b in range(33, 233)]))
    tries.append(build_from_strings([b"x" * i + b"a" for i in range(101)] + [b"x" * 100]))
    tries.append(build_from_strings([bytes(rng.choice(b"acgt") for _ in range(300))]))
    assert tries[-3].alphabet.sigma > 64
    branches = Counter()
    for t in tries:
        pats = _pattern_suite(t, rng) + present_patterns(t, rng, 30, max_len=40)
        pats += [b"", b"\x00", b"\xff", b"a\x00"]
        built = build_index(t)
        _, loaded, _, _ = storage.load_bytes(storage.save_rindex(built))
        for idx in (built, loaded):
            for pat in pats:
                codes = idx.alphabet.encode(pat)
                if codes is None:
                    assert idx.count(pat) == 0 and idx.toehold_search(pat) is None
                    continue
                assert idx.count(pat) == _checked_count(idx, codes), pat
                assert idx.toehold_search(pat) == checked_toehold(idx, codes, branches), pat
    assert all(branches[b] for b in
               ("at lo", "next run", "empty", "same", "last", "hi past lo's run"))
    # past 2**16 nodes the run starts are 4 bytes wide, the block numbers 2
    t = build_from_strings(make_dictionary(rng, 17_000, b"abcdefgh"))
    assert t.n >= 2**16
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(t)))
    assert idx.rlx.run_start[1].itemsize == 4 and idx.rlx.r_prime < 2**16
    wide = Counter()
    for pat in present_patterns(t, rng, 30, max_len=8) + random_patterns(rng, b"abcdefghz", 10):
        codes = idx.alphabet.encode(pat)
        assert idx.count(pat) == (0 if codes is None else _checked_count(idx, codes)), pat
        want = None if codes is None else checked_toehold(idx, codes, wide)
        assert idx.toehold_search(pat) == want, pat
    assert wide["hi past lo's run"] and wide["next run"]


def test_fused_search_keeps_the_checks(ex26):
    # each block head but the root, the one table from the file the toehold
    # reads as a node id, overwritten with 0, n, a leaf and a neighbouring
    # id: where the checked steps raise, the fused search raises the same
    # class; where they answer, it agrees
    rng = random.Random(51)
    raised = 0
    for t in (ex26, make_random_trie(rng, 200, 4)):
        idx = build_index(t)
        n = idx.n
        pats = [p for p in _pattern_suite(t, rng) if idx.alphabet.encode(p)]
        leaf = next(u for u in range(n, 0, -1) if idx.topo.subtree_size[u] == 1)

        def checked(pat):
            return checked_toehold(idx, idx.alphabet.encode(pat))

        heads = idx.rlx.block_head
        for q in range(1, len(heads)):
            kept = heads[q]
            for bad in {0, n, leaf, kept + 1 if kept < n else kept - 1}:
                heads[q] = bad
                for pat in pats:
                    want = _outcome(checked, pat)
                    assert _outcome(idx.toehold_search, pat) == want, (q, bad, pat)
                    raised += isinstance(want, type)
            heads[q] = kept
    assert raised


def _outcome(climb, u):
    try:
        return climb(u)
    except (DomainError, IndexError) as e:
        return type(e)
    except Exception as e:  # anything else, TypeError above all, is a failure
        return e


def test_damaged_samples_are_still_caught(ex26):
    # each sample and type-2 value in turn overwritten with 1, n and a
    # neighbouring id: where the checked climb raises, the fused one raises
    # DomainError or IndexError; where it answers, the fused one agrees. The
    # red nodes' samples are the heads of blocks 1.., the blue-only ones'
    # their own table
    rng = random.Random(49)
    big = make_random_trie(rng, 400, 4)
    while big.n < 350:
        big = make_random_trie(rng, 400, 4)
    raised = 0
    for t in (ex26, big):
        idx = build_index(t)
        n = idx.n
        tables = ((idx.rlx.block_head, 1), (idx.samples.blue_values, 0),
                  (idx.samples.type2_values, 0))
        for table, first in tables:
            for k in range(first, len(table)):
                kept = table[k]
                for bad in {1, n, kept - 1 if kept > 1 else kept + 1}:
                    table[k] = bad
                    for u in range(1, n + 1):
                        if u == idx.last:
                            continue
                        want = _outcome(lambda x: _checked_phi(idx, x)[0], u)
                        got = _outcome(idx.phi, u)
                        if isinstance(want, int):
                            assert got == want, (k, bad, u)
                        else:
                            raised += 1
                            assert got in (DomainError, IndexError), (k, bad, u, want, got)
                table[k] = kept
    assert raised >= 40
