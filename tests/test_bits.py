import random
import sys
from array import array

import numpy as np
import pytest

from rlxt.bits import BitVec, SparseBitVec, WaveletSeq, int_array, sorted_set

# S' of the running example, encoded over the order a- < b- < c- < a+ < b+ < c+ < /
# with a,b,c = label codes 1,2,3: minus(c) = c-1, plus(c) = 2+c, slash = 6.
SP_MINUS = {1: 0, 2: 1, 3: 2}
SP_PLUS = {1: 3, 2: 4, 3: 5}
SP_SLASH = 6
SP_EX26 = [3, 4, 5, 6, 0, 2, 6, 1, 6, 3, 5, 6, 0, 2, 6, 4, 5, 6, 1, 2, 6, 3, 6]


def test_rank_examples():
    bv = BitVec([1, 0, 1, 1, 0, 1])
    assert bv.rank1(4) == 3
    assert bv.rank1(0) == 0
    assert BitVec([1] * 8).rank1(8) == 8


def test_select_examples():
    bv = BitVec([1, 0, 1, 1, 0, 1])
    assert bv.select1(2) == 3
    assert BitVec([1]).select1(1) == 1
    with pytest.raises(IndexError):
        BitVec([0, 0, 0]).select1(1)


def test_succ_examples():
    bv = BitVec([0, 1, 0, 0, 1, 0, 0])
    assert bv.succ1(3) == 5
    assert bv.succ1(6) is None
    assert bv.succ1(2) == 2


def test_rank_select_algebra_random():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 4000)
        bits = [rng.random() < rng.random() for _ in range(n)]
        bv = BitVec(bits)
        for _ in range(50):
            i = rng.randint(0, n)
            assert bv.rank1(i) + bv.rank0(i) == i
            assert bv.rank1(i) == sum(bits[:i])
            if bv.rank1(i) >= 1:
                assert bv.select1(bv.rank1(i)) <= i
        ones = [k + 1 for k, b in enumerate(bits) if b]
        for j, pos in enumerate(ones, 1):
            assert bv.select1(j) == pos


def test_sparse_matches_dense():
    rng = random.Random(8)
    for _ in range(15):
        n = rng.randint(1, 2000)
        positions = sorted(rng.sample(range(1, n + 1), rng.randint(0, min(n, 50))))
        bits = [0] * n
        for p in positions:
            bits[p - 1] = 1
        bv, sv = BitVec(bits), SparseBitVec(n, positions)
        for _ in range(60):
            i = rng.randint(0, n)
            assert bv.rank1(i) == sv.rank1(i)
            if i >= 1:
                assert bv.succ1(i) == sv.succ1(i)
                assert bv.get(i) == sv.get(i)
        for j in range(1, len(positions) + 1):
            assert bv.select1(j) == sv.select1(j)


def test_sparse_round_trip_and_ends():
    rng = random.Random(10)
    for positions in ([], [1], [5], [1, 5], sorted(rng.sample(range(1, 301), 40))):
        n = 5 if positions in ([5], [1, 5]) else 300
        sv2 = SparseBitVec(n, positions)
        assert sv2.universe == n and list(sv2.positions) == positions
        bits = [0] * n
        for p in positions:
            bits[p - 1] = 1
        bv = BitVec(bits)
        # both ends of the universe, and one past the last position
        for i in (1, 2, n - 1, n, n + 1):
            assert sv2.succ1(i) == bv.succ1(i)
        for i in (0, 1, 2, n - 1, n):
            assert sv2.pred1(i) == bv.pred1(i)
            assert sv2.rank1(i) == bv.rank1(i)
        for i in range(1, n + 1):
            assert sv2.contains(i) == bool(bits[i - 1]) == sv2.get(i)
        with pytest.raises(IndexError):
            sv2.succ1(n + 2)
        with pytest.raises(IndexError):
            sv2.get(0)
        with pytest.raises(IndexError):
            sv2.select1(len(positions) + 1)
        with pytest.raises(IndexError):
            sv2.select1(0)  # not a wrap to the last position


def test_sorted_set_keeps_the_integer_dtype_it_is_given():
    # a loaded id column read at its narrow width is not widened on the way
    # into a SparseBitVec; anything that is not an integer array is int64
    for dtype in (np.uint8, np.uint16, np.int32, np.uint64):
        v = sorted_set(np.array([9, 3, 3, 7], dtype=dtype))
        assert v.dtype == dtype and v.tolist() == [3, 7, 9]
        done = sorted_set(np.array([1, 4], dtype=dtype))
        assert done.dtype == dtype and done.tolist() == [1, 4]
    for values in ([5, 2, 5], (2.0, 5.0), []):
        assert sorted_set(values).dtype == np.int64
    assert sorted_set([5, 2, 5]).tolist() == [2, 5]


def test_int_array_width_and_exact_size():
    # the narrowest unsigned width that holds every value: each boundary
    # value and the one past it
    cases = [([], "B"), ([7], "B"), ([0, 255], "B"), ([256], "H"),
             ([65_535], "H"), (np.arange(46_612, dtype=np.int64), "H"), ([65_536], "I"),
             ([2**32 - 1], "I"), ([2**32], "Q"), (np.array([2**64 - 1], dtype=np.uint64), "Q"),
             (np.arange(5, dtype=np.int16), "B")]
    for values, code in cases:
        out = int_array(values)
        assert out.typecode == code and list(out) == list(values)
        assert out.itemsize == {"B": 1, "H": 2, "I": 4, "Q": 8}[code]
        assert sys.getsizeof(out) == sys.getsizeof(array(code)) + out.itemsize * len(values)
    # a negative value has no unsigned width: it raises rather than wraps
    for values in ([-1], [128, -1], np.array([5, -2**63], dtype=np.int64)):
        with pytest.raises(ValueError):
            int_array(values)


def test_wavelet_sprime_examples():
    ws = WaveletSeq(SP_EX26, 7)
    assert ws.rank(SP_SLASH, 23) == 8
    assert ws.rank(SP_PLUS[1], 23) == 3  # a+ at positions 1, 10, 22
    assert ws.rank(SP_PLUS[1], 0) == 0
    assert ws.select(SP_SLASH, 1) == 4
    assert ws.select(SP_SLASH, 6) == 18
    # plus-range and minus-range counts in the prefix of length 18
    assert ws.range_rank(SP_PLUS[1], SP_PLUS[3], 18) == 7
    assert ws.range_rank(SP_MINUS[1], SP_MINUS[3], 18) == 5
    assert ws.range_rank(SP_MINUS[1], SP_PLUS[3], 0) == 0


def test_wavelet_select_inverts_rank():
    ws = WaveletSeq(SP_EX26, 7)
    for p, sym in enumerate(SP_EX26, 1):
        assert ws.access(p) == sym
        assert ws.select(sym, ws.rank(sym, p)) == p


def test_wavelet_random_against_naive():
    rng = random.Random(10)
    for _ in range(12):
        sigma = rng.choice([1, 2, 3, 5, 9, 16])
        n = rng.randint(1, 1500)
        seq = [rng.randrange(sigma) for _ in range(n)]
        ws = WaveletSeq(seq, sigma)
        for _ in range(40):
            i = rng.randint(0, n)
            c = rng.randrange(sigma)
            assert ws.rank(c, i) == seq[:i].count(c)
            a = rng.randrange(sigma)
            b = rng.randrange(a, sigma)
            want = sum(seq[:i].count(d) for d in range(a, b + 1))
            assert ws.range_rank(a, b, i) == want
            assert want == sum(ws.rank(d, i) for d in range(a, b + 1))
        for c in range(sigma):
            occ = [k + 1 for k, s in enumerate(seq) if s == c]
            for j, pos in enumerate(occ, 1):
                assert ws.select(c, j) == pos
            with pytest.raises(IndexError):
                ws.select(c, len(occ) + 1)
