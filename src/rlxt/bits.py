"""Bit-level primitives: the sparse rank/select bitvector and the array helpers.

All public positions are 1-based. ``rank1(i)`` counts set bits in positions
``1..i``; ``select1(j)`` returns the position of the j-th set bit. The sparse
vector keeps an :func:`int_array` (``array('i')`` while its values are below
2**31) searched with ``bisect``, because a query makes one scalar lookup at a
time and a scalar numpy call costs several times more.

:class:`BitVec` and :class:`WaveletSeq` have no caller in the library. They
stay, with their tests, only because the traced benchmark (``bench/spans.py``)
patches their methods by name; they go once it stops (ROADMAP item 1).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

import numpy as np


def int_array(values):
    """``values`` (a sequence or an integer numpy array) as an ``array('i')``
    when every value fits a signed 32-bit int, else an ``array('q')``, of
    exactly that length. Item reads and ``bisect`` work alike on both. Building one from
    bytes or by appending over-allocates, and one built from a list of Python
    ints first holds the list: 36 B per entry beside the array's 4 or 8."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        values = values.astype(np.int64)
    narrow = not len(values) or (values.min() >= -(1 << 31) and values.max() < 1 << 31)
    out = array("i" if narrow else "q", [0]) * len(values)
    np.frombuffer(out, dtype=out.typecode)[:] = values
    return out


def sorted_set(values):
    """``values`` as a strictly increasing int64 array, as ``np.unique``
    gives it. Input that already is one, as every table read from an index
    file is, costs one vector comparison; otherwise a stable sort merges
    presorted runs (such as two sorted tables laid end to end) in linear
    time, and repeats are dropped."""
    v = np.asarray(values, dtype=np.int64).ravel()
    if len(v) < 2 or (v[1:] > v[:-1]).all():
        return v
    v = np.sort(v, kind="stable")
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def concat_ranges(starts, lengths):
    """The ranges ``starts[k] .. starts[k] + lengths[k] - 1`` end to end, as
    one int64 array: the gather index of variable-length rows."""
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(np.asarray(starts, dtype=np.int64) - offsets, lengths) + np.arange(
        int(lengths.sum()))


class BitVec:
    """Dense bitvector with O(1) rank and O(log n) select.

    The rank directory is a prefix-sum array over the raw bits; select is a
    binary search over the stored positions of set bits. No library code
    uses it: it is kept for ``bench/spans.py``'s patches until ROADMAP item 1.
    """

    __slots__ = ("bits", "_cum", "_ones", "_zeros")

    def __init__(self, bits):
        self.bits = np.asarray(bits, dtype=np.uint8)
        if self.bits.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        self._cum = np.zeros(len(self.bits) + 1, dtype=np.int64)
        np.cumsum(self.bits, out=self._cum[1:])
        self._ones = np.flatnonzero(self.bits).astype(np.int64) + 1
        self._zeros = None  # built lazily; only the wavelet select path needs it

    def __len__(self):
        return len(self.bits)

    @property
    def num_ones(self):
        return len(self._ones)

    def get(self, i):
        if not 1 <= i <= len(self.bits):
            raise IndexError(f"bit position {i} out of range 1..{len(self.bits)}")
        return int(self.bits[i - 1])

    def rank1(self, i):
        if not 0 <= i <= len(self.bits):
            raise IndexError(f"rank prefix {i} out of range 0..{len(self.bits)}")
        return int(self._cum[i])

    def rank0(self, i):
        return i - self.rank1(i)

    def select1(self, j):
        if not 1 <= j <= len(self._ones):
            raise IndexError(f"select1({j}): vector has {len(self._ones)} set bits")
        return int(self._ones[j - 1])

    def select0(self, j):
        if self._zeros is None:
            self._zeros = np.flatnonzero(self.bits == 0).astype(np.int64) + 1
        if not 1 <= j <= len(self._zeros):
            raise IndexError(f"select0({j}): vector has {len(self._zeros)} zero bits")
        return int(self._zeros[j - 1])

    def succ1(self, i):
        """First position >= i holding a 1, or None."""
        if not 1 <= i <= len(self.bits) + 1:
            raise IndexError(f"succ1 position {i} out of range")
        k = np.searchsorted(self._ones, i, side="left")
        if k == len(self._ones):
            return None
        return int(self._ones[k])

    def pred1(self, i):
        """Last position <= i holding a 1, or None."""
        k = np.searchsorted(self._ones, i, side="right")
        if k == 0:
            return None
        return int(self._ones[k - 1])


def pack_bits(bits):
    """0/1 values as 8 little-endian bytes of count, then the bits packed
    eight to a byte, first bit highest."""
    bits = np.asarray(bits, dtype=np.uint8)
    return len(bits).to_bytes(8, "little") + np.packbits(bits).tobytes()


def unpack_bits(data, offset=0):
    """The bits of a :func:`pack_bits` payload, as a uint8 array, and the
    offset after it. They are sized from the payload: a stored count past
    the bytes that follow gives only their bits, and an offset past
    ``data``. A ValueError says that a padding bit of the last byte is set,
    which :func:`pack_bits` never writes."""
    n = int.from_bytes(data[offset : offset + 8], "little")
    nbytes = (n + 7) // 8
    raw = np.frombuffer(data[offset + 8 : offset + 8 + nbytes], dtype=np.uint8)
    if len(raw) == nbytes and n % 8 and raw[-1] & (0xFF >> n % 8):
        raise ValueError("a padding bit of the packed bits is set")
    return np.unpackbits(raw)[:n], offset + 8 + nbytes


class SparseBitVec:
    """Bitvector stored as the sorted positions of its set bits.

    Same rank/select algebra as :class:`BitVec`; space is proportional to the
    number of set bits, which is what the O(r log n) components rely on.
    ``positions`` is an :func:`int_array`, 4 bytes per set bit while the
    universe is below 2**31: every query is one ``bisect`` or one item read
    on it.
    """

    __slots__ = ("universe", "positions")

    def __init__(self, universe, positions):
        self.universe = int(universe)
        pos = sorted_set(positions)
        if len(pos) and (pos[0] < 1 or pos[-1] > self.universe):
            raise ValueError("positions out of universe range")
        self.positions = int_array(pos)

    def __len__(self):
        return self.universe

    @property
    def num_ones(self):
        return len(self.positions)

    def get(self, i):
        if not 1 <= i <= self.universe:
            raise IndexError(f"bit position {i} out of range 1..{self.universe}")
        pos = self.positions
        k = bisect_left(pos, i)
        return int(k < len(pos) and pos[k] == i)

    def contains(self, i):
        pos = self.positions
        k = bisect_left(pos, i)
        return k < len(pos) and pos[k] == i

    def rank1(self, i):
        if not 0 <= i <= self.universe:
            raise IndexError(f"rank prefix {i} out of range 0..{self.universe}")
        return bisect_right(self.positions, i)

    def rank0(self, i):
        return i - self.rank1(i)

    def select1(self, j):
        if not 1 <= j <= len(self.positions):
            raise IndexError(f"select1({j}): vector has {len(self.positions)} set bits")
        return self.positions[j - 1]

    def succ1(self, i):
        if not 1 <= i <= self.universe + 1:
            raise IndexError(f"succ1 position {i} out of range")
        pos = self.positions
        k = bisect_left(pos, i)
        return pos[k] if k < len(pos) else None

    def pred1(self, i):
        k = bisect_right(self.positions, i)
        return self.positions[k - 1] if k else None


class WaveletSeq:
    """Wavelet sequence over a small static alphabet 0..sigma-1.

    Supports access, per-symbol rank/select, and counting all symbols of a
    lexicographic range inside a prefix (three-sided range counting). Built as
    a pointerless wavelet tree: one BitVec per level, nodes partitioned
    stably left-to-right. No library code uses it: it is kept for
    ``bench/spans.py``'s patches until ROADMAP item 1.
    """

    __slots__ = ("sigma", "length", "levels", "level_bits")

    def __init__(self, seq, sigma):
        seq = np.asarray(seq, dtype=np.int64)
        if len(seq) and (seq.min() < 0 or seq.max() >= sigma):
            raise ValueError("symbol out of alphabet range")
        self.sigma = int(sigma)
        self.length = len(seq)
        self.levels = max(1, int(np.ceil(np.log2(self.sigma))) if self.sigma > 1 else 1)
        self.level_bits = []
        nodes = [seq]  # per-node element sequences, left to right
        for lev in range(self.levels):
            shift = self.levels - 1 - lev
            parts = [(part >> shift) & 1 for part in nodes]
            bits = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
            self.level_bits.append(BitVec(bits))
            nxt = []
            for part, b in zip(nodes, parts):
                nxt.append(part[b == 0])
                nxt.append(part[b == 1])
            nodes = nxt

    def __len__(self):
        return self.length

    def access(self, i):
        if not 1 <= i <= self.length:
            raise IndexError(f"access position {i} out of range 1..{self.length}")
        s, e = 0, self.length
        p = i - 1  # offset of the element inside the current node
        sym = 0
        for lev in range(self.levels):
            bv = self.level_bits[lev]
            r0s = bv.rank0(s)
            zeros = bv.rank0(e) - r0s
            b = bv.get(s + p + 1)
            sym = (sym << 1) | b
            if b == 0:
                p = bv.rank0(s + p) - r0s
                s, e = s, s + zeros
            else:
                p = bv.rank1(s + p) - bv.rank1(s)
                s, e = s + zeros, e
        return sym

    def rank(self, c, i):
        """Occurrences of symbol c in the prefix of length i."""
        if not 0 <= c < self.sigma:
            raise IndexError(f"symbol {c} out of alphabet 0..{self.sigma - 1}")
        if not 0 <= i <= self.length:
            raise IndexError(f"rank prefix {i} out of range 0..{self.length}")
        if i == 0:
            return 0
        s, e = 0, self.length
        p = i
        for lev in range(self.levels):
            bv = self.level_bits[lev]
            shift = self.levels - 1 - lev
            b = (c >> shift) & 1
            r0s = bv.rank0(s)
            zeros = bv.rank0(e) - r0s
            zeros_p = bv.rank0(s + p) - r0s
            if b == 0:
                p = zeros_p
                s, e = s, s + zeros
            else:
                p = p - zeros_p
                s, e = s + zeros, e
            if p == 0:
                return 0
        return p

    def select(self, c, j):
        """Position of the j-th occurrence of symbol c (inverse of rank)."""
        if not 0 <= c < self.sigma:
            raise IndexError(f"symbol {c} out of alphabet 0..{self.sigma - 1}")
        if j < 1:
            raise IndexError("select occurrence index must be >= 1")
        path = []
        s, e = 0, self.length
        for lev in range(self.levels):
            bv = self.level_bits[lev]
            shift = self.levels - 1 - lev
            b = (c >> shift) & 1
            zeros = bv.rank0(e) - bv.rank0(s)
            path.append((s, b))
            if b == 0:
                s, e = s, s + zeros
            else:
                s, e = s + zeros, e
        if j > e - s:
            raise IndexError(f"select({c},{j}): only {e - s} occurrences")
        # ascend from the leaf, translating the offset through each level
        o = j - 1
        for lev in range(self.levels - 1, -1, -1):
            s, b = path[lev]
            bv = self.level_bits[lev]
            if b == 0:
                o = bv.select0(bv.rank0(s) + o + 1) - s - 1
            else:
                o = bv.select1(bv.rank1(s) + o + 1) - s - 1
        return o + 1

    def range_rank(self, a, b, i):
        """Count of symbols in the lexicographic range [a, b] within prefix i."""
        if a > b:
            return 0
        if not (0 <= a < self.sigma and 0 <= b < self.sigma):
            raise IndexError("symbol range out of alphabet")
        if not 0 <= i <= self.length:
            raise IndexError(f"rank prefix {i} out of range 0..{self.length}")
        if i == 0:
            return 0
        total = 0
        # stack of (level, node_start, node_end, sym_lo, sym_hi, prefix_count)
        width = 1 << self.levels
        stack = [(0, 0, self.length, 0, width - 1, i)]
        while stack:
            lev, s, e, lo, hi, p = stack.pop()
            if p == 0 or lo > b or hi < a:
                continue
            if a <= lo and hi <= b:
                total += p
                continue
            bv = self.level_bits[lev]
            r0s = bv.rank0(s)
            zeros = bv.rank0(e) - r0s
            zeros_p = bv.rank0(s + p) - r0s
            mid = (lo + hi) // 2
            stack.append((lev + 1, s, s + zeros, lo, mid, zeros_p))
            stack.append((lev + 1, s + zeros, e, mid + 1, hi, p - zeros_p))
        return total
