"""Index file format.

Layout: magic ``RLXT1``, version byte, engine byte (0 = run-length index,
1 = sampled baseline), reserved byte, little-endian section table
(count, then 8-byte tag / u64 offset / u64 length / CRC-32 per section),
payloads. A section whose payload fails its CRC is rejected before any
decoder reads it. Files round-trip bit-exactly: serializing a loaded index
reproduces the original bytes. Each fact of the transform is stored once:
loading derives the S' node counts and the C array from the blocks, the phi
samples are keyed by the colored set of the ``colors`` section, and the trie
is not rebuilt. Payloads are read in place, as slices of the file. Every
section is laid out in columns (fixed-width or varint streams), each decoded
in one numpy pass with no Python call per value.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .baseline import SampledLocate, XbwtNav
from .bits import SparseBitVec, pack_bits, unpack_bits
from .errors import FormatError, IndexFileError
from .rindex import ColorMarks, IscTables, PhiSamples, RIndex
from .rlxbwt import RlXbwt, per_label, reconstruct_trie  # bench/spans.py patches it here
from .topology import BpsTopology
from .trie import Alphabet, _depths
from .trie import colex_sort  # noqa: F401 (not called; bench/spans.py patches it here)

MAGIC = b"RLXT1"
VERSION = 6
ENGINE_RINDEX = 0
ENGINE_SAMPLED = 1
_ENTRY = struct.Struct("<8sQQI")  # tag, offset, length, CRC-32 of the payload

RINDEX_SECTIONS = ("meta", "topology", "labels", "rlxbwt", "sprime",
                   "colors", "samples", "isc", "runheads")
SAMPLED_SECTIONS = ("meta", "labels", "xbwtflat", "cover")

# the O(r log n)-sized locate machinery, for space accounting
MACHINERY = ("rlxbwt", "sprime", "colors", "samples", "isc", "runheads")


def _w_varint(out, v):
    v = int(v)
    if v < 0:
        raise ValueError("varints are unsigned here")
    while True:
        b = v & 0x7F
        v >>= 7
        if v:
            out.append(b | 0x80)
        else:
            out.append(b)
            return


def _r_varint(data, off):
    shift = 0
    val = 0
    while True:
        b = data[off]
        off += 1
        val |= (b & 0x7F) << shift
        if not b & 0x80:
            return val, off
        shift += 7


def _varints(values):
    """The concatenated ``_w_varint`` (LEB128) bytes of ``values``, encoded
    in bulk: each value's byte count comes from its magnitude, then every
    7-bit group is scattered to its place."""
    v = np.asarray(values, dtype=np.int64).ravel()
    if len(v) and v.min() < 0:
        raise ValueError("varints are unsigned here")
    v = v.astype(np.uint64)
    size = np.ones(len(v), dtype=np.int64)
    for k in range(1, 10):  # 63 bits need 9 groups
        size += (v >> np.uint64(7 * k)) != 0
    first = np.cumsum(size) - size
    out = np.zeros(int(size.sum()), dtype=np.uint8)
    for k in range(int(size.max()) if len(v) else 0):
        more = size > k
        group = (v[more] >> np.uint64(7 * k)) & np.uint64(0x7F)
        out[first[more] + k] = group | np.where(size[more] > k + 1, 0x80, 0).astype(np.uint64)
    return out.tobytes()


def _w_deltas(out, values):
    out += _varints(np.diff(np.asarray(values, dtype=np.int64), prepend=0))


_SCAN = 4096  # bytes per block when counting varint ends

# The varint decoder calls ndarray methods and ufuncs rather than numpy's
# Python-level wrappers (np.diff, np.flatnonzero, ...), so decoding a stream
# costs the same few Python calls whatever its length and value widths.


def _varint_ends(raw, count):
    """Indices in ``raw`` of the last bytes of its first ``count`` varints.
    Ends are counted block by block first, so the index array holds about
    ``count`` entries, not one per end of whatever follows the stream."""
    window = raw[: 9 * count]  # a value below 2**63 takes at most 9 bytes
    is_end = window < 0x80
    full = len(is_end) // _SCAN
    per_block = np.add.reduce(is_end[: full * _SCAN].reshape(full, _SCAN), axis=1)
    b = int(per_block.cumsum().searchsorted(count))  # block holding the count-th end
    ends = is_end[: (b + 1) * _SCAN].nonzero()[0][:count]
    if len(ends) < count:
        if len(window) < 9 * count:
            raise IndexFileError(f"varint stream cut short: {len(ends)} of {count} values")
        raise OverflowError("varint wider than 63 bits")
    return ends


def _r_varints(data, off, count):
    """The ``count`` LEB128 values from ``data[off]`` on, as int64, and the
    offset after them, decoded in one pass. Its int64 temporaries hold one
    entry per value, not per byte: when every value is one byte those bytes
    are the values; otherwise the k-th 7-bit group is ORed into the values
    that have one, for k up to the widest value's byte count."""
    raw = np.frombuffer(data, dtype=np.uint8)[off:]
    head = raw[:count]
    if len(head) == count and (count == 0 or head.max() < 0x80):
        return head.astype(np.int64), off + count
    ends = _varint_ends(raw, count)
    first = ends.copy()  # each value's first byte: one past the previous end
    first[1:] = ends[:-1] + 1
    first[0] = 0
    size = ends - first + 1
    del ends
    width = int(size.max())
    if width > 9:
        raise OverflowError("varint wider than 63 bits")
    vals = (raw[first] & 0x7F).astype(np.int64)
    for k in range(1, width):
        has = (size > k).nonzero()[0]
        vals[has] |= (raw[first[has] + k] & 0x7F).astype(np.int64) << (7 * k)
    return vals, off + int(first[-1] + size[-1])


def _r_deltas(data, off, count):
    vals, off = _r_varints(data, off, count)
    return np.cumsum(vals, out=vals), off


# -- per-section encoders ----------------------------------------------------


def _enc_labels(alphabet, n):
    return struct.pack("<IQ", alphabet.sigma, n) + bytes(alphabet.byte_of_code[1:].tolist())


def _dec_labels(data):
    sigma, n = struct.unpack_from("<IQ", data, 0)
    if len(data) != 12 + sigma - 1:
        raise IndexFileError(f"labels hold {len(data) - 12} bytes for an alphabet of {sigma}")
    try:
        alphabet = Alphabet.of_codes([0, *data[12:]])
    except FormatError as exc:
        raise IndexFileError(f"bad byte map: {exc}") from None
    return alphabet, n


def _enc_rlxbwt(rlx):
    return struct.pack("<I", rlx.r_prime) + _varints(rlx.block_lengths())


def _enc_sprime(rlx):
    # a block's labels are distinct codes below sigma <= 256, so each count fits a byte
    n_add, add_labels, n_del, del_labels = rlx.deltas()
    return np.concatenate((n_add, n_del, add_labels, del_labels)).astype(np.uint8).tobytes()


def _dec_rlx(rlxbwt, sprime, runheads, sigma, n):
    """The run-length XBWT from the block lengths (``rlxbwt``), the S'
    columns (``sprime``: all ADD counts, all DEL counts, all ADD labels, all
    DEL labels) and the run heads' pre-order ids (``runheads``, label after
    label), once the invariants its derivation relies on hold. The run heads
    are decoded only after the S' tables are built, so the two decodings'
    temporaries never coexist."""
    (rp,) = struct.unpack_from("<I", rlxbwt, 0)
    lengths, _ = _r_varints(rlxbwt, 4, rp)
    if (lengths < 1).any() or lengths.max(initial=0) > n or lengths.sum() != n:
        raise IndexFileError(f"rlxbwt block lengths are not positive summing to {n}")
    raw = np.frombuffer(sprime, dtype=np.uint8)
    n_add, n_del = raw[:rp], raw[rp : 2 * rp]
    del_at = 2 * rp + int(n_add.sum())
    end = del_at + int(n_del.sum())
    if end > len(raw):
        raise IndexFileError("rlxbwt labels run past the end of the sprime section")
    if end > 2 * rp and (raw[2 * rp : end].min() < 1 or raw[2 * rp : end].max() >= sigma):
        raise IndexFileError(f"triple label outside 1..{sigma - 1}")
    add_labels, del_labels = raw[2 * rp : del_at], raw[del_at:end]
    try:
        rlx = RlXbwt(sigma, n_add, add_labels, n_del, del_labels, lengths)
    except ValueError as exc:
        raise IndexFileError(f"sprime: {exc}") from None
    if rlx.c_array[-1] != n:
        raise IndexFileError(f"the out-sets hold {rlx.c_array[-1] - 1} children, "
                             f"not one per non-root node ({n - 1})")
    runs = np.bincount(add_labels, minlength=sigma)
    total = int(runs.sum())
    pres, end = _r_varints(runheads, 0, total)
    if end != len(runheads):
        raise IndexFileError(f"runheads holds more than {total} run heads")
    if total and (pres.min() < 1 or pres.max() > n):
        raise IndexFileError(f"run head node outside 1..{n}")
    rlx.head_pre = per_label(pres, runs)
    return rlx


def _enc_colors(colors):
    out = bytearray()
    out += struct.pack("<I", colors.red.num_ones)
    _w_deltas(out, colors.red.positions)
    out += struct.pack("<I", colors.blue.num_ones)
    _w_deltas(out, colors.blue.positions)
    return bytes(out)


def _enc_samples(samples, last):
    # the colored nodes' values need no keys: the colors section gives them
    out = bytearray(_varints(samples.values))
    out += struct.pack("<I", len(samples.type2_keys))
    _w_deltas(out, samples.type2_keys)
    out += _varints(samples.type2_values)
    _w_varint(out, last)  # the co-lex-last node, where phi has no value
    return bytes(out)


def _enc_isc(isc):
    # the 2 * |red| + 1 segment starts need no count: the colors section
    # gives |red|; S, mostly zeros, is packed eight bits to a byte
    out = bytearray()
    _w_deltas(out, isc.starts)
    out += pack_bits(np.frombuffer(isc.s, dtype=np.uint8))
    return bytes(out)


def _enc_runheads(rlx):
    # one varint stream: every label's run heads' pre-order ids, label after label
    return _varints(np.concatenate(rlx.head_pre))


def machinery_sections(index):
    """Serialized payloads of the locate-machinery components."""
    return {
        "rlxbwt": _enc_rlxbwt(index.rlx),
        "sprime": _enc_sprime(index.rlx),
        "colors": _enc_colors(index.colors),
        "samples": _enc_samples(index.samples, index.last),
        "isc": _enc_isc(index.isc_tables),
        "runheads": _enc_runheads(index.rlx),
    }


def machinery_bits(index):
    return 8 * sum(len(b) for b in machinery_sections(index).values())


def header_bytes(count):
    """Bytes before the first payload of a file with ``count`` sections:
    magic, version, engine, reserved byte, count, then the section table."""
    return 12 + _ENTRY.size * count


def _pack(engine, sections):
    off = header_bytes(len(sections))
    table = [MAGIC + bytes([VERSION, engine, 0]), struct.pack("<I", len(sections))]
    for name, payload in sections.items():
        table.append(_ENTRY.pack(name.encode(), off, len(payload), zlib.crc32(payload)))
        off += len(payload)
    return b"".join(table + list(sections.values()))


def _unpack(data):
    if data[:5] != MAGIC:
        raise IndexFileError("bad magic; not an index file")
    if data[5] != VERSION:
        raise IndexFileError(f"unsupported version {data[5]}")
    engine = data[6]
    (count,) = struct.unpack_from("<I", data, 8)
    end = header_bytes(count)
    if end > len(data):
        raise IndexFileError(f"section table of {count} entries runs past the end of the file")
    sections = {}
    for tag, start, length, crc in _ENTRY.iter_unpack(data[12:end]):
        tag = tag.rstrip(b"\0").decode()
        if start + length > len(data):
            raise IndexFileError(f"section {tag!r} runs past the end of the file")
        sections[tag] = data[start : start + length]
        if zlib.crc32(sections[tag]) != crc:
            raise IndexFileError(f"section {tag!r} fails its checksum")
    return engine, sections


def save_rindex(index, meta=None):
    sections = {
        "meta": json.dumps(meta or {}, sort_keys=True).encode(),
        "topology": index.topo.to_bytes(),
        "labels": _enc_labels(index.alphabet, index.n),
    }
    sections.update(machinery_sections(index))
    return _pack(ENGINE_RINDEX, {k: sections[k] for k in RINDEX_SECTIONS})


def _dec_colors(data, n):
    (nred,) = struct.unpack_from("<I", data, 0)
    reds, off = _r_deltas(data, 4, nred)
    (nblue,) = struct.unpack_from("<I", data, off)
    blues, off = _r_deltas(data, off + 4, nblue)
    return ColorMarks(n, reds, blues)


def _check_nodes(nodes, n):
    if len(nodes) and (nodes.min() < 1 or nodes.max() > n):
        raise IndexFileError(f"phi sample node outside 1..{n}")


def _dec_samples(data, colored, n):
    """The phi samples, keyed by the ``colored`` set of the colors section,
    and the co-lex-last node."""
    values, off = _r_varints(data, 0, colored.num_ones)
    _check_nodes(values, n)
    (cnt,) = struct.unpack_from("<I", data, off)
    gaps, off = _r_varints(data, off + 4, cnt)
    if (gaps[1:] < 1).any():
        raise IndexFileError("type-2 sample nodes are not strictly increasing")
    keys = np.cumsum(gaps, out=gaps)
    _check_nodes(keys, n)
    if np.isin(keys, colored.positions, assume_unique=True).any():
        raise IndexFileError("a type-2 sample node is colored")
    type2_values, off = _r_varints(data, off, cnt)
    _check_nodes(type2_values, n)
    samples = PhiSamples(colored, values, keys, type2_values)
    last, off = _r_varint(data, off)
    if off != len(data):
        raise IndexFileError("samples section does not end at the co-lex-last node")
    if not 1 <= last <= n:
        raise IndexFileError(f"co-lex-last node {last} outside 1..{n}")
    if colored.contains(last) or samples.type2_value(last) is not None:
        raise IndexFileError(f"co-lex-last node {last} carries a phi sample")
    return samples, last


def _dec_isc(data, red):
    """The isc tables over the red nodes ``red``, which B1 shares."""
    sts, off = _r_deltas(data, 0, 2 * red.num_ones + 1)
    if (sts[1:] < sts[:-1]).any():  # a running sum that wrapped past 2**63
        raise IndexFileError("isc segment starts decrease")
    # unpack_bits sizes S from the payload, so a stored length too large
    # allocates nothing; the segment starts end one past S
    s_bits, off = unpack_bits(data, off)
    if len(s_bits) != sts[-1] - 1:
        raise IndexFileError(f"isc length {len(s_bits)} does not match its segment starts")
    if off != len(data):
        raise IndexFileError("isc section does not end with S")
    return IscTables(s_bits, red, sts)


def load_rindex(sections):
    """Decode every section in turn; each decoder returns only what the
    index keeps, so its temporaries are freed before the next one runs."""
    meta = json.loads(bytes(sections["meta"]).decode() or "{}")
    topo, _ = BpsTopology.from_bytes(sections["topology"])
    alphabet, n = _dec_labels(sections["labels"])
    if topo.n != n:
        raise IndexFileError(f"topology has {topo.n} nodes, labels {n}")
    rlx = _dec_rlx(sections["rlxbwt"], sections["sprime"], sections["runheads"],
                   alphabet.sigma, n)
    colors = _dec_colors(sections["colors"], n)
    samples, last = _dec_samples(sections["samples"], colors.colored, n)
    isc = _dec_isc(sections["isc"], colors.red)
    idx = RIndex(n, alphabet, last, topo, rlx, colors, samples, isc)
    return idx, meta


def save_sampled(sl, meta=None):
    nav = sl.nav
    out = bytearray()
    out += struct.pack("<Q", nav.n)
    degs = np.diff(nav.node_end)
    out += degs.astype(np.uint8).tobytes()
    out += nav.flat
    cover = bytearray()
    cover += struct.pack("<I", sl.marked.num_ones)
    _w_deltas(cover, sl.marked.positions)
    cover += _varints(sl.samples)
    cover += _varints(np.diff(sl.psums))
    _w_varint(cover, sl.t)
    sections = {
        "meta": json.dumps(meta or {}, sort_keys=True).encode(),
        "labels": _enc_labels(sl.alphabet, nav.n),
        "xbwtflat": bytes(out),
        "cover": bytes(cover),
    }
    return _pack(ENGINE_SAMPLED, {k: sections[k] for k in SAMPLED_SECTIONS})


def load_sampled(sections):
    meta = json.loads(bytes(sections["meta"]).decode() or "{}")
    alphabet, n = _dec_labels(sections["labels"])
    data = sections["xbwtflat"]
    (n2,) = struct.unpack_from("<Q", data, 0)
    # the stored node count sizes every table below: it must match the
    # labels' and the payload's before anything is allocated from it
    if n2 != n or len(data) < 8 + n2:
        raise IndexFileError(f"xbwtflat holds {n2} nodes in {len(data)} bytes, labels {n}")
    degs = np.frombuffer(data[8 : 8 + n2], dtype=np.uint8).astype(np.int64)
    total = int(degs.sum())
    if len(data) != 8 + n2 + total:
        raise IndexFileError(f"xbwtflat holds {len(data) - 8 - n2} labels, "
                             f"its degrees sum to {total}")
    sigma = alphabet.sigma
    flat = np.frombuffer(data[8 + n2 : 8 + n2 + total], dtype=np.uint8)
    if total and (flat.min() < 1 or flat.max() >= sigma):
        raise IndexFileError(f"xbwtflat label outside 1..{sigma - 1}")
    if (np.diff(np.repeat(np.arange(n), degs) * sigma + flat.astype(np.int64)) <= 0).any():
        raise IndexFileError("xbwtflat labels do not strictly increase within a node")
    if total != n - 1:
        raise IndexFileError(f"xbwtflat degrees sum to {total}, not one per non-root node")
    nav = XbwtNav(int(n2), sigma, flat, np.concatenate(([0], np.cumsum(degs))))
    try:
        _depths(np.concatenate(([0, 0], nav.parents)))
    except ValueError:
        raise IndexFileError("xbwtflat parent chains do not all reach the root") from None
    data = sections["cover"]
    (cnt,) = struct.unpack_from("<I", data, 0)
    marked_pos, off = _r_deltas(data, 4, cnt)
    # checked before SparseBitVec sorts and dedups them; the root is marked
    if not cnt or marked_pos[0] != 1 or (np.diff(marked_pos) < 1).any() or marked_pos[-1] > n:
        raise IndexFileError(f"cover marked positions are not strictly increasing in 1..{n} from 1")
    samples, off = _r_varints(data, off, cnt)
    if samples.min() < 1 or samples.max() > n or len(np.unique(samples)) != cnt:
        raise IndexFileError(f"cover samples outside 1..{n} or repeated")
    sizes, off = _r_varints(data, off, cnt)
    if samples[0] != 1 or sizes[0] != n:
        raise IndexFileError(f"the root's cover sample is not 1 with size {n}")
    if (sizes < 1).any() or (sizes > n + 1 - samples).any():  # sample + size - 1 > n, unwrapped
        raise IndexFileError(f"a cover sample's subtree runs past node {n}")
    t, off = _r_varint(data, off)
    if not 1 <= t <= n or off != len(data):
        raise IndexFileError(f"cover parameter t outside 1..{n}, or bytes follow it")
    psums = np.concatenate(([0], np.cumsum(sizes)))
    marked = SparseBitVec(int(n2), marked_pos)
    sl = SampledLocate(nav, marked, samples, psums, alphabet, int(t))
    return sl, meta


def save(obj, path, meta=None):
    if isinstance(obj, RIndex):
        blob = save_rindex(obj, meta)
    elif isinstance(obj, SampledLocate):
        blob = save_sampled(obj, meta)
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_bytes(data):
    try:
        engine, sections = _unpack(memoryview(data))
        if engine == ENGINE_RINDEX:
            obj, meta = load_rindex(sections)
        elif engine == ENGINE_SAMPLED:
            obj, meta = load_sampled(sections)
        else:
            raise IndexFileError(f"unknown engine {engine}")
    except IndexFileError:
        raise
    except (struct.error, IndexError, KeyError, ValueError, OverflowError) as exc:
        # a short or garbled section fails inside a decoder; ValueError also
        # covers JSON and Unicode decode errors, OverflowError a varint too
        # wide for a 64-bit table
        raise IndexFileError(f"damaged index file ({type(exc).__name__}: {exc})") from None
    return engine, obj, meta, sections


def load(path):
    with open(path, "rb") as fh:
        return load_bytes(fh.read())


def trie_of(engine, obj):
    """The trie a loaded index was built from, rebuilt from its transform,
    with its co-lex order. Queries never need it; statistics do."""
    nav = obj.rlx if engine == ENGINE_RINDEX else obj.nav
    try:
        return reconstruct_trie(nav.colex_parents(), nav.c_array, obj.alphabet)
    except ValueError as exc:  # FormatError too
        raise IndexFileError(f"the transform is not a trie: {exc}") from None
