"""Index file format.

Layout: magic ``RLXT1``, version byte, engine byte (0 = run-length index,
1 = sampled baseline), reserved byte 0, little-endian section table
(count, then 8-byte tag / u64 offset / u64 length / CRC-32 per section),
payloads. The table lists exactly the engine's sections, in order, and the
payloads follow it back to back to the end of the file; any other layout,
and a payload that fails its CRC, is rejected before a decoder reads it.
Files round-trip bit-exactly. Each fact of the transform is stored once:
``sprime`` holds S' as its toggles, one symbol ``label << 1 | f`` each,
f marking a block's first, since whether a toggle enters or leaves is its
parity within its label; loading derives the S' node counts, the C array
and the out-set masks from the toggles and the block lengths; the red
nodes are stored only as the node that ends each block (``isc``), and
``colors`` holds only the blue ones; one constructor,
:class:`~rlxt.rindex.ColorMarks`, derives the ``anchor`` table from them at
build and at load alike, through which a red node's phi sample is the
``runheads`` id of the block after it; and the trie is not rebuilt.
Payloads are read in place, as slices of the file. Every section
is laid out in columns. An integer column is a byte w, the fewest whole
bytes that hold its largest value (0 only for an empty column), then each
value as w little-endian bytes, read as one ``np.frombuffer`` view with no
Python call per value, at its stored width where the decoder needs no
int64; a sorted table is stored as the column of its gaps.
Each decoder ends exactly at its payload's end and takes only the minimal
w, so every file that loads re-saves to the same bytes.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .baseline import SampledLocate, XbwtNav
from .bits import SparseBitVec, int_array
from .errors import FormatError, IndexFileError
from .rindex import ColorMarks, PhiSamples, RIndex
from .rlxbwt import RlXbwt, out_masks, reconstruct_trie  # bench/spans.py patches it here
from .topology import BpsTopology
from .trie import Alphabet, _depths
from .trie import colex_sort  # noqa: F401 (not called; bench/spans.py patches it here)

MAGIC = b"RLXT1"
VERSION = 11
ENGINE_RINDEX = 0
ENGINE_SAMPLED = 1
_ENTRY = struct.Struct("<8sQQI")  # tag, offset, length, CRC-32 of the payload

RINDEX_SECTIONS = ("meta", "topology", "labels", "rlxbwt", "sprime",
                   "colors", "samples", "isc", "runheads")
SAMPLED_SECTIONS = ("meta", "labels", "xbwtflat", "cover")

# the O(r log n)-sized locate machinery, for space accounting
MACHINERY = ("rlxbwt", "sprime", "colors", "samples", "isc", "runheads")


def _column(values):
    """``values`` as one column: a byte w, the fewest whole bytes that hold
    the largest value (at least 1, and 0 only for no values), then each
    value as w little-endian bytes."""
    v = np.asarray(values, dtype=np.int64).ravel()
    if len(v) and v.min() < 0:
        raise ValueError("column values are unsigned")
    w = max(1, (int(v.max()).bit_length() + 7) // 8) if len(v) else 0
    if w > 7:
        raise ValueError("a column value needs more than 7 bytes")
    return bytes([w]) + v.astype("<u8").view(np.uint8).reshape(-1, 8)[:, :w].tobytes()


def _gap_column(values):
    # a sorted table as the column of its gaps, the first from 0
    return _column(np.diff(np.asarray(values, dtype=np.int64), prepend=0))


def _r_view(data, off, count, what):
    """The ``count`` values of the column at ``data[off]`` and the offset
    after it: a read-only view at the stored width where numpy has one (1,
    2 or 4 bytes), else int64. The payload is checked to hold them before
    anything is sized from ``count``, and w to be the one ``_column``
    writes, so that a file that loads re-saves to the same bytes."""
    if off >= len(data):
        raise IndexFileError(f"{what} column missing")
    w = data[off]
    if w > 7 or (w == 0) != (count == 0):
        raise IndexFileError(f"{what} column of {count} values is {w} bytes wide")
    end = off + 1 + w * count
    if end > len(data):
        raise IndexFileError(f"{what} column of {count} values cut short")
    if w in (1, 2, 4):
        vals = np.frombuffer(data, dtype=f"<u{w}", count=count, offset=off + 1)
    else:  # each row zero-padded to 8 bytes
        rows = np.zeros((count, 8), dtype=np.uint8)
        rows[:, :w] = np.frombuffer(data, dtype=np.uint8, count=w * count,
                                    offset=off + 1).reshape(count, w)
        vals = rows.view("<i8").reshape(count)
    if w > 1 and not vals.max() >> 8 * (w - 1):
        raise IndexFileError(f"{what} column is {w} bytes wide for values below 2**{8 * (w - 1)}")
    return vals, end


def _r_column(data, off, count, what):
    """:func:`_r_view`'s values as a writable int64 array."""
    vals, end = _r_view(data, off, count, what)
    return vals.astype(np.int64, copy=False), end


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
    return struct.pack("<I", rlx.r_prime) + _column(rlx.block_lengths())


def _enc_sprime(rlx):
    # the toggles in S' order, each as label << 1 | f, f = 1 at the first
    # toggle of every block but block 0: one byte each while sigma <= 128
    blocks, labels = rlx.toggles()
    first = np.diff(blocks, prepend=0) > 0
    return struct.pack("<I", len(labels)) + _column(labels << 1 | first)


def _dec_rlx(rlxbwt, sprime, runheads, sigma, n):
    """The run-length XBWT from the block lengths (``rlxbwt``), the toggles
    of S' (``sprime``: a count and one column) and the pre-order ids of the
    heads of blocks 1..r' - 1 (``runheads``), once the invariants its
    derivation relies on hold. The toggle stream is checked canonical:
    labels in 1..sigma - 1, one block-start flag per block after the
    first, and labels strictly ascending within a block. The block masks
    and then the block heads are built only after the S' tables, and the
    per-toggle arrays go before the heads are read, so the temporaries of
    the three never coexist."""
    (rp,) = struct.unpack_from("<I", rlxbwt, 0)
    lengths, end = _r_view(rlxbwt, 4, rp, "rlxbwt block lengths")
    if end != len(rlxbwt):
        raise IndexFileError("rlxbwt section does not end with its block lengths")
    if (lengths < 1).any() or lengths.max(initial=0) > n or lengths.sum() != n:
        raise IndexFileError(f"rlxbwt block lengths are not positive summing to {n}")
    (m,) = struct.unpack_from("<I", sprime, 0)
    toggles, end = _r_view(sprime, 4, m, "sprime toggles")
    if end != len(sprime):
        raise IndexFileError("sprime section does not end with its toggles")
    labels = toggles >> 1
    if m and (labels.min() < 1 or labels.max() >= sigma):
        raise IndexFileError(f"sprime toggle label outside 1..{sigma - 1}")
    flags = toggles & 1
    marked = np.count_nonzero(flags)
    if marked != rp - 1:
        raise IndexFileError(f"sprime marks {marked} block starts, not {rp - 1}")
    if ((labels[1:] <= labels[:-1]) & (flags[1:] == 0)).any():
        raise IndexFileError("sprime labels do not strictly ascend within a block")
    blocks = np.cumsum(flags, dtype=np.min_scalar_type(rp))
    rlx = RlXbwt(sigma, blocks, labels, lengths)
    del blocks, lengths
    if rlx.c_array[-1] != n:
        raise IndexFileError(f"the out-sets hold {rlx.c_array[-1] - 1} children, "
                             f"not one per non-root node ({n - 1})")
    rlx.mask = out_masks(sigma, labels, flags)
    del labels, flags
    heads, end = _r_column(runheads, 0, rp - 1, "runheads")
    if end != len(runheads):
        raise IndexFileError(f"runheads holds more than {rp - 1} block heads")
    if len(heads) and (heads.min() < 1 or heads.max() > n):
        raise IndexFileError(f"run head node outside 1..{n}")
    seen = np.zeros(n + 1, dtype=bool)
    seen[heads] = True
    if seen[1] or np.count_nonzero(seen) != rp - 1:
        raise IndexFileError("two blocks share a run head (the root heads block 0)")
    rlx.block_head = int_array(np.insert(heads, 0, 1))  # block 0's head is the root
    return rlx


def _enc_colors(colors):
    # the blue nodes only: the red ones are the isc section
    return struct.pack("<I", colors.blue.num_ones) + _gap_column(colors.blue.positions)


def _enc_samples(samples, last):
    # of the colored nodes' values only the blue-only ones', keyed by the colors
    # section; the co-lex-last node, where phi has no value, is a one-value column
    return (_column(samples.blue_values)
            + struct.pack("<I", len(samples.type2_keys)) + _gap_column(samples.type2_keys)
            + _column(samples.type2_values) + _column([last]))


def _enc_isc(colors):
    # the red node that ends block q, at index q: the colored node whose
    # anchor is q + 1; the blue-only ones' anchors, from r' on, sort last
    red = len(colors.anchor) - len(colors.blue_only)
    by_anchor = np.argsort(colors.anchor, kind="stable")[:red]
    return _column(np.asarray(colors.colored.positions)[by_anchor])


def _enc_runheads(rlx):
    # one column: the heads of blocks 1..r' - 1
    return _column(rlx.block_head[1:])


def machinery_sections(index):
    """Serialized payloads of the locate-machinery components."""
    return {
        "rlxbwt": _enc_rlxbwt(index.rlx),
        "sprime": _enc_sprime(index.rlx),
        "colors": _enc_colors(index.colors),
        "samples": _enc_samples(index.samples, index.last),
        "isc": _enc_isc(index.colors),
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


def _table_error(tags, names):
    """Why the section ``tags`` are not the engine's ``names``, in order."""
    missing = [name for name in names if name not in tags]
    extra = [tag for i, tag in enumerate(tags) if tag not in names or tag in tags[:i]]
    if missing or extra:
        return f"section {missing[0]!r} missing" if missing else f"extra section {extra[0]!r}"
    return f"section {next(t for t, name in zip(tags, names) if t != name)!r} out of order"


def _unpack(data):
    """The engine and its sections, from a file laid out exactly as
    :func:`_pack` writes it."""
    if data[:5] != MAGIC:
        raise IndexFileError("bad magic; not an index file")
    if data[5] != VERSION:
        raise IndexFileError(f"unsupported version {data[5]}")
    engine = data[6]
    names = {ENGINE_RINDEX: RINDEX_SECTIONS, ENGINE_SAMPLED: SAMPLED_SECTIONS}.get(engine)
    if names is None:
        raise IndexFileError(f"unknown engine {engine}")
    if data[7]:
        raise IndexFileError(f"reserved byte is {data[7]}, not 0")
    (count,) = struct.unpack_from("<I", data, 8)
    off = header_bytes(count)
    if off > len(data):
        raise IndexFileError(f"section table of {count} entries runs past the end of the file")
    entries = list(_ENTRY.iter_unpack(data[12:off]))
    tags = [tag.rstrip(b"\0").decode("latin-1") for tag, _, _, _ in entries]
    if tags != list(names):
        raise IndexFileError(_table_error(tags, names))
    sections = {}
    for tag, (_, start, length, crc) in zip(tags, entries):
        if start != off:
            raise IndexFileError(f"section {tag!r} starts at byte {start}, not {off}")
        off += length
        if off > len(data):
            raise IndexFileError(f"section {tag!r} runs past the end of the file")
        sections[tag] = data[start:off]
        if zlib.crc32(sections[tag]) != crc:
            raise IndexFileError(f"section {tag!r} fails its checksum")
    if off != len(data):
        raise IndexFileError(f"bytes follow the last section {tag!r}")
    return engine, sections


def save_rindex(index, meta=None):
    sections = {
        "meta": json.dumps(meta or {}, sort_keys=True).encode(),
        "topology": index.topo.to_bytes(),
        "labels": _enc_labels(index.alphabet, index.n),
    }
    sections.update(machinery_sections(index))
    return _pack(ENGINE_RINDEX, {k: sections[k] for k in RINDEX_SECTIONS})


def _dec_meta(data):
    meta = json.loads(bytes(data).decode())
    if not isinstance(meta, dict) or json.dumps(meta, sort_keys=True).encode() != data:
        raise IndexFileError("meta section is not a JSON object as saving writes it")
    return meta


def _dec_colors(data, n):
    """The blue node ids: a count (u32) and a gap column, strictly
    increasing within 1..n: a repeat would be dropped, and the file would
    re-save to other bytes."""
    (cnt,) = struct.unpack_from("<I", data, 0)
    gaps, off = _r_column(data, 4, cnt, "blue nodes")
    ids = np.cumsum(gaps)
    # a running sum that wrapped past 2**63 went below 1
    if cnt and (gaps.min() < 1 or ids.min() < 1 or ids.max() > n):
        raise IndexFileError(f"blue nodes are not strictly increasing within 1..{n}")
    if off != len(data):
        raise IndexFileError("colors section does not end with its blue nodes")
    return ids


def _dec_isc(data, topo, rlx, n):
    """The red node that ends each block but the last, in block order. Each
    is a node of the trie, and a leaf iff its block's out-set is empty.
    That no two blocks end at one node is checked once the colored set is
    built (:func:`load_rindex`)."""
    cnt = rlx.r_prime - 1
    ids, off = _r_column(data, 0, cnt, "isc red nodes")
    if off != len(data):
        raise IndexFileError("isc section does not end with its red nodes")
    if cnt and (ids.min() < 1 or ids.max() > n):
        raise IndexFileError(f"isc red node outside 1..{n}")
    leaf = np.asarray(topo.subtree_size)[ids] == 1
    if (leaf != (np.asarray(rlx.mask)[:cnt] == 0)).any():
        raise IndexFileError("isc red node is a leaf where its block has children, or not one")
    return ids.astype(np.min_scalar_type(n))  # ColorMarks' dtype; the int64 is freed here


def _check_nodes(nodes, n):
    if len(nodes) and (nodes.min() < 1 or nodes.max() > n):
        raise IndexFileError(f"phi sample node outside 1..{n}")


def _dec_samples(data, rlx, colors, n):
    """The phi samples, keyed by the colored set of ``colors``, and the
    co-lex-last node. The red nodes' values are block heads of ``rlx``,
    through the anchors of ``colors``; the blue-only ones' are read off
    the file."""
    colored = colors.colored
    blue_values, off = _r_column(data, 0, len(colors.blue_only), "phi samples")
    _check_nodes(blue_values, n)
    (cnt,) = struct.unpack_from("<I", data, off)
    gaps, off = _r_column(data, off + 4, cnt, "type-2 sample nodes")
    if (gaps[1:] < 1).any():
        raise IndexFileError("type-2 sample nodes are not strictly increasing")
    keys = np.cumsum(gaps, out=gaps)
    _check_nodes(keys, n)
    if np.isin(keys, colored.positions, assume_unique=True).any():
        raise IndexFileError("a type-2 sample node is colored")
    type2_values, off = _r_column(data, off, cnt, "type-2 sample values")
    _check_nodes(type2_values, n)
    samples = PhiSamples(colored, colors.anchor, rlx.block_head, blue_values, keys, type2_values)
    (last,), off = _r_column(data, off, 1, "co-lex-last node")
    if off != len(data):
        raise IndexFileError("samples section does not end at the co-lex-last node")
    if not 1 <= last <= n:
        raise IndexFileError(f"co-lex-last node {last} outside 1..{n}")
    if colored.contains(last) or samples.type2_value(last) is not None:
        raise IndexFileError(f"co-lex-last node {last} carries a phi sample")
    return samples, int(last)


def load_rindex(sections):
    """Decode every section in turn; each decoder returns only what the
    index keeps, so its temporaries are freed before the next one runs."""
    meta = _dec_meta(sections["meta"])
    topo, end = BpsTopology.from_bytes(sections["topology"])
    if end != len(sections["topology"]):
        raise IndexFileError("topology section does not end with its parentheses")
    alphabet, n = _dec_labels(sections["labels"])
    if topo.n != n:
        raise IndexFileError(f"topology has {topo.n} nodes, labels {n}")
    rlx = _dec_rlx(sections["rlxbwt"], sections["sprime"], sections["runheads"],
                   alphabet.sigma, n)
    colors = ColorMarks(n, _dec_isc(sections["isc"], topo, rlx, n),
                        _dec_colors(sections["colors"], n))
    if len(colors.anchor) != colors.colored.num_ones:  # the colored set drops a repeat
        raise IndexFileError("isc red nodes end two blocks at one node")
    samples, last = _dec_samples(sections["samples"], rlx, colors, n)
    idx = RIndex(n, alphabet, last, topo, rlx, colors, samples)
    return idx, meta


def save_sampled(sl, meta=None):
    nav = sl.nav
    out = bytearray()
    out += struct.pack("<Q", nav.n)
    degs = np.diff(nav.node_end)
    out += degs.astype(np.uint8).tobytes()
    out += nav.flat
    cover = (struct.pack("<I", sl.marked.num_ones) + _gap_column(sl.marked.positions)
             + _column(sl.samples) + _column(np.diff(sl.psums)) + _column([sl.t]))
    sections = {
        "meta": json.dumps(meta or {}, sort_keys=True).encode(),
        "labels": _enc_labels(sl.alphabet, nav.n),
        "xbwtflat": bytes(out),
        "cover": cover,
    }
    return _pack(ENGINE_SAMPLED, {k: sections[k] for k in SAMPLED_SECTIONS})


def load_sampled(sections):
    meta = _dec_meta(sections["meta"])
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
    marked_pos, off = _r_column(data, 4, cnt, "cover marked positions")
    np.cumsum(marked_pos, out=marked_pos)
    # checked before SparseBitVec sorts and dedups them; the root is marked
    if not cnt or marked_pos[0] != 1 or (np.diff(marked_pos) < 1).any() or marked_pos[-1] > n:
        raise IndexFileError(f"cover marked positions are not strictly increasing in 1..{n} from 1")
    samples, off = _r_column(data, off, cnt, "cover samples")
    if samples.min() < 1 or samples.max() > n or len(np.unique(samples)) != cnt:
        raise IndexFileError(f"cover samples outside 1..{n} or repeated")
    sizes, off = _r_column(data, off, cnt, "cover sizes")
    if samples[0] != 1 or sizes[0] != n:
        raise IndexFileError(f"the root's cover sample is not 1 with size {n}")
    if (sizes < 1).any() or (sizes > n + 1 - samples).any():  # sample + size - 1 > n, unwrapped
        raise IndexFileError(f"a cover sample's subtree runs past node {n}")
    (t,), off = _r_column(data, off, 1, "cover parameter t")
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
        decode = load_rindex if engine == ENGINE_RINDEX else load_sampled
        obj, meta = decode(sections)
    except IndexFileError:
        raise
    except (struct.error, IndexError, KeyError, ValueError, OverflowError) as exc:
        # a short or garbled section fails inside a decoder; ValueError also
        # covers JSON and Unicode decode errors
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
