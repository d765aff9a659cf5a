import gc
import importlib.util
import random
import struct
import sys
import types
from array import array
from pathlib import Path

import numpy as np
import pytest

from rlxt import storage
from rlxt.baseline import build_sampled
from rlxt.bits import BitVec, WaveletSeq
from rlxt.errors import IndexFileError, NoSuccessorError
from rlxt.rindex import build_index
from rlxt.rlxbwt import OutSets
from rlxt.trie import build_from_strings, colex_sort, oracle_locate

from conftest import (EX26_COLEX_TO_PRE, make_dictionary, make_random_trie, present_patterns,
                      sampled_with_flipped_bit, saved_example)


def test_rindex_round_trip_bit_exact(ex26):
    idx = build_index(ex26)
    blob = storage.save_rindex(idx, {"built": "test"})
    engine, idx2, meta, _ = storage.load_bytes(blob)
    assert engine == storage.ENGINE_RINDEX
    assert meta == {"built": "test"}
    assert storage.save_rindex(idx2, meta) == blob
    assert idx2.locate(b"ac") == [18, 7, 13]
    assert idx2.locate(b"") == EX26_COLEX_TO_PRE
    assert idx2.count(b"ca") == 2


def test_sampled_round_trip_bit_exact(ex26, ex26_colex):
    sl = build_sampled(ex26, ex26_colex, t=4)
    blob = storage.save_sampled(sl, {"t": 4})
    engine, sl2, meta, _ = storage.load_bytes(blob)
    assert engine == storage.ENGINE_SAMPLED
    assert storage.save_sampled(sl2, meta) == blob
    assert sl2.locate(b"ac") == [18, 7, 13]
    assert sl2.t == 4


def test_loaded_rindex_answers_match_oracle():
    rng = random.Random(71)
    for _ in range(8):
        t = make_random_trie(rng, 150, 3)
        order = colex_sort(t)
        idx = build_index(t, order)
        _, idx2, _, _ = storage.load_bytes(storage.save_rindex(idx))
        for pat in present_patterns(t, rng, 10) + [b""]:
            assert idx2.locate(pat) == oracle_locate(t, pat, order)


def test_bad_magic_and_version():
    idx = build_index(build_from_strings([b"ab"]))
    blob = storage.save_rindex(idx)
    with pytest.raises(IndexFileError):
        storage.load_bytes(b"XXXXX" + blob[5:])
    with pytest.raises(IndexFileError):
        storage.load_bytes(blob[:5] + bytes([99]) + blob[6:])
    for old in (1, 2, 3, 4):
        with pytest.raises(IndexFileError, match=f"unsupported version {old}"):
            storage.load_bytes(blob[:5] + bytes([old]) + blob[6:])


def _check_loaded_phi(trie):
    order = colex_sort(trie)
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(trie, order)))
    for i in range(1, trie.n):
        assert idx.phi(int(order.colex_to_pre[i])) == int(order.colex_to_pre[i + 1])
    with pytest.raises(NoSuccessorError):
        idx.phi(int(order.colex_to_pre[trie.n]))


def test_loaded_phi_is_colex_successor(ex26):
    _check_loaded_phi(ex26)
    _check_loaded_phi(make_random_trie(random.Random(29), 120, 3))


@pytest.mark.parametrize("stored", [0, 27])
def test_last_node_out_of_range(ex26, stored):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    samples = sections["samples"]
    assert samples[-1] == EX26_COLEX_TO_PRE[-1]  # the trailing one-byte varint
    sections["samples"] = samples[:-1] + bytes([stored])
    with pytest.raises(IndexFileError, match="co-lex-last node"):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("label", [0, 4])
def test_triple_label_outside_alphabet(ex26, label):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    sprime = sections["sprime"]
    (rp,) = struct.unpack_from("<I", sections["rlxbwt"], 0)
    at = 2 * rp  # past the ADD and DEL count columns
    assert sprime[at : at + 3] == bytes([1, 2, 3])  # the first block's ADD labels
    sections["sprime"] = sprime[:at] + bytes([label]) + sprime[at + 1 :]
    with pytest.raises(IndexFileError, match="triple label"):
        storage.load_bytes(storage._pack(engine, sections))


def test_add_count_runs_past_rlxbwt(ex26):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    sprime = sections["sprime"]
    assert sprime[0] == 3 and len(sprime) < 255  # the first block's ADD count
    sections["sprime"] = bytes([255]) + sprime[1:]
    with pytest.raises(IndexFileError, match="rlxbwt labels run past the end"):
        storage.load_bytes(storage._pack(engine, sections))


def _sections_of(strings):
    return storage._unpack(storage.save_rindex(build_index(build_from_strings(strings))))


# EX26's sprime section: eight ADD counts, eight DEL counts, then the ADD
# labels (A B C, A C, B C, A) and the DEL labels (A C, B, A C, B C)
EX26_SPRIME = bytes([3, 0, 0, 2, 0, 2, 0, 1, 0, 2, 1, 0, 2, 0, 2, 0,
                     1, 2, 3, 1, 3, 2, 3, 1, 1, 3, 2, 1, 3, 2, 3])


def _replace(data, at, value):
    return data[:at] + bytes([value]) + data[at + 1 :]


@pytest.mark.parametrize("sprime, match", [
    # block 3 adds B, not C
    (_replace(EX26_SPRIME, 20, 2), "label 3 enters the out-set 2 times, leaves 3"),
    # block 2 drops A, not B
    (_replace(EX26_SPRIME, 26, 1), "entries and exits do not alternate"),
    # block 7 drops A as well as adding it
    (_replace(EX26_SPRIME, 15, 1) + bytes([1]), "entries and exits do not alternate"),
])
def test_sprime_label_events_are_inconsistent(ex26, sprime, match):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    assert sections["sprime"] == EX26_SPRIME
    sections["sprime"] = sprime
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("lengths, match", [
    ([0, 4, 1, 3, 8, 2, 3, 2], "block lengths are not positive summing to 26"),
    ([0, 4, 1, 3, 8, 2, 3, 3], "block lengths are not positive summing to 26"),  # sum 26
    ([3, 4, 1, 3, 8, 2, 3, 3], "block lengths are not positive summing to 26"),
    ([4, 3, 1, 3, 8, 2, 3, 2], "out-sets hold 27 children"),  # one more row of A B C
])
def test_block_lengths_are_inconsistent(ex26, lengths, match):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    rlxbwt = sections["rlxbwt"]
    assert rlxbwt == struct.pack("<I", 8) + bytes([3, 4, 1, 3, 8, 2, 3, 2])
    sections["rlxbwt"] = struct.pack("<I", 8) + bytes(lengths)
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("at, node", [(0, 0), (-1, 12)])
def test_run_head_outside_trie(at, node):
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    runheads = bytearray(sections["runheads"])
    assert max(runheads) < 0x80  # one byte per pre-order id
    runheads[at] = node
    sections["runheads"] = bytes(runheads)
    with pytest.raises(IndexFileError, match="run head node outside 1..11"):
        storage.load_bytes(storage._pack(engine, sections))


def test_run_heads_past_their_count(ex26):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    sections["runheads"] += b"\x01"
    with pytest.raises(IndexFileError, match="more than 8 run heads"):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("byte_map", [b"bacdxyz", b"aacdxyz", b"\0bcdxyz", b"abcdxy"])
def test_byte_map_not_strictly_increasing(byte_map):
    # [abc, abd, bcd, xyz] maps codes 1..7 to "abcdxyz"; with a and b swapped
    # locate(b"a") would answer b's nodes
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    labels = sections["labels"]
    assert labels[12:] == b"abcdxyz"
    sections["labels"] = labels[:12] + byte_map
    with pytest.raises(IndexFileError, match="byte map|labels hold 6 bytes"):
        storage.load_bytes(storage._pack(engine, sections))


def test_varint_wider_than_a_table_word(ex26):
    # the section ends with the last run head's pre-order id; make it 2**64
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    assert sections["runheads"][-1] < 0x80
    sections["runheads"] = sections["runheads"][:-1] + b"\x80" * 9 + b"\x02"
    with pytest.raises(IndexFileError, match="OverflowError"):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("slen", [2**40, 18])
def test_isc_length_disagrees_with_segment_starts(slen):
    # S of this index is 17 bits long; a larger stored length must be
    # rejected before S is allocated from it
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    isc = sections["isc"]
    assert struct.unpack_from("<Q", isc, 0) == (17,)
    sections["isc"] = struct.pack("<Q", slen) + isc[8:]
    with pytest.raises(IndexFileError, match="isc length"):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("at, delta", [(12, 0), (22, 2)])
def test_isc_zero_position_outside_s(at, delta):
    # the 11 zero positions of S are gaps at bytes 12..22, summing to 1 .. 17;
    # make the first 0 or the last 18
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    isc = sections["isc"]
    assert struct.unpack_from("<QI", isc, 0) == (17, 11) and isc[12] == isc[22] == 1
    sections["isc"] = isc[:at] + bytes([delta]) + isc[at + 1 :]
    with pytest.raises(IndexFileError, match="isc zero position"):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("extra", [-1, 1])
def test_isc_starts_differ_from_red_nodes(extra):
    # the segment starts follow the 11 zero gaps: a count at byte 23, then
    # one start per segment, two per red node and a sentinel
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    isc = sections["isc"]
    (nst,) = struct.unpack_from("<I", isc, 23)
    assert nst == 2 * storage.load_bytes(storage._pack(engine, sections))[1].colors.red.num_ones + 1
    tail = isc[27:] if extra < 0 else isc[27:] + b"\x01"
    sections["isc"] = isc[:23] + struct.pack("<I", nst + extra) + tail
    with pytest.raises(IndexFileError, match="segment starts for"):
        storage.load_bytes(storage._pack(engine, sections))


def test_isc_starts_decrease():
    # segment start gaps of 2**62 wrap the running sum past 2**63
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    isc = sections["isc"]
    (nst,) = struct.unpack_from("<I", isc, 23)
    gaps = [1, 2**62, 2**62] + [0] * (nst - 3)
    sections["isc"] = isc[:27] + storage._varints(gaps)
    with pytest.raises(IndexFileError, match="isc segment starts decrease"):
        storage.load_bytes(storage._pack(engine, sections))


def test_isc_shares_the_red_set():
    idx = build_index(build_from_strings([b"abc", b"abd", b"bcd", b"xyz"]))
    _, loaded, _, _ = storage.load_bytes(storage.save_rindex(idx))
    for index in (idx, loaded):
        assert index.isc_tables.b1 is index.colors.red


def test_samples_share_the_colored_set(ex26):
    idx = build_index(ex26)
    _, loaded, _, _ = storage.load_bytes(storage.save_rindex(idx))
    for index in (idx, loaded):
        assert index.samples.colored is index.colors.colored


@pytest.mark.parametrize("table, at", [("type2_keys", -1), ("values", 0), ("type2_values", 0)])
def test_sample_node_outside_trie(ex26, table, at):
    idx = build_index(ex26)
    getattr(idx.samples, table)[at] = idx.n + 1
    with pytest.raises(IndexFileError, match="phi sample node outside 1..26"):
        storage.load_bytes(storage.save_rindex(idx))


# EX26's samples section: the values of the ten colored nodes 1 3 7 8 10 14
# 15 17 21 26, the count of type-2 nodes that are not colored (u32), their
# gaps (4 16) and values, then the co-lex-last node
EX26_SAMPLES = (bytes([2, 4, 13, 26, 22, 6, 21, 20, 10, 18]) + struct.pack("<I", 2)
                + bytes([4, 12, 11, 19, EX26_COLEX_TO_PRE[-1]]))


@pytest.mark.parametrize("at, value, match", [
    (15, 0, "type-2 sample nodes are not strictly increasing"),  # keys 4 4
    (14, 3, "a type-2 sample node is colored"),  # keys 3 15
    (18, 1, "co-lex-last node 1 carries a phi sample"),  # colored
    (18, 4, "co-lex-last node 4 carries a phi sample"),  # type 2
    (19, 0, "samples section does not end at the co-lex-last node"),
])
def test_samples_section_is_inconsistent(ex26, at, value, match):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    assert sections["samples"] == EX26_SAMPLES
    sections["samples"] = EX26_SAMPLES[:at] + bytes([value]) + EX26_SAMPLES[at + 1 :]
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(storage._pack(engine, sections))


def test_load_reads_the_payloads_in_place(ex26):
    blob = storage.save_rindex(build_index(ex26))
    refs = sys.getrefcount(blob)
    _, idx, _, sections = storage.load_bytes(blob)
    assert all(payload.obj is blob for payload in sections.values())
    del sections
    assert sys.getrefcount(blob) == refs  # the index keeps no view of the file
    assert idx.locate(b"ac") == [18, 7, 13]


def test_payload_fails_its_checksum(ex26):
    blob = bytearray(storage.save_rindex(build_index(ex26)))
    blob[-1] ^= 1  # the last byte of the last section, runheads
    with pytest.raises(IndexFileError, match="section 'runheads' fails its checksum"):
        storage.load_bytes(bytes(blob))


def test_damaged_file_loads_right_or_is_rejected():
    # every truncation and 300 single-bit flips: each damaged file either
    # raises IndexFileError or loads and answers like the original
    idx = build_index(build_from_strings([b"abc", b"abd", b"bcd", b"xyz"]))
    blob = storage.save_rindex(idx)
    pats = [b"", b"a", b"b", b"c", b"d", b"x", b"bc", b"cd", b"ab", b"abd", b"yz", b"q", b"ca"]
    want = [(idx.count(p), idx.locate(p)) for p in pats]
    rng = random.Random(11)
    cases = [blob[:k] for k in range(len(blob))]
    for _ in range(300):
        bit = rng.randrange(8 * len(blob))
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << bit % 8
        cases.append(bytes(flipped))
    loaded = 0
    for data in cases:
        try:
            _, got, _, _ = storage.load_bytes(data)
        except IndexFileError:
            continue
        loaded += 1
        assert [(got.count(p), got.locate(p)) for p in pats] == want
    assert loaded < 10


@pytest.mark.parametrize("bit, match", [
    # the node count, 11 + 2**28: a 2 GiB table of node ends if trusted
    (28, "xbwtflat holds 268435467 nodes in 29 bytes, labels 11"),
    # the root's degree, 3 -> 2
    (64, "xbwtflat holds 10 labels, its degrees sum to 9"),
])
def test_sampled_node_count_is_checked_before_allocating(bit, match):
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(sampled_with_flipped_bit(bit))


@pytest.mark.parametrize("section, bit, match", [
    ("xbwtflat", 152, "xbwtflat label outside 1..7"),  # the root's first label, a -> 0
    ("xbwtflat", 153, "xbwtflat labels do not strictly increase within a node"),
    # the root's third label, x -> z: the z-labeled positions' parents form a cycle
    ("xbwtflat", 169, "xbwtflat parent chains do not all reach the root"),
    ("cover", 32, "cover marked positions are not strictly increasing in 1..11 from 1"),
    ("cover", 96, "cover samples outside 1..11 or repeated"),  # 2 -> 3, taken
    ("cover", 140, "cover samples outside 1..11 or repeated"),  # 10 -> 26
    ("cover", 90, "the root's cover sample is not 1 with size 11"),  # 1 -> 5
    ("cover", 155, "a cover sample's subtree runs past node 11"),  # node 2's size 4 -> 12
    ("cover", 204, "cover parameter t outside 1..11, or bytes follow it"),  # 2 -> 18
])
def test_sampled_payloads_are_checked(section, bit, match):
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(sampled_with_flipped_bit(bit, section))


def test_sampled_degrees_must_give_one_parent_per_node():
    # the root keeps two of its three labels: the payload is consistent
    # with its degrees, which sum to 9 for 11 nodes
    engine, sections = storage._unpack(saved_example("sampled"))
    flat = bytearray(sections["xbwtflat"])
    flat[8] -= 1
    del flat[8 + 11 + 2]
    sections["xbwtflat"] = bytes(flat)
    with pytest.raises(IndexFileError, match="xbwtflat degrees sum to 9, not one per non-root"):
        storage.load_bytes(storage._pack(engine, sections))


def test_sampled_cover_must_end_at_t():
    engine, sections = storage._unpack(saved_example("sampled"))
    sections["cover"] = bytes(sections["cover"]) + b"\0"
    with pytest.raises(IndexFileError, match="bytes follow it"):
        storage.load_bytes(storage._pack(engine, sections))


def test_topology_of_another_index_is_rejected():
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    _, other = _sections_of([b"abc", b"abd", b"bcd", b"xyzw"])
    sections["topology"] = other["topology"]
    with pytest.raises(IndexFileError, match="topology has 12 nodes, labels 11"):
        storage.load_bytes(storage._pack(engine, sections))


def test_every_truncation_is_an_index_file_error():
    blob = storage.save_rindex(build_index(build_from_strings([b"abc", b"abd", b"bcd", b"xyz"])))
    for k in range(len(blob)):
        with pytest.raises(IndexFileError):
            storage.load_bytes(blob[:k])


def _reachable(idx):
    """Every object a loaded index references, after checking that the walk
    reached every component and every table it holds."""
    seen, found, stack = set(), [], [idx]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    for comp in (getattr(idx, name) for name in idx.__slots__):
        assert id(comp) in seen
        for name in getattr(type(comp), "__slots__", ()):
            assert id(getattr(comp, name)) in seen
    return found


def test_loaded_index_holds_no_wavelet(ex26):
    for blob in (storage.save_rindex(build_index(ex26)), saved_example("sampled")):
        _, idx, _, _ = storage.load_bytes(blob)
        assert not any(isinstance(obj, (WaveletSeq, BitVec)) for obj in _reachable(idx))


def test_loaded_index_tables_are_narrow():
    # every value of a query table is below 2n, so none needs 8 bytes
    trie = build_from_strings(make_dictionary(random.Random(27), 4600, b"abcdefgh"))
    assert trie.n > 20_000
    _, idx, _, _ = storage.load_bytes(storage.save_rindex(build_index(trie)))
    tables = [obj for obj in _reachable(idx) if isinstance(obj, array)]
    assert len(tables) > 20
    assert [t.typecode for t in tables if t.typecode == "q"] == []
    assert idx.topo._ex.typecode == "h"


def test_machinery_bits_are_sane(ex26):
    idx = build_index(ex26)
    parts = storage.machinery_sections(idx)
    assert set(parts) == set(storage.MACHINERY)
    assert storage.machinery_bits(idx) == 8 * sum(len(v) for v in parts.values())


def test_round_trip_max_alphabet(tmp_path):
    # full byte alphabet: 255 root children incl. byte 0xff
    lines = [bytes([b]) for b in range(1, 256)]
    t = build_from_strings(lines)
    assert t.alphabet.sigma == 256
    idx = build_index(t)
    blob = storage.save_rindex(idx)
    _, idx2, _, _ = storage.load_bytes(blob)
    assert storage.save_rindex(idx2) == blob
    assert idx2.locate(bytes([255])) == [256]
    assert idx2.count(b"") == 256


def test_reconstruct_trie_from_loaded_index(ex26):
    from rlxt.rlxbwt import reconstruct_trie

    idx = build_index(ex26)
    _, idx2, _, _ = storage.load_bytes(storage.save_rindex(idx))
    t2, order = reconstruct_trie(idx2.rlx.colex_parents(), idx2.rlx.c_array, idx2.alphabet)
    assert np.array_equal(t2.parent, ex26.parent)
    assert np.array_equal(t2.label, ex26.label)
    assert order.colex_to_pre.tolist() == [0] + EX26_COLEX_TO_PRE


def test_loaded_sampled_index_rebuilds_to_its_trie():
    rng = random.Random(73)
    tries = [make_random_trie(rng, 200, rng.choice([2, 5, 30])) for _ in range(30)]
    for t in tries + [build_from_strings([])]:
        order = colex_sort(t)
        blob = storage.save_sampled(build_sampled(t, order, t=rng.randint(1, t.n)))
        engine, sl, _, _ = storage.load_bytes(blob)
        t2, order2 = storage.trie_of(engine, sl)
        assert np.array_equal(t2.parent, t.parent)
        assert np.array_equal(t2.label, t.label)
        assert np.array_equal(order2.colex_to_pre, order.colex_to_pre)


def test_traced_benchmark_hooks_resolve(ex26):
    # the traced benchmark patches library names from outside and reads
    # components of a loaded index; a rename must fail here, not there
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    with tracer.installed(True):
        blob = storage.save_rindex(build_index(ex26))
        tracer.reset()
        metrics = spans.storage_metrics(blob)  # loads the index
        loading = {tracer.names[k] for k in tracer.name}
        _, idx, _, _ = storage.load_bytes(blob)
        trie, _ = storage.trie_of(storage.ENGINE_RINDEX, idx)
    assert "storage.load_bytes" in loading
    assert not loading & {"trie.colex_sort", "rlxbwt.reconstruct_trie"}
    assert np.array_equal(trie.parent, ex26.parent)
    assert metrics["storage.resident_bytes.pre_to_colex"][0] < 1024


def test_bulk_varints_equal_one_at_a_time():
    rng = random.Random(5)
    runs = [[0, 127, 128, 2**14, 2**63 - 1], [], [2**14 - 1, 2**21, 2**56, 2**56 - 1],
            [rng.getrandbits(rng.randint(0, 63)) for _ in range(500)]]
    for values in runs:
        want = bytearray()
        for v in values:
            storage._w_varint(want, v)
        assert storage._varints(values) == bytes(want)
        assert storage._varints(np.asarray(values, dtype=np.int64)) == bytes(want)
        # decoding: the bulk pass against _r_varint, a trailing byte left alone
        data = bytes(want) + b"\x05"
        one, off = [], 0
        for _ in values:
            v, off = storage._r_varint(data, off)
            one.append(v)
        got, end = storage._r_varints(data, 0, len(values))
        assert got.dtype == np.int64
        assert got.tolist() == one == values and end == off == len(want)
        for cut in range(1, min(len(want), 12) + 1):
            with pytest.raises(IndexFileError, match="cut short"):
                storage._r_varints(bytes(want)[:-cut], 0, len(values))
    wide = bytearray([1])
    storage._w_varint(wide, 2**63)
    with pytest.raises(OverflowError):
        storage._r_varints(bytes(wide), 0, 2)
    with pytest.raises(ValueError):
        storage._varints([3, -1])
    with pytest.raises(ValueError):
        storage._w_varint(bytearray(), -1)


def _naive_triples(trie, order):
    """The block triples from the co-lex out-sets one position at a time."""
    triples, prev = [], None
    for i in range(1, trie.n + 1):
        cur = {int(c) for c in trie.out_labels(int(order.colex_to_pre[i]))}
        if cur == prev:
            add, dele, ln = triples[-1]
            triples[-1] = (add, dele, ln + 1)
        else:
            prev = prev or set()
            triples.append((tuple(sorted(cur - prev)), tuple(sorted(prev - cur)), 1))
        prev = cur
    return triples


def _trie_side_tables(trie, order):
    """The S' node counts, the C array and the run heads computed from the
    trie and its co-lex order rather than derived from the blocks:
    (base per label, C array, {label: [(colex, preorder), ...]})."""
    out = OutSets(trie, order)
    sigma = trie.alphabet.sigma
    starts = np.flatnonzero(np.concatenate(([True], out.change)))
    is_start = np.zeros(trie.n + 1, dtype=bool)
    is_start[starts] = True
    add = ~out.in_prev & is_start[out.row]
    c_array = np.cumsum(np.bincount(trie.label[1 : trie.n + 1] + 1, minlength=sigma + 1))
    # c-nodes before an entry's row = its rank among the entries labeled c
    by_label = np.argsort(out.labels, kind="stable")
    per_label = np.bincount(out.labels, minlength=sigma)
    before = np.empty(len(by_label), dtype=np.int64)
    before[by_label] = np.arange(len(by_label)) - np.repeat(np.cumsum(per_label) - per_label,
                                                             per_label)
    heads = out.row[add] + 1
    base, run_heads = [[] for _ in range(sigma)], {c: [] for c in range(1, sigma)}
    for c, b, i in zip(out.labels[add].tolist(), before[add].tolist(), heads.tolist()):
        base[c].append(b)
        run_heads[c].append((i, int(order.colex_to_pre[i])))
    return base, c_array.tolist(), run_heads


def test_loaded_sprime_tables_equal_built(ex26):
    rng = random.Random(37)
    tries = [ex26] + [make_random_trie(rng, 300, sigma) for sigma in (5, 27) for _ in range(6)]
    for t in tries:
        order = colex_sort(t)
        idx = build_index(t, order)
        blob = storage.save_rindex(idx)
        _, idx2, _, _ = storage.load_bytes(blob)
        for name in ("starts", "adds", "dels", "base", "c_array", "head_pre"):
            assert getattr(idx2.spi, name) == getattr(idx.spi, name), name
        assert idx.spi is idx.rlx and idx2.spi is idx2.rlx
        assert idx2.rlx.triples == idx.rlx.triples == _naive_triples(t, order)
        base, c_array, run_heads = _trie_side_tables(t, order)
        for index in (idx, idx2):
            assert [list(b) for b in index.spi.base] == base
            assert list(index.rlx.c_array) == c_array
            assert index.rlx.run_heads == run_heads
        assert storage.save_rindex(idx2) == blob


def _python_calls(fn, *args):
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_load_makes_no_python_call_per_value():
    # random words: r is close to n, so the machinery grows with the input
    rng = random.Random(41)
    calls = []
    for nwords in (1000, 8000):
        words = make_dictionary(rng, nwords, b"abcdefghijklmnopqrstuvwxyz")
        blob = storage.save_rindex(build_index(build_from_strings(words)))
        calls.append(_python_calls(storage.load_bytes, blob))
    assert abs(calls[1] - calls[0]) < 0.1 * calls[0], calls
