import copy
import gc
import importlib.util
import random
import re
import struct
import sys
import tracemalloc
import types
from array import array
from pathlib import Path

import numpy as np
import pytest

from rlxt import storage
from rlxt.baseline import build_sampled
from rlxt.bits import BitVec, WaveletSeq, int_array, pack_bits, unpack_bits
from rlxt.errors import IndexFileError, NoSuccessorError
from rlxt.rindex import ColorMarks, build_index, type2_nodes
from rlxt.rlxbwt import OutSets
from rlxt.trie import build_from_strings, colex_sort, oracle_locate

from conftest import (EX26_COLEX_TO_PRE, LAYOUT_DAMAGE, make_dictionary, make_random_trie,
                      path_trie, present_patterns, sampled_with_flipped_bit, saved_example,
                      with_flipped_bit)


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
    for old in (1, 2, 3, 4, 5, 6, 7, 8):
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
    assert samples[-2:] == bytes([1, EX26_COLEX_TO_PRE[-1]])  # the trailing one-byte column
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
    assert rlxbwt == struct.pack("<I", 8) + bytes([1, 3, 4, 1, 3, 8, 2, 3, 2])
    sections["rlxbwt"] = struct.pack("<I", 8) + bytes([1, *lengths])
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("at, node", [(0, 0), (-1, 12)])
def test_run_head_outside_trie(at, node):
    # ``at`` indexes the run heads: the column's values after its width byte
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    runheads = bytearray(sections["runheads"])
    assert runheads[0] == 1  # one byte per pre-order id
    ids = runheads[1:]
    ids[at] = node
    sections["runheads"] = bytes(runheads[:1] + ids)
    with pytest.raises(IndexFileError, match="run head node outside 1..11"):
        storage.load_bytes(storage._pack(engine, sections))


def test_run_heads_past_their_count(ex26):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    sections["runheads"] += b"\x01"
    with pytest.raises(IndexFileError, match="more than 7 block heads"):
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


def _isc_of_example():
    """The sections of [abc, abd, bcd, xyz] and its isc section: one column,
    its width 1 at byte 0, then the block that each of the 8 red nodes ends,
    red node after red node in pre-order."""
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    isc = sections["isc"]
    assert isc == bytes([1, 0, 1, 3, 2, 4, 5, 6, 7])
    return engine, sections, isc


def _load_with_isc(engine, sections, isc):
    sections["isc"] = isc
    return storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("damage, match", [
    (lambda isc: isc[:-1], "isc blocks column of 8 values cut short"),
    (lambda isc: isc + b"\0", "isc section does not end with its blocks"),
    (lambda isc: isc[:-1] + bytes([8]), "isc blocks are not a permutation of 0..7"),
    (lambda isc: isc[:2] + bytes([0]) + isc[3:], "isc blocks are not a permutation of 0..7"),
], ids=["value-missing", "trailing-byte", "value-past-red", "repeated-value"])
def test_isc_blocks_are_checked(damage, match):
    engine, sections, isc = _isc_of_example()
    with pytest.raises(IndexFileError, match=match):
        _load_with_isc(engine, sections, damage(isc))


def test_isc_red_count_is_one_per_block_boundary():
    # node 1 is red and blue: made blue only, it leaves the colored set, and
    # so the samples, as they are; but 7 red nodes cannot end 8 of 9 blocks
    engine, sections, isc = _isc_of_example()
    _, idx, _, _ = storage.load_bytes(storage._pack(engine, sections))
    red, blue = idx.colors.red.positions, idx.colors.blue.positions
    assert red[0] == blue[0] == 1 and idx.rlx.r_prime == 9
    sections["colors"] = storage._enc_colors(ColorMarks(idx.n, red[1:], blue))
    with pytest.raises(IndexFileError, match="isc: 7 red nodes for 9 blocks"):
        _load_with_isc(engine, sections, isc[:-1])


def test_every_isc_bit_flip_is_rejected_or_answers_right():
    # each single-bit flip of the section, under a valid checksum, is either
    # caught at load or leaves every answer as it was
    blob = saved_example("rindex")
    _, idx, _, sections = storage.load_bytes(blob)
    patterns = sorted({line[i:j] for line in (b"abc", b"abd", b"bcd", b"xyz")
                       for i in range(len(line)) for j in range(i, len(line) + 1)})
    patterns += [b"q", b"ca", b"da", b"yx", b"abcd", b"zz"]
    want = [(idx.count(p), idx.locate(p)) for p in patterns]
    for bit in range(8 * len(sections["isc"])):
        try:
            _, flipped, _, _ = storage.load_bytes(with_flipped_bit(blob, "isc", bit))
        except IndexFileError:
            continue
        assert [(flipped.count(p), flipped.locate(p)) for p in patterns] == want, bit


def test_isc_section_layout():
    # only the column of the block each red node ends, in pre-order: no
    # count, no other field. The red node is the block's last position, and
    # there is one per block boundary, so the blocks are a permutation of
    # 0..|red| - 1; one byte less or more is rejected
    rng = random.Random(47)
    for sigma in (2, 5, 27):
        for _ in range(4):
            t = make_random_trie(rng, 160, sigma)
            order = colex_sort(t)
            idx = build_index(t, order)
            blocks = [a - 1 for a in idx.isc_tables.anchor if a < idx.rlx.r_prime]
            red = list(idx.colors.red.positions)
            assert sorted(blocks) == list(range(idx.rlx.r_prime - 1)) and len(red) == len(blocks)
            assert [idx.rlx.starts[q + 1] - 1 for q in blocks] == list(order.pre_to_colex[red])
            engine, sections = storage._unpack(storage.save_rindex(idx))
            isc = sections["isc"]
            assert isc == storage._column(blocks)
            for damaged in (isc[:-1], isc + b"\0"):
                with pytest.raises(IndexFileError, match="isc "):
                    _load_with_isc(engine, dict(sections), damaged)


def test_isc_shares_the_red_set():
    idx = build_index(build_from_strings([b"abc", b"abd", b"bcd", b"xyz"]))
    _, loaded, _, _ = storage.load_bytes(storage.save_rindex(idx))
    for index in (idx, loaded):
        # the isc tables hold no red set of their own: a red node's block is
        # read off the colored set of the color marks they share, through the
        # anchors they share with the samples
        isc = index.isc_tables
        assert isc.colors is index.colors and isc.mask is index.rlx.mask
        assert isc.anchor is index.samples.anchor
        shared = {id(index.colors), id(index.rlx.mask)}
        assert [s for s in type(isc).__slots__ if id(getattr(isc, s)) not in shared] == ["anchor"]
        red, colored = list(index.colors.red.positions), index.colors.colored
        anchors = [isc.anchor[colored.rank1(u) - 1] for u in red]
        assert sorted(anchors) == list(range(1, len(red) + 1))


def test_samples_share_the_colored_set(ex26):
    idx = build_index(ex26)
    _, loaded, _, _ = storage.load_bytes(storage.save_rindex(idx))
    for index in (idx, loaded):
        assert index.samples.colored is index.colors.colored


@pytest.mark.parametrize("table, at", [("type2_keys", -1), ("blue_values", 0),
                                       ("type2_values", 0)])
def test_sample_node_outside_trie(ex26, table, at):
    idx = build_index(ex26)
    getattr(idx.samples, table)[at] = idx.n + 1
    with pytest.raises(IndexFileError, match="phi sample node outside 1..26"):
        storage.load_bytes(storage.save_rindex(idx))


# EX26's samples section without its four column width bytes, all 1: the
# values of the three blue-only nodes 1 8 10 (the red nodes' are block
# heads), the count of type-2 nodes that are not colored (u32), their gaps
# (4 16) and values, then the co-lex-last node
EX26_SAMPLES = (bytes([2, 26, 22]) + struct.pack("<I", 2)
                + bytes([4, 12, 11, 19, EX26_COLEX_TO_PRE[-1]]))


def _samples_section(body):
    """The samples section of ``body``, laid out as EX26_SAMPLES: a width
    byte of 1 opens each of its four columns; bytes past the last column's
    one value follow it."""
    return (b"\1" + body[:3] + body[3:7] + b"\1" + body[7:9] + b"\1" + body[9:11]
            + b"\1" + body[11:])


@pytest.mark.parametrize("at, value, match", [
    (8, 0, "type-2 sample nodes are not strictly increasing"),  # keys 4 4
    (7, 3, "a type-2 sample node is colored"),  # keys 3 15
    (11, 1, "co-lex-last node 1 carries a phi sample"),  # colored
    (11, 4, "co-lex-last node 4 carries a phi sample"),  # type 2
    (12, 0, "samples section does not end at the co-lex-last node"),
])
def test_samples_section_is_inconsistent(ex26, at, value, match):
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    assert sections["samples"] == _samples_section(EX26_SAMPLES)
    sections["samples"] = _samples_section(EX26_SAMPLES[:at] + bytes([value])
                                           + EX26_SAMPLES[at + 1 :])
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(storage._pack(engine, sections))


# the example's colors section: 8 red nodes (u32) and their gap column,
# then 7 blue ones; the gaps sit at bytes 5..12 and 18..24
EXAMPLE_COLORS = (struct.pack("<I", 8) + bytes([1, 1, 1, 1, 3, 1, 1, 1, 1])
                  + struct.pack("<I", 7) + bytes([1, 1, 1, 1, 1, 4, 1, 1]))


@pytest.mark.parametrize("at, gap, match", [
    (5, 0, "red nodes are not strictly increasing within 1..11"),  # node 0
    (7, 0, "red nodes are not strictly increasing within 1..11"),  # node 2 twice
    (12, 3, "red nodes are not strictly increasing within 1..11"),  # node 12
    (19, 0, "blue nodes are not strictly increasing within 1..11"),  # node 1 twice
    (24, 3, "blue nodes are not strictly increasing within 1..11"),  # node 12
])
def test_colors_are_strictly_increasing_within_the_trie(at, gap, match):
    # SparseBitVec drops a repeated node, so a zero gap would load, answer
    # right and re-save to other bytes
    engine, sections = storage._unpack(saved_example("rindex"))
    assert sections["colors"] == EXAMPLE_COLORS
    sections["colors"] = _replace(EXAMPLE_COLORS, at, gap)
    with pytest.raises(IndexFileError, match=match):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("engine, section", [
    *(("rindex", s) for s in storage.RINDEX_SECTIONS),
    *(("sampled", s) for s in storage.SAMPLED_SECTIONS),
])
def test_every_section_ends_at_its_payload_end(engine, section):
    # a byte past what a decoder reads would load and re-save without it
    kind, sections = storage._unpack(saved_example(engine))
    sections[section] = bytes(sections[section]) + b"\0"
    with pytest.raises(IndexFileError):
        storage.load_bytes(storage._pack(kind, sections))


@pytest.mark.parametrize("meta", [b'{"a": 1} ', b'{"b": 1, "a": 2}', b'{"a":1}', b"[]", b""],
                         ids=["trailing-space", "unsorted-keys", "compact", "array", "empty"])
def test_meta_is_saved_json(meta):
    # each would load, and re-save as another payload
    engine, sections = storage._unpack(saved_example("rindex"))
    sections["meta"] = meta
    with pytest.raises(IndexFileError):
        storage.load_bytes(storage._pack(engine, sections))


@pytest.mark.parametrize("shape", sorted(LAYOUT_DAMAGE))
def test_file_is_laid_out_as_saved(shape):
    # each would load (bar the missing section, a KeyError) and re-save to
    # other bytes, or not at all
    damage, message = LAYOUT_DAMAGE[shape]
    with pytest.raises(IndexFileError, match=f"^{re.escape(message)}$"):
        storage.load_bytes(damage(saved_example("rindex")))


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


def _cover_bit(bit):
    """Bit ``bit`` of the sampled example's cover section with its four
    column width bytes (all 1) taken out, as a bit of the section. Without
    them it holds the count (u32), then a byte per marked gap, sample and
    subtree size, seven each, then t."""
    byte = bit // 8
    return bit + 8 * (0 if byte < 4 else 1 + min(3, (byte - 4) // 7))


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
    if section == "cover":
        cover = storage._unpack(saved_example("sampled"))[1]["cover"]
        assert len(cover) == 30 and [cover[k] for k in (4, 12, 20, 28)] == [1] * 4
        bit = _cover_bit(bit)
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


def test_topology_of_two_trees_is_rejected():
    # "()" and then the root's children as roots of their own: balanced, as
    # many nodes as the labels, but not one tree
    engine, sections = _sections_of([b"abc", b"abd", b"bcd", b"xyz"])
    parens = unpack_bits(sections["topology"])[0].tolist()
    sections["topology"] = pack_bits([1, 0] + parens[1:-1])
    with pytest.raises(IndexFileError, match="parentheses do not form one tree"):
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


def _at_int64(obj, names):
    """A copy of ``obj`` whose named tables, or lists of tables, are 8 bytes
    wide, so numpy arithmetic on their views cannot wrap."""
    twin = copy.copy(obj)
    for name in names:
        table = getattr(obj, name)
        wide = [array("q", t) for t in table] if isinstance(table, list) else array("q", table)
        setattr(twin, name, wide)
    return twin


def _trie_of_size(n, nwords, alpha, seed):
    """A random dictionary's trie topped up to exactly n nodes: each
    word + "z" adds one leaf below the word's node."""
    words = make_dictionary(random.Random(seed), nwords, alpha)
    extra = n - build_from_strings(words).n
    assert 0 <= extra <= len(words)
    trie = build_from_strings(words + [w + b"z" for w in words[:extra]])
    assert trie.n == n
    return trie


def _assert_samples_through_anchor(index, c2p, p2c):
    """Every colored node u's sample, read through its anchor a, is u's
    co-lex successor; a < r' iff u is red, and then a is the block after
    the one u ends, whose head is the sample."""
    samples, rlx = index.samples, index.rlx
    r = rlx.r_prime
    assert samples.block_head is rlx.block_head
    colored = list(index.colors.colored.positions)
    red = set(index.colors.red.positions)
    assert len(samples.anchor) == len(colored)
    for u, a in zip(colored, samples.anchor):
        sample = rlx.block_head[a] if a < r else samples.blue_values[a - r]
        assert sample == c2p[p2c[u] + 1], u
        assert (a < r) == (u in red), u
        if a < r:
            assert rlx.starts[a] - 1 == p2c[u], u


@pytest.mark.parametrize("n", [26, 255, 256])
def test_byte_wide_tables_read_at_int64(ex26, n):
    # below 256 nodes every table is one unsigned byte wide, where numpy
    # arithmetic on a view wraps below 0 and past 255; at 256 the values
    # reach the boundary. Every view derived from the tables matches the
    # same view over 8-byte tables, and what the trie itself gives
    trie = ex26 if n == 26 else _trie_of_size(n, 50, b"abc", 63)
    order = colex_sort(trie)
    c2p, p2c = order.colex_to_pre.tolist(), order.pre_to_colex.tolist()
    parent = trie.parent.tolist()
    parents = [p2c[parent[c2p[i]]] for i in range(2, n + 1)]
    idx = build_index(trie, order)
    blob = storage.save_rindex(idx)
    _, loaded, _, _ = storage.load_bytes(blob)
    assert storage.save_rindex(loaded) == blob
    out = OutSets(trie, order)
    for index in (idx, loaded):
        codes = {t.typecode for t in _reachable(index) if isinstance(t, array)}
        assert (codes == {"B"}) if n < 256 else ("H" in codes)
        rlx = index.rlx
        wide = _at_int64(rlx, ("starts", "run_start", "base", "c_array", "block_head"))
        assert rlx.block_lengths().tolist() == wide.block_lengths().tolist()
        assert [list(d) for d in rlx.dels] == [list(d) for d in wide.dels]
        assert [d.tolist() for d in rlx.deltas()] == [d.tolist() for d in wide.deltas()]
        assert list(rlx.colex_parents()) == list(wide.colex_parents()) == parents
        colored = list(index.colors.colored.positions)
        _assert_samples_through_anchor(index, c2p, p2c)
        type2 = sorted(set(type2_nodes(out, order).tolist()) - set(colored))
        assert list(index.samples.type2_keys) == type2
        assert list(index.samples.type2_values) == [c2p[p2c[u] + 1] for u in type2]
    sl = build_sampled(trie, order, 2)
    sampled_blob = storage.save_sampled(sl)
    _, sl2, _, _ = storage.load_bytes(sampled_blob)
    assert storage.save_sampled(sl2) == sampled_blob
    labels = trie.label[c2p[1:]].tolist()  # incoming label by co-lex position
    for nav in (sl.nav, sl2.nav):
        assert list(nav.colex_parents()) == parents
        assert np.diff(nav.node_end).tolist() == np.diff(out.offsets).tolist()
        assert list(nav.c_array) == [sum(lab < c for lab in labels) for c in range(nav.sigma + 1)]


def _answers_like_the_oracle(trie, order, patterns):
    idx = build_index(trie, order)
    _, loaded, _, _ = storage.load_bytes(storage.save_rindex(idx))
    for index in (idx, loaded):
        for pat in patterns:
            want = oracle_locate(trie, pat, order)
            assert index.locate(pat) == want and index.count(pat) == len(want), pat
    return loaded


def test_ids_of_2_16_and_up_take_four_bytes():
    # n = 65,537: node ids, positions and subtree sizes pass 2**16, so those
    # tables are 4 bytes wide, built and loaded alike, and the empty pattern
    # runs phi over every node
    trie = _trie_of_size(65_537, 15_000, b"abcdefgh", 61)
    order = colex_sort(trie)
    patterns = [b"", b"z", b"az", b"abc", b"hgf", b"q"] + present_patterns(trie, random.Random(5), 20)
    idx = _answers_like_the_oracle(trie, order, patterns)
    topo = idx.topo
    assert topo.node_depth.itemsize == 1
    for table in (topo.subtree_size, topo.level_nodes, topo.level_start, idx.rlx.c_array):
        assert max(table) == trie.n and table.itemsize == 4
    # every other table is at the narrowest width of its own values; the
    # per-label tables share the width of all labels' values
    rlx = idx.rlx
    per_label = {name: getattr(rlx, name) for name in ("run_start", "base")}
    shared = {id(t) for tables in per_label.values() for t in tables} | {id(rlx.mask)}
    tables = [t for t in _reachable(idx) if isinstance(t, array) and id(t) not in shared]
    assert all(t.itemsize == int_array(t).itemsize for t in tables)
    for tables in per_label.values():
        assert {t.itemsize for t in tables} == {int_array(np.concatenate(tables)).itemsize}


def test_a_path_past_255_levels_takes_two_byte_depths():
    text = bytes(random.Random(62).choice(b"ab") for _ in range(300))
    trie = build_from_strings([text])
    order = colex_sort(trie)
    patterns = [b"", text, text[100:], b"ab" * 3, b"ba", b"c"]
    patterns += present_patterns(trie, random.Random(7), 20, max_len=40)
    idx = _answers_like_the_oracle(trie, order, patterns)
    assert idx.topo.node_depth.itemsize == 2 and idx.topo.subtree_size.itemsize == 2


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


def test_column_round_trips_at_every_width():
    rng = random.Random(5)
    runs = [[], [0], [0] * 9, [2**56 - 1], [2**56 - 1, 0, 1]]
    runs += [[2**(8 * w) - 1, 2**(8 * w - 8), 0] for w in range(1, 8)]
    runs += [[rng.getrandbits(rng.randint(0, 56)) for _ in range(300)] for _ in range(4)]
    for values in runs:
        col = storage._column(values)
        top = max(values, default=None)
        w = 0 if top is None else max(1, (top.bit_length() + 7) // 8)
        assert col[0] == w and len(col) == 1 + w * len(values)
        assert col[1:] == b"".join(v.to_bytes(w, "little") for v in values)
        assert storage._column(np.asarray(values, dtype=np.int64)) == col
        got, end = storage._r_column(col + b"\x05", 0, len(values), "test")  # a byte left alone
        assert got.dtype == np.int64 and got.tolist() == values and end == len(col)
    assert [storage._column([2**(8 * w) - 1])[0] for w in range(1, 8)] == list(range(1, 8))
    for values in ([2**56], [3, -1]):
        with pytest.raises(ValueError):
            storage._column(values)


@pytest.mark.parametrize("column, count, match", [
    (bytes([8]) + (1).to_bytes(8, "little"), 1, "1 values is 8 bytes wide"),
    (bytes([255]), 1, "1 values is 255 bytes wide"),
    (bytes([2, 5, 0]), 1, r"2 bytes wide for values below 2\*\*8"),
    (bytes([3, 1, 0, 0, 0, 0, 0]), 2, r"3 bytes wide for values below 2\*\*16"),
    (bytes([7]) + bytes(7), 1, r"7 bytes wide for values below 2\*\*48"),
    (bytes([1]), 0, "0 values is 1 bytes wide"),
    (bytes([0]), 3, "3 values is 0 bytes wide"),
    (bytes([2, 1, 0, 2]), 2, "2 values cut short"),
    (bytes([5]) + bytes(9), 2, "2 values cut short"),
    (b"", 1, "column missing"),
], ids=["width-8", "width-255", "w2-for-one-byte", "w3-for-two-bytes", "w7-for-zeros",
        "w1-for-no-values", "w0-for-values", "cut-short-w2", "cut-short-w5", "missing"])
def test_column_is_rejected(column, count, match):
    with pytest.raises(IndexFileError, match=match):
        storage._r_column(column, 0, count, "test")


@pytest.mark.parametrize("width, match", [
    (0, "type-2 sample nodes column of 1073741824 values is 0 bytes wide"),
    (7, "type-2 sample nodes column of 1073741824 values cut short"),
])
def test_large_column_count_allocates_nothing(ex26, width, match):
    # a type-2 count of 2**30: neither a zero width nor a payload too short
    # for it may size a table from it
    engine, sections = storage._unpack(storage.save_rindex(build_index(ex26)))
    samples = sections["samples"]
    assert samples[4:8] == struct.pack("<I", 2)
    sections["samples"] = samples[:4] + struct.pack("<I", 2**30) + bytes([width]) + samples[9:]
    tracemalloc.start()
    try:
        with pytest.raises(IndexFileError, match=match):
            storage.load_bytes(storage._pack(engine, sections))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()



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
    # random tries with label pools of 2 to 100 (past 64 the masks are a
    # list of ints), the one-node trie, a star, a comb and a path. The file
    # stores each block head once, and a red node's sample not at all: each
    # block head is its first node, and every sample is the co-lex successor
    rng = random.Random(37)
    tries = [ex26] + [make_random_trie(rng, 300, sigma) for sigma in (5, 27) for _ in range(6)]
    tries += [make_random_trie(rng, 300, sigma) for sigma in (2, 3, 100)]
    tries += [build_from_strings([]), build_from_strings([bytes([b]) for b in range(33, 233)]),
              build_from_strings([b"x" * i + b"a" for i in range(41)] + [b"x" * 40]),
              path_trie(b"acgt" * 50)]
    assert max(t.alphabet.sigma for t in tries) > 64
    for t in tries:
        order = colex_sort(t)
        c2p, p2c = order.colex_to_pre, order.pre_to_colex
        idx = build_index(t, order)
        blob = storage.save_rindex(idx)
        _, idx2, _, _ = storage.load_bytes(blob)
        for name in ("starts", "run_start", "first_block", "dels", "base", "c_array", "block_head"):
            assert getattr(idx2.spi, name) == getattr(idx.spi, name), name
        assert idx.spi is idx.rlx and idx2.spi is idx2.rlx
        assert idx2.rlx.triples == idx.rlx.triples == _naive_triples(t, order)
        base, c_array, run_heads = _trie_side_tables(t, order)
        for index in (idx, idx2):
            assert [list(b) for b in index.spi.base] == base
            assert list(index.rlx.c_array) == c_array
            assert index.rlx.run_heads == run_heads
            assert list(index.rlx.block_head) == c2p[index.rlx.starts].tolist()
            _assert_samples_through_anchor(index, c2p.tolist(), p2c.tolist())
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
