import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rlxt import cli, storage
from rlxt.cli import main
from rlxt.errors import DomainError, IndexFileError, NoSuccessorError
from rlxt.rindex import RIndex, build_index
from rlxt.trie import build_from_strings

from conftest import (EX26_COLEX_TO_PRE, LAYOUT_DAMAGE, ex26_lines, sampled_with_flipped_bit,
                      saved_example, with_flipped_bit)


@pytest.fixture()
def ex26_file(tmp_path):
    p = tmp_path / "ex26.txt"
    p.write_bytes(b"\n".join(ex26_lines()) + b"\n")
    return p


@pytest.fixture()
def ex26_index(ex26_file, tmp_path):
    out = tmp_path / "ex26.rlxt"
    assert main(["build", str(ex26_file), "-o", str(out)]) == 0
    return out


def test_build_and_locate(ex26_index, capsys):
    capsys.readouterr()
    assert main(["locate", str(ex26_index), "ac"]) == 0
    assert capsys.readouterr().out.strip() == "3 18 7 13"
    assert main(["locate", str(ex26_index), ""]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "26" and [int(x) for x in out[1:]] == EX26_COLEX_TO_PRE
    assert main(["locate", str(ex26_index), "zzz"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["count", str(ex26_index), "ac", "b", "ca"]) == 0
    assert capsys.readouterr().out.split() == ["3", "9", "2"]


def test_python_dash_m_runs_the_cli(tmp_path):
    # an uninstalled checkout runs as python -m rlxt with src on the path
    src = tmp_path / "four.txt"
    src.write_bytes(b"abc\nabd\nbcd\nxyz\n")
    out = tmp_path / "four.rlxt"
    assert main(["build", str(src), "-o", str(out)]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "rlxt", "count", str(out), "b", "bc", "q"],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2", "0"]  # ab and b; abc and bc


def test_hex_patterns(ex26_index, capsys):
    capsys.readouterr()
    assert main(["locate", str(ex26_index), "6163", "--hex"]) == 0  # "ac"
    assert capsys.readouterr().out.strip() == "3 18 7 13"


def test_non_utf8_argument_is_matched_as_bytes(tmp_path, capsys):
    src = tmp_path / "latin1.txt"
    src.write_bytes(b"\xffa\nb\n")
    out = tmp_path / "latin1.rlxt"
    assert main(["build", str(src), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["count", str(out), os.fsdecode(b"\xff"), os.fsdecode(b"\xffa")]) == 0
    assert capsys.readouterr().out.split() == ["1", "1"]


def test_pattern_file(ex26_index, tmp_path, capsys):
    pf = tmp_path / "pats.txt"
    pf.write_bytes(b"ac\n\nb\nca\n")  # the blank line is skipped
    capsys.readouterr()
    assert main(["locate", str(ex26_index), "--pattern-file", str(pf)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "3 18 7 13"
    assert lines[1].startswith("9 ")
    assert lines[2].startswith("2 ")


def test_bad_hex_pattern_is_input_error(ex26_index, capsys):
    capsys.readouterr()
    assert main(["locate", str(ex26_index), "zz", "--hex"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_bad_hex_line_in_pattern_file_is_input_error(ex26_index, tmp_path, capsys):
    pf = tmp_path / "pats.hex"
    pf.write_bytes(b"6163\nnot hex\n")
    capsys.readouterr()
    assert main(["count", str(ex26_index), "--pattern-file", str(pf), "--hex"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["build", "--engine", "sampled", "--t", "-5", "-o", "unused.idx"],
    ["bench", "--t", "x"],
    ["bench", "--t", "-3"],
    ["bench", "--engines", "foo"],
    ["bench", "--repeat", "0"],
    ["bench", "--repeat", "-1"],
    ["bench", "--repeat", "\u0663"],  # an Arabic-Indic digit, which int() reads as 3
    ["bench", "--t", "\u0661"],
    ["bench", "--t", "1,\u0664"],
    ["build", "--engine", "sampled", "--t", "x", "-o", "unused.idx"],
    ["build", "--engine", "sampled", "--t", "\u0663", "-o", "unused.idx"],
])
def test_bad_cover_parameter_or_engine_is_input_error(ex26_file, tmp_path, monkeypatch, capsys,
                                                      argv):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main([argv[0], str(ex26_file), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("input error: ")
    assert not (tmp_path / "unused.idx").exists()


def test_build_empty_and_nul(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_bytes(b"")
    out = tmp_path / "empty.rlxt"
    assert main(["build", str(empty), "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["locate", str(out), ""]) == 0
    assert capsys.readouterr().out.strip() == "1 1"
    assert main(["stats", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 1 and payload["r"] == 0 and payload["r_prime"] == 1

    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"a\x00b\n")
    assert main(["build", str(bad), "-o", str(tmp_path / "x.rlxt")]) == 2


def test_build_edges_format(ex26, tmp_path, capsys):
    src = tmp_path / "ex26.edges"
    src.write_text(ex26.to_edge_lines())
    out = tmp_path / "ex26e.rlxt"
    assert main(["build", str(src), "--format", "edges", "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["locate", str(out), "ac"]) == 0
    assert capsys.readouterr().out.strip() == "3 18 7 13"


@pytest.mark.parametrize("data", [b"3\n1\t97\n2\t\xe9\n", b"\xef\xbb\xbf2\n1\t97\n"],
                         ids=["byte-e9", "utf8-bom"])
@pytest.mark.parametrize("cmd", [["build", "-o", "unused.idx"], ["verify"], ["bench"]],
                         ids=["build", "verify", "bench"])
def test_non_ascii_edge_file_is_input_error(tmp_path, monkeypatch, capsys, cmd, data):
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "bad.edges"
    src.write_bytes(data)
    capsys.readouterr()
    assert main([cmd[0], str(src), "--format", "edges", *cmd[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("input error: ")
    assert not (tmp_path / "unused.idx").exists()


@pytest.mark.parametrize("data", [b"2\n1\t9_7\n", b"2\n 1\t97\n", b"2\n1 \t97\n",
                                  b"+2\n1\t97\n", b"2\n1\t97\r\n"],
                         ids=["underscore", "leading-space", "trailing-space", "plus-sign",
                              "trailing-cr"])
@pytest.mark.parametrize("cmd", [["build", "-o", "unused.idx"], ["verify"], ["bench"]],
                         ids=["build", "verify", "bench"])
def test_edge_field_not_ascii_digits_is_input_error(tmp_path, monkeypatch, capsys, cmd, data):
    # int() alone would read each of these fields as a number
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "bad.edges"
    src.write_bytes(data)
    capsys.readouterr()
    assert main([cmd[0], str(src), "--format", "edges", *cmd[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("input error: ")
    assert not (tmp_path / "unused.idx").exists()


@pytest.mark.parametrize("cmd", [["build", "-o", "unused.idx"], ["verify"], ["bench"]],
                         ids=["build", "verify", "bench"])
def test_edge_parent_past_int64_is_input_error(tmp_path, monkeypatch, capsys, cmd):
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "big.edges"
    src.write_bytes(b"2\n99999999999999999999\t97\n")
    capsys.readouterr()
    assert main([cmd[0], str(src), "--format", "edges", *cmd[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "input error: node 2 has parent 99999999999999999999 outside 1..1"]
    assert not (tmp_path / "unused.idx").exists()


def test_bad_index_file(tmp_path):
    p = tmp_path / "junk.rlxt"
    p.write_bytes(b"NOTANINDEX")
    assert main(["locate", str(p), "a"]) == 3


def test_truncated_index_file(tmp_path, capsys):
    src = tmp_path / "small.txt"
    src.write_bytes(b"abc\nabd\nbcd\nxyz\n")
    full = tmp_path / "small.rlxt"
    assert main(["build", str(src), "-o", str(full)]) == 0
    cut = tmp_path / "cut.rlxt"
    cut.write_bytes(full.read_bytes()[:-1])
    capsys.readouterr()
    assert main(["locate", str(cut), "a"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("index error: ")


def test_version_1_index_file(ex26_index, tmp_path, capsys):
    # the first format, and the one before the current
    blob = ex26_index.read_bytes()
    for version in (1, storage.VERSION - 1):
        old = tmp_path / f"v{version}.rlxt"
        old.write_bytes(blob[:5] + bytes([version]) + blob[6:])
        capsys.readouterr()
        assert main(["locate", str(old), "a"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [f"index error: unsupported version {version}"]


def _one_line_index_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("index error: ")
    return lines[0]


def test_sample_outside_trie_is_index_error(tmp_path, capsys):
    # a sample value of n + 1 under a valid checksum is caught at load: that
    # of node 4, the one colored node that is not red, whose sample is not a
    # block head and so is stored
    idx = build_index(build_from_strings([b"abc", b"abd", b"bcd", b"xyz"]))
    assert list(idx.colors.blue_only) == [4] and idx.colors.colored.rank1(4) == 4
    assert idx.samples.slot(3) == (idx.samples.blue_values, 0)
    idx.samples.blue_values[0] = idx.n + 1
    path = tmp_path / "bad-sample.rlxt"
    storage.save(idx, path)
    assert main(["locate", str(path), ""]) == 3
    assert _one_line_index_error(capsys) == "index error: phi sample node outside 1..11"


@pytest.mark.parametrize("shape", sorted(LAYOUT_DAMAGE))
def test_file_laid_out_otherwise_is_index_error(shape, tmp_path, capsys):
    damage, message = LAYOUT_DAMAGE[shape]
    path = tmp_path / "bad-layout.rlxt"
    path.write_bytes(damage(saved_example("rindex")))
    assert main(["locate", str(path), "a"]) == 3
    assert _one_line_index_error(capsys) == f"index error: {message}"


def _wide_blocks(isc):
    # the same block values, eight bytes each: one more than a column holds
    return bytes([8]) + b"".join(q.to_bytes(8, "little") for q in isc[1:])


@pytest.mark.parametrize("damage", [
    _wide_blocks,
    lambda isc: isc[:-1],
    lambda isc: storage._column([2**40, *isc[2:]]),
    lambda isc: isc + b"\0",
], ids=["width-8", "cut-short", "block-2**40", "trailing-byte"])
def test_damaged_isc_section_is_index_error(damage, tmp_path, capsys):
    engine, sections = storage._unpack(saved_example("rindex"))
    sections["isc"] = damage(sections["isc"])
    path = tmp_path / "bad-isc.rlxt"
    path.write_bytes(storage._pack(engine, sections))
    assert main(["locate", str(path), "a"]) == 3
    assert _one_line_index_error(capsys).startswith("index error: isc ")


@pytest.mark.parametrize("heads", [
    [1, 6, 3, 7, 4, 9, 10, 11],  # block 1 headed by the root, block 0's head
    [2, 6, 3, 7, 4, 9, 10, 2],  # blocks 1 and 8 headed by one node
], ids=["root", "repeated"])
def test_run_heads_shared_by_two_blocks_is_index_error(heads, tmp_path, capsys):
    # a head is the pre-order id of its block's first node, so the r' heads
    # are distinct, and only block 0's is the root; each file here keeps its
    # heads within 1..n and would mislead the toehold and the red samples
    engine, sections = storage._unpack(saved_example("rindex"))
    assert sections["runheads"] == storage._column([2, 6, 3, 7, 4, 9, 10, 11])
    sections["runheads"] = storage._column(heads)
    blob = storage._pack(engine, sections)
    with pytest.raises(IndexFileError, match="two blocks share a run head"):
        storage.load_bytes(blob)
    path = tmp_path / "bad-runheads.rlxt"
    path.write_bytes(blob)
    assert main(["locate", str(path), "a"]) == 3
    assert _one_line_index_error(capsys).startswith("index error: two blocks share a run head")


@pytest.mark.parametrize("damage, match", [
    # 22 parentheses in bytes 8..10: bit 0 of byte 10 is padding
    (lambda blob: with_flipped_bit(blob, "topology", 8 * 10), "a padding bit of the packed bits"),
], ids=["topology-padding"])
def test_non_canonical_payload_is_index_error(damage, match, tmp_path, capsys):
    # each of these files would answer right, but re-saving it gives other
    # bytes: the round trip is bit-exact only if loads take canonical files
    path = tmp_path / "non-canonical.idx"
    path.write_bytes(damage(saved_example("rindex")))
    assert main(["locate", str(path), "a"]) == 3
    assert match in _one_line_index_error(capsys)


def test_sampled_node_count_past_its_payload_is_index_error(tmp_path, capsys):
    # bit 28 of the stored node count would size a 2 GiB table if trusted
    path = tmp_path / "bad.idx"
    path.write_bytes(sampled_with_flipped_bit(28))
    assert main(["locate", str(path), "a"]) == 3
    line = _one_line_index_error(capsys)
    assert line == f"index error: xbwtflat holds {11 + 2**28} nodes in 29 bytes, labels 11"


@pytest.mark.parametrize("engine, section", [
    ("sampled", "xbwtflat"), ("sampled", "cover"), ("rindex", "rlxbwt"), ("rindex", "sprime"),
])
def test_stats_of_every_flipped_bit_is_right_or_index_error(tmp_path, capsys, engine, section):
    # every single-bit flip under a valid checksum: stats reports the 11-node
    # trie or exits 3 with one line. A parent chain that never reaches the
    # root ends the rebuild within its round bound, so no flip hangs
    blob = saved_example(engine)
    path = tmp_path / "flipped.idx"
    for bit in range(8 * len(storage._unpack(blob)[1][section])):
        path.write_bytes(with_flipped_bit(blob, section, bit))
        code = main(["stats", str(path)])
        if code == 0:
            assert json.loads(capsys.readouterr().out)["n"] == 11, bit
        else:
            assert code == 3, bit
            _one_line_index_error(capsys)


@pytest.mark.parametrize("error", [DomainError, NoSuccessorError, IndexError])
@pytest.mark.parametrize("cmd", [["locate"], ["count"]])
def test_query_failure_on_loaded_index(ex26_index, capsys, monkeypatch, error, cmd):
    def fail(self, pattern):
        raise error("node 27 out of range")

    monkeypatch.setattr(RIndex, "locate", fail)
    monkeypatch.setattr(RIndex, "count", fail)
    capsys.readouterr()
    assert main([cmd[0], str(ex26_index), "a", *cmd[1:]]) == 3
    line = _one_line_index_error(capsys)
    assert line == f"index error: query failed ({error.__name__}: node 27 out of range)"


def test_stats_ex26(ex26_index, capsys):
    capsys.readouterr()
    assert main(["stats", str(ex26_index)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 26
    assert payload["r"] == 8
    assert payload["r_prime"] == 8
    assert payload["classes_eqr"] == 8
    assert payload["classes_approx"] == 12
    assert payload["classes_eq"] == 14
    assert payload["omega"] == 20
    assert payload["gamma_r_size"] == 8
    assert payload["r_c"] == {"a": 3, "b": 2, "c": 3}
    assert round(payload["h_wc"]["0"], 2) == 62.73


def test_stats_sizes_account_for_file(ex26_index, capsys):
    capsys.readouterr()
    assert main(["stats", str(ex26_index)]) == 0
    payload = json.loads(capsys.readouterr().out)
    file_bits = 8 * ex26_index.stat().st_size
    assert sum(payload["sizes_bits"].values()) + payload["header_bits"] == file_bits


def test_stats_sampled_engine(ex26_file, tmp_path, capsys):
    out = tmp_path / "ex26.sampled"
    assert main(["build", str(ex26_file), "-o", str(out), "--engine", "sampled", "--t", "4"]) == 0
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engine"] == "sampled"
    assert payload["n"] == 26 and payload["r"] == 8
    assert main(["locate", str(out), "ac"]) == 0
    assert capsys.readouterr().out.strip() == "3 18 7 13"


def test_verify_quick_and_corrupted(ex26_file, capsys, monkeypatch):
    assert main(["verify", str(ex26_file)]) == 0
    capsys.readouterr()

    def build_corrupted(trie, colex=None):
        idx = build_index(trie, colex)
        table, i = idx.samples.slot(0)  # the first colored node's sample
        table[i] = table[i] - 1 if table[i] > 1 else 2
        return idx

    monkeypatch.setattr(cli, "build_index", build_corrupted)
    assert main(["verify", str(ex26_file)]) == 1
    out = capsys.readouterr().out
    assert "FAIL phi-oracle" in out


def test_verify_full_small(tmp_path, capsys):
    # at most 12 nodes, every connected subtree is checked
    p = tmp_path / "small.txt"
    p.write_bytes(b"ab\nac\nba\n")
    assert main(["verify", str(p)]) == 0
    assert "PASS attractor-exhaustive" in capsys.readouterr().out


def test_bench_produces_csv(ex26_file, capsys):
    capsys.readouterr()
    assert main(["bench", str(ex26_file), "--t", "1,4", "--repeat", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "engine,t,build_s,index_bits,count_us,locate_us_per_occ"
    assert len(lines) == 4  # rindex + sampled t=1 + sampled t=4
    assert lines[1].startswith("rindex,")


@pytest.mark.parametrize("lines, n", [([], 1), (ex26_lines(), 26)], ids=["one-node", "ex26"])
def test_bench_rows_report_the_t_used_and_a_nonnegative_time_per_occurrence(
        tmp_path, capsys, lines, n):
    # the per-occurrence time is the locate time over the occurrences, with
    # nothing subtracted, and a t past n prints as the n the build used
    src = tmp_path / "in.txt"
    src.write_bytes(b"".join(line + b"\n" for line in lines))
    capsys.readouterr()
    assert main(["bench", str(src), "--t", "1,16,64", "--repeat", "2"]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["rindex", "sampled", "sampled", "sampled"]
    assert [int(row[1]) for row in rows] == [0, 1, min(16, n), n]
    assert all(float(row[5]) >= 0 for row in rows)


def test_bench_repetitive_corpus_size_direction(tmp_path, capsys):
    # near-duplicate dictionaries under distinct version prefixes: the
    # run-length engine's file should be well below the t=1 baseline's
    import random

    rng = random.Random(5)
    words = sorted({bytes(rng.choice(b"abcdefgh") for _ in range(rng.randint(4, 10)))
                    for _ in range(120)})
    lines = []
    for v in range(100):
        tag = bytes([97 + v // 26, 97 + v % 26, ord("/")])
        for w in words:
            lines.append(tag + (w if rng.random() > 0.01 else w[:-1] + b"a"))
    src = tmp_path / "versioned.txt"
    src.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()
    assert main(["bench", str(src), "--engines", "rindex,sampled", "--t", "1",
                 "--repeat", "1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    bits = {row.split(",")[0]: int(row.split(",")[3]) for row in rows}
    assert bits["rindex"] * 2 < bits["sampled"]
