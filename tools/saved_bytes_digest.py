"""SHA-1 of the saved index bytes for every benchmark corpus, in one checkout.

For each workload of ``bench/workloads.py`` and seeds 1..10, for the
26-node running example of the tests, for a trie over 200 byte values
(sigma > 64, where the in-memory block masks are Python ints rather than
an ``array``), and for two lines over ``ab`` of 300 bytes sharing 200 and
two of 70,000 sharing 40,000 (depths past 2**8 and past 2**16, so the trie
build sorts them at 16 and at 32 bits, where every workload's fit 8),
prints one line

    <corpus> <sha1 of save_rindex(build_index(parse_strings_file(corpus)))> <sections>

and one for the running example read as Format B, the edge lines of its
strings-built trie through ``parse_edges_file`` (``ex26-edges``, which
hashes equal to ``ex26``), then one line per sampled-engine file, ``save_sampled(build_sampled(...))``:
the running example at t = 2 and 4, and seed 1 of each workload at the
default t and at t = 1 (every node a cover root),

    sampled <corpus> t=<t> <sha1> <sections>

where ``<sections>`` is ``<tag>=<sha1 of its payload>`` for every section,
in file order, so a format change shows which sections moved. The
whole-file hash is taken with the version byte (the one after the magic)
set to 0: both engines share that byte, so a version bump made for one
engine's format leaves the other's lines alone. It uses the checkout's own
``src/`` and ``bench/workloads.py`` (read, never edited). Two checkouts
build the same files, up to the version byte, iff they print the same
lines:

    python3 tools/saved_bytes_digest.py ../parent > parent.txt
    python3 tools/saved_bytes_digest.py . > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

SEEDS = range(1, 11)


def digests(blob, storage):
    """The SHA-1 of ``blob`` with its version byte masked, then
    ``<tag>=<sha1>`` for each of its sections."""
    _engine, sections = storage._unpack(blob)
    at = len(storage.MAGIC)
    masked = blob[:at] + b"\0" + blob[at + 1:]
    return " ".join([hashlib.sha1(masked).hexdigest()]
                    + [f"{tag}={hashlib.sha1(payload).hexdigest()}"
                       for tag, payload in sections.items()])


def deep_pair(rng, length, shared):
    """Two random lines of ``length`` bytes over ``ab`` whose longest
    common prefix is exactly ``shared`` bytes."""
    prefix = bytes(rng.choice(b"ab") for _ in range(shared))
    return [prefix + first + bytes(rng.choice(b"ab") for _ in range(length - shared - 1))
            for first in (b"a", b"b")]


def digest(data, rindex, storage, trie, parse="parse_strings_file"):
    blob = storage.save_rindex(rindex.build_index(getattr(trie, parse)(data)))
    return digests(blob, storage)


def sampled_digest(data, t, baseline, storage, trie):
    """(t, digests) of the sampled index of ``data``; ``t=None`` takes the default."""
    sl = baseline.build_sampled(trie.parse_strings_file(data), t=t)
    return sl.t, digests(storage.save_sampled(sl), storage)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="root of the checkout to build with")
    args = ap.parse_args(argv)
    root = Path(args.checkout).resolve()
    for sub in ("src", "bench", "tests"):
        sys.path.insert(0, str(root / sub))
    from rlxt import baseline, rindex, storage, trie
    import workloads
    from conftest import ex26_lines, make_dictionary, repetitive_lines

    def corpus(lines):
        return b"".join(line + b"\n" for line in lines)

    print("ex26", digest(corpus(ex26_lines()), rindex, storage, trie), flush=True)
    edges = trie.parse_strings_file(corpus(ex26_lines())).to_edge_lines().encode()
    print("ex26-edges", digest(edges, rindex, storage, trie, "parse_edges_file"), flush=True)
    rng = random.Random(1)
    alpha = bytes(range(33, 233))
    wide = [bytes([b]) for b in alpha] + repetitive_lines(
        rng, make_dictionary(rng, 300, alpha, 1, 8), alpha, 4)
    print("wide200", digest(corpus(wide), rindex, storage, trie), flush=True)
    for label, length, shared in (("deep300", 300, 200), ("deep70k", 70_000, 40_000)):
        lines = deep_pair(random.Random(1), length, shared)
        print(label, digest(corpus(lines), rindex, storage, trie), flush=True)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            lines, _patterns, _oracle = workloads.generate(name, seed)
            print(f"{name}/{seed}", digest(corpus(lines), rindex, storage, trie), flush=True)
    sampled = [("ex26", corpus(ex26_lines()), t) for t in (2, 4)]
    for name in workloads.WORKLOADS:
        data = corpus(workloads.generate(name, 1)[0])
        sampled += [(f"{name}/1", data, None), (f"{name}/1", data, 1)]
    for label, data, t in sampled:
        t, sha = sampled_digest(data, t, baseline, storage, trie)
        print(f"sampled {label} t={t}", sha, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
