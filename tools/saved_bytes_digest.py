"""SHA-1 of the saved index bytes for every benchmark corpus, in one checkout.

For each workload of ``bench/workloads.py`` and seeds 1..10, and for the
26-node running example of the tests, prints one line

    <corpus> <sha1 of save_rindex(build_index(parse_strings_file(corpus)))>

then one line per sampled-engine file, ``save_sampled(build_sampled(...))``:
the running example at t = 2 and 4, and seed 1 of each workload at the
default t and at t = 1 (every node a cover root),

    sampled <corpus> t=<t> <sha1>

using the checkout's own ``src/`` and ``bench/workloads.py`` (read, never
edited). Two checkouts build bit-for-bit the same files iff they print the
same lines:

    python3 tools/saved_bytes_digest.py ../parent > parent.txt
    python3 tools/saved_bytes_digest.py . > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

SEEDS = range(1, 11)


def digest(data, rindex, storage, trie):
    blob = storage.save_rindex(rindex.build_index(trie.parse_strings_file(data)))
    return hashlib.sha1(blob).hexdigest()


def sampled_digest(data, t, baseline, storage, trie):
    """(t, sha1) of the sampled index of ``data``; ``t=None`` takes the default."""
    sl = baseline.build_sampled(trie.parse_strings_file(data), t=t)
    return sl.t, hashlib.sha1(storage.save_sampled(sl)).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="root of the checkout to build with")
    args = ap.parse_args(argv)
    root = Path(args.checkout).resolve()
    for sub in ("src", "bench", "tests"):
        sys.path.insert(0, str(root / sub))
    from rlxt import baseline, rindex, storage, trie
    import workloads
    from conftest import ex26_lines

    def corpus(lines):
        return b"".join(line + b"\n" for line in lines)

    print("ex26", digest(corpus(ex26_lines()), rindex, storage, trie), flush=True)
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
