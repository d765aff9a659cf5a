"""Flip every bit of every section of the two example indexes, one at a time.

The example indexes are the ones the tests save (``saved_example`` in
``tests/conftest.py``): the run-length index of [abc, abd, bcd, xyz] and its
sampled index at t = 2. Each flipped payload is repacked under a valid
CRC-32, so the decoders, not the checksum, must catch it. A file that loads
answers ``count`` and ``locate`` for the empty pattern, every substring of
the four lines and some absent patterns. Per section, one line counts the
flips that are

    rejected   load raises IndexFileError
    right      load succeeds and every answer equals the unflipped index's
    wrong      load succeeds and an answer differs before any query raises
    query_err  load succeeds and a query raises before any answer differs
    crash      load raises anything else, MemoryError included, or a load
               and its queries take more than SECONDS

It uses the checkout's own ``src/`` and ``tests/conftest.py``, so two
versions of the format can be compared:

    python3 tools/flip_sweep.py ../parent
    python3 tools/flip_sweep.py .

The process caps its own address space at MAX_BYTES, so that a flip that
sizes a huge table raises MemoryError instead of taking the machine's
memory.
"""

from __future__ import annotations

import argparse
import resource
import signal
import sys
from pathlib import Path

LINES = [b"abc", b"abd", b"bcd", b"xyz"]
ABSENT = [b"q", b"ca", b"da", b"yx", b"abcd", b"zz"]
OUTCOMES = ("rejected", "right", "wrong", "query_err", "crash")
SECONDS = 10
MAX_BYTES = 4 << 30


class Hang(Exception):
    pass


def _alarm(_signum, _frame):
    raise Hang


def patterns():
    subs = {line[i:j] for line in LINES for i in range(len(line))
            for j in range(i + 1, len(line) + 1)}
    return [b""] + sorted(subs) + ABSENT


def answers(index, pats):
    return [(index.count(p), list(index.locate(p))) for p in pats]


def outcome(blob, want, pats, storage, IndexFileError):
    signal.alarm(SECONDS)
    try:
        try:
            _, index, _, _ = storage.load_bytes(blob)
        except IndexFileError:
            return "rejected"
        except Exception:  # noqa: BLE001 (a traceback in the CLI)
            return "crash"
        for pat, expected in zip(pats, want):
            try:
                got = answers(index, [pat])[0]
            except Hang:
                raise
            except Exception:  # noqa: BLE001
                return "query_err"
            if got != expected:
                return "wrong"
        return "right"
    except Hang:
        return "crash"
    finally:
        signal.alarm(0)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", help="root of the checkout to load with")
    args = ap.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MAX_BYTES, MAX_BYTES))
    signal.signal(signal.SIGALRM, _alarm)
    root = Path(args.checkout).resolve()
    for sub in ("src", "tests"):
        sys.path.insert(0, str(root / sub))
    from rlxt import storage
    from rlxt.errors import IndexFileError
    from conftest import saved_example

    pats = patterns()
    print("engine section bits " + " ".join(OUTCOMES))
    for engine in ("rindex", "sampled"):
        blob = saved_example(engine)
        _, index, _, _ = storage.load_bytes(blob)
        want = answers(index, pats)
        kind, sections = storage._unpack(blob)
        for tag, payload in sections.items():
            counts = dict.fromkeys(OUTCOMES, 0)
            for bit in range(8 * len(payload)):
                flipped = bytearray(payload)
                flipped[bit // 8] ^= 1 << bit % 8
                damaged = dict(sections, **{tag: bytes(flipped)})
                counts[outcome(storage._pack(kind, damaged), want, pats, storage,
                               IndexFileError)] += 1
            print(engine, tag, 8 * len(payload), *counts.values(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
