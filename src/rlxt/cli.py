"""Command-line front end: build/serialize indexes, run count/locate queries,
emit statistics and verification reports, and benchmark engines.

Exit codes: 0 ok, 1 failed verification, 2 malformed input, 3 bad index file
(also a query that fails on an index that loaded).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

import numpy as np

from . import storage
from .baseline import SampledLocate
from .errors import DomainError, FormatError, IndexFileError, NoSuccessorError
from .measures import check_entropy_bounds, entropy_hk, gamma_r, quotient, verify_attractor
from .rindex import build_index
from .rlxbwt import build_rl_xbwt
from .trie import colex_sort, oracle_locate, parse_edges_file, parse_strings_file

ENGINES = ("rindex", "sampled")


def _read_trie(path, fmt):
    with open(path, "rb") as fh:
        data = fh.read()
    if fmt == "strings":
        return parse_strings_file(data)
    if fmt == "edges":
        return parse_edges_file(data)
    raise FormatError(f"unknown format {fmt!r}")


def _from_hex(text):
    try:
        return bytes.fromhex(text.decode("ascii") if isinstance(text, bytes) else text)
    except ValueError:  # also covers a non-ASCII byte in a pattern-file line
        raise FormatError(f"pattern is not hex: {text!r}") from None


def _patterns_from_args(args):
    pats = []
    for p in args.patterns:
        pats.append(_from_hex(p) if args.hex else os.fsencode(p))  # argv's own bytes
    if getattr(args, "pattern_file", None):
        with open(args.pattern_file, "rb") as fh:
            for line in fh.read().split(b"\n"):
                if line or args.keep_empty:
                    pats.append(_from_hex(line) if args.hex else line)
    return pats


def cmd_build(args):
    if args.t < 0:
        raise FormatError(f"cover parameter --t must be positive, not {args.t}")
    trie = _read_trie(args.input, args.format)
    t0 = time.perf_counter()
    if args.engine == "rindex":
        obj = build_index(trie)
    else:
        order = colex_sort(trie)
        t_par = args.t or max(1, int(math.isqrt(trie.n)))
        obj, _ = SampledLocate.build(trie, order, min(t_par, trie.n))
    build_s = time.perf_counter() - t0
    meta = {"engine": args.engine, "build_seconds": round(build_s, 6), "n": trie.n}
    if args.engine == "sampled":
        meta["t"] = obj.t
    size = storage.save(obj, args.output, meta)
    print(f"wrote {args.output}: n={trie.n} engine={args.engine} bytes={size}")
    return 0


def _answers(query, patterns):
    """``query`` of each pattern. A query that fails on an index that
    loaded means the file holds a damage its checks do not see."""
    try:
        for p in patterns:
            yield query(p)
    except (DomainError, NoSuccessorError, IndexError) as exc:
        raise IndexFileError(f"query failed ({type(exc).__name__}: {exc})") from None


def cmd_locate(args):
    _, obj, _, _ = storage.load(args.index)
    query = obj.count if args.count_only else obj.locate
    for got in _answers(query, _patterns_from_args(args)):
        print(got if args.count_only else " ".join([str(len(got))] + [str(u) for u in got]))
    return 0


def cmd_count(args):
    _, obj, _, _ = storage.load(args.index)
    for count in _answers(obj.count, _patterns_from_args(args)):
        print(count)
    return 0


def _stats_payload(engine, obj, sections, meta):
    trie, order = storage.trie_of(engine, obj)
    rlx = build_rl_xbwt(trie, order)
    r, r_c, r_prime = rlx.run_stats()
    q_out = quotient(trie, order, "out-set")
    q_iso = quotient(trie, order, "isomorphic")
    q_eq = quotient(trie, order, "isomorphic+label")
    byte_of = trie.alphabet.byte_of_code
    payload = {
        "n": trie.n,
        "sigma": trie.alphabet.sigma,
        "engine": "rindex" if engine == storage.ENGINE_RINDEX else "sampled",
        "r": r,
        "r_c": {chr(int(byte_of[c])): cnt for c, cnt in sorted(r_c.items())},
        "r_prime": r_prime,
        "h_wc": {str(k): entropy_hk(trie, order, k).h_bits for k in range(3)},
        "classes_eqr": q_out.num_classes,
        "classes_approx": q_iso.num_classes,
        "classes_eq": q_eq.num_classes,
        "omega": q_eq.omega,
        "gamma_r_size": len(gamma_r(trie, order, rlx)),
        "sizes_bits": {name: 8 * len(blob) for name, blob in sections.items()},
        "header_bits": 8 * storage.header_bytes(len(sections)),
        "build_seconds": meta.get("build_seconds"),
    }
    payload["machinery_bits"] = sum(
        bits for name, bits in payload["sizes_bits"].items() if name in storage.MACHINERY
    )
    return payload


def cmd_stats(args):
    engine, obj, meta, sections = storage.load(args.index)
    print(json.dumps(_stats_payload(engine, obj, sections, meta), indent=2, sort_keys=True))
    return 0


def _verify_patterns(trie, rng):
    pats = set()
    paths = trie.path_byte_strings()
    for u in range(1, trie.n + 1):
        s = paths[u]
        for ln in range(1, min(4, len(s)) + 1):
            pats.add(s[len(s) - ln :])
    alpha = bytes(int(b) for b in trie.alphabet.byte_of_code[1:])
    for _ in range(50):
        ln = rng.randint(1, 5)
        if alpha:
            pats.add(bytes(rng.choice(alpha) for _ in range(ln)))
    pats.add(b"")
    return sorted(pats)


def cmd_verify(args):
    trie = _read_trie(args.input, args.format)
    order = colex_sort(trie)
    idx = build_index(trie, order)
    if args.corrupt_phi_sample and len(idx.samples.values):
        idx.samples.values[0] = idx.samples.values[0] % trie.n + 1  # test hook
    sl, _ = SampledLocate.build(trie, order, max(1, int(math.isqrt(trie.n))))
    rng = random.Random(trie.n * 7919 + 13)
    checks = []

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failed property, not a CLI crash
            ok, detail = False, repr(exc)
        checks.append((name, ok, detail))

    def phi_oracle():
        for i in range(1, trie.n):
            u = int(order.colex_to_pre[i])
            if idx.phi(u) != int(order.colex_to_pre[i + 1]):
                return False, f"phi({u}) != colex successor"
        return True, f"{trie.n - 1} successors"

    def locate_oracle():
        pats = _verify_patterns(trie, rng)
        for pat in pats:
            want = oracle_locate(trie, pat, order)
            if idx.locate(pat) != want or sl.locate(pat) != want:
                return False, f"pattern {pat!r}"
        return True, f"{len(pats)} patterns"

    def size_bounds():
        r, _, r_prime = idx.rlx.run_stats()
        sum_add, sum_del = idx.rlx.delta_counts()
        ok = sum_del <= r and sum_add <= 2 * r and r_prime <= max(3 * r, 1)
        return ok, f"r={r} r'={r_prime} |DEL|={sum_del} |ADD|={sum_add}"

    def entropy():
        rep = check_entropy_bounds(trie, order, idx.rlx, k_max=2)
        return True, f"margins {[round(b['margin'], 3) for b in rep['bounds']]}"

    def omega_bound():
        q_eq = quotient(trie, order, "isomorphic+label")
        q_iso = quotient(trie, order, "isomorphic")
        q_out = quotient(trie, order, "out-set")
        r = idx.rlx.run_stats()[0]
        chain = q_eq.num_classes >= q_iso.num_classes >= q_out.num_classes
        return r <= q_eq.omega and chain, f"r={r} omega={q_eq.omega}"

    def attractor():
        g = gamma_r(trie, order, idx.rlx)
        return verify_attractor(trie, g, "complete-subtrees", order), f"|Gamma^r|={len(g)}"

    check("phi-oracle", phi_oracle)
    check("locate-oracle", locate_oracle)
    check("rle-size-bounds", size_bounds)
    check("entropy-bounds", entropy)
    check("r-le-omega", omega_bound)
    check("attractor", attractor)
    if args.level == "full" and trie.n <= 12:
        def exhaustive():
            g = gamma_r(trie, order, idx.rlx)
            return verify_attractor(trie, g, "all-connected", order), "all connected subtrees"
        check("attractor-exhaustive", exhaustive)

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    if failed:
        print(f"failed: {', '.join(failed)}")
        return 1
    return 0


def _cover_parameters(text):
    """The cover parameters of ``rlxt bench --t``: positive integers, comma-separated."""
    values = [int(x) if x.isdecimal() else 0 for x in text.split(",")]
    if min(values) < 1:
        raise FormatError(f"--t takes positive integers separated by commas, not {text!r}")
    return values


def cmd_bench(args):
    engines = args.engines.split(",")
    for engine in engines:
        if engine not in ENGINES:
            raise FormatError(f"unknown engine {engine!r}; engines are {', '.join(ENGINES)}")
    t_values = _cover_parameters(args.t)
    trie = _read_trie(args.input, args.format)
    order = colex_sort(trie)
    pats = _patterns_from_args(args)
    if not pats:
        rng = random.Random(1)
        paths = trie.path_byte_strings()
        pats = sorted({paths[rng.randint(1, trie.n)][-3:] for _ in range(20) if trie.n > 1})
        pats = [p for p in pats if p] or [b""]
    rows = ["engine,t,build_s,index_bits,count_us,locate_us_per_occ"]
    for engine in engines:
        for t_par in [0] if engine == "rindex" else t_values:
            t0 = time.perf_counter()
            if engine == "rindex":
                obj = build_index(trie, order)
                blob = storage.save_rindex(obj)
            else:
                obj, _ = SampledLocate.build(trie, order, min(t_par, trie.n))
                blob = storage.save_sampled(obj)
            build_s = time.perf_counter() - t0
            reps = max(1, args.repeat)
            t0 = time.perf_counter()
            for _ in range(reps):
                for p in pats:
                    obj.count(p)
            count_us = (time.perf_counter() - t0) * 1e6 / (reps * len(pats))
            occ_total = sum(obj.count(p) for p in pats)
            t0 = time.perf_counter()
            for _ in range(reps):
                for p in pats:
                    obj.locate(p)
            locate_us = (time.perf_counter() - t0) * 1e6 / reps
            per_occ = (locate_us - count_us * len(pats)) / max(occ_total, 1)
            rows.append(f"{engine},{t_par},{build_s:.4f},{8 * len(blob)},"
                        f"{count_us:.2f},{per_occ:.3f}")
    print("\n".join(rows))
    return 0


def make_parser():
    ap = argparse.ArgumentParser(prog="rlxt", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="build and serialize an index")
    p.add_argument("input")
    p.add_argument("--format", choices=["strings", "edges"], default="strings")
    p.add_argument("--output", "-o", required=True)
    p.add_argument("--engine", choices=ENGINES, default="rindex")
    p.add_argument("--t", type=int, default=0, help="cover parameter (sampled engine)")
    p.set_defaults(fn=cmd_build)

    for name, fn in (("locate", cmd_locate), ("count", cmd_count)):
        p = sub.add_parser(name, help=f"{name} patterns in an index")
        p.add_argument("index")
        p.add_argument("patterns", nargs="*")
        p.add_argument("--pattern-file")
        p.add_argument("--hex", action="store_true", help="patterns are hex-encoded bytes")
        p.add_argument("--keep-empty", action="store_true", help=argparse.SUPPRESS)
        if name == "locate":
            p.add_argument("--count-only", action="store_true")
        p.set_defaults(fn=fn)

    p = sub.add_parser("stats", help="JSON statistics of an index file")
    p.add_argument("index")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("verify", help="run the invariant suite on an input")
    p.add_argument("input")
    p.add_argument("--format", choices=["strings", "edges"], default="strings")
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.add_argument("--corrupt-phi-sample", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("bench", help="benchmark engines on an input")
    p.add_argument("input")
    p.add_argument("--format", choices=["strings", "edges"], default="strings")
    p.add_argument("--engines", default="rindex,sampled")
    p.add_argument("--t", default="1,16")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("patterns", nargs="*")
    p.add_argument("--pattern-file")
    p.add_argument("--hex", action="store_true")
    p.add_argument("--keep-empty", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_bench)
    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except IndexFileError as exc:
        print(f"index error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
