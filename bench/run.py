"""Benchmark of rlxt: build, load, count and locate on three trie shapes.

One process, one thread, a closed loop with one client. Run from the root
of a checkout:

    python3 bench/run.py --workload versioned-dict --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the traced run with ``--trace 1``.
See README.md in this directory for the workloads, the metrics and the
machine-speed scaling of the timed metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

REF_EVERY_S = 0.1  # time the reference loops after this much timed work
# A sample is scaled by the median of the reference timings within this many
# places of the two that bracket it: the machine's speed jitters from one
# timing to the next but drifts over seconds.
SMOOTH_REFS = 2
ROUND_BATCH = 50  # patterns per query kind in one timed round
MIN_BUILDS = 5  # timed builds and loads per run
MAX_WINDOW_S = 140  # the window runs past --seconds until the minimums are met, not past this
CHECK_PATTERNS = 16  # patterns the freshly built and the loaded index must agree on

_REF_KEYS = np.arange(0, 3 * 4096, 3, dtype=np.int64)
_REF_ARRAY = np.arange(20000, dtype=np.int64) * 7919 % 65521


def scalar_reference():
    """Scalar numpy calls on a small array, the bulk of a query's work."""
    acc = 0
    for i in range(600):
        k = int(np.searchsorted(_REF_KEYS, (i * 37) % 12288))
        acc += int(_REF_KEYS[k & 4095])
    return acc


def bulk_reference():
    """Dictionary and integer loops in Python plus whole-array numpy passes,
    the bulk of building and loading an index."""
    acc = 0
    table = {}
    for i in range(4000):
        key = i * 7919 & 1023
        acc += table.get(key, i) ^ (acc >> 7)
        table[key] = acc & 0xFFFF
    acc += int(np.unique(_REF_ARRAY + acc % 7, return_inverse=True)[1][-1])
    return acc


# The reference loops' times on a nominal machine (close to their times in
# a fast stretch on a 2-core Intel Xeon VM at 2.0 GHz). A sample is
# scaled by the nominal time over the time of the loop that does its kind
# of work, measured around it, so a stretch in which the whole machine runs
# slow does not read as a slow program. Raw times are printed beside.
REFERENCES = {"scalar": (scalar_reference, 0.0012), "bulk": (bulk_reference, 0.002)}
REFERENCE_OF = {"build": "bulk", "load": "bulk", "count": "scalar", "locate": "scalar"}


def time_references():
    """Seconds taken by each reference loop, timed now."""
    out = {}
    for name, (loop, _) in REFERENCES.items():
        t0 = time.perf_counter()
        loop()
        out[name] = time.perf_counter() - t0
    return out


def speed_factor(timings):
    """Nominal over measured reference time, averaged over the loops."""
    return statistics.mean(REFERENCES[name][1] / t for name, t in timings.items())


class Clock:
    """Collects timed samples per kind. The reference loops are timed after
    every REF_EVERY_S of samples; each sample is later scaled by the nominal
    time of its kind's reference loop over the times measured around it."""

    def __init__(self):
        self.refs = [time_references()]
        self.segments = []  # (index of the references timed after it, samples)
        self.pending = []
        self.since = 0.0
        self.counts = {}

    def add(self, kind, seconds, key=None):
        self.pending.append((kind, seconds, key))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.since += seconds
        if self.since >= REF_EVERY_S:
            self.checkpoint()

    def checkpoint(self):
        self.refs.append(time_references())
        self.segments.append((len(self.refs) - 1, self.pending))
        self.pending = []
        self.since = 0.0

    def samples(self):
        """kind -> [(raw seconds, scaled seconds, key)]."""
        out = {}
        for i, samples in self.segments:
            local = self.refs[max(0, i - 1 - SMOOTH_REFS):i + 1 + SMOOTH_REFS]
            factor = {name: nominal / statistics.median(r[name] for r in local)
                      for name, (_, nominal) in REFERENCES.items()}
            for kind, seconds, key in samples:
                out.setdefault(kind, []).append(
                    (seconds, seconds * factor[REFERENCE_OF[kind]], key))
        return out


def per_key_means(samples, which):
    """key -> mean of the raw (which=0) or scaled (which=1) seconds."""
    total, count = {}, {}
    for sample in samples:
        key = sample[2]
        total[key] = total.get(key, 0.0) + sample[which]
        count[key] = count.get(key, 0) + 1
    return {key: total[key] / count[key] for key in total}


class Bench:
    """One workload's inputs, expected answers and the library entry points.

    Library functions are looked up as module attributes at call time, so
    the traced run can wrap them from outside.
    """

    def __init__(self, workload, seed, smoke):
        self.lines, self.patterns, self.oracle = workloads.generate(workload, seed, smoke)
        self.data = b"".join(line + b"\n" for line in self.lines)
        self.expected = [self.oracle.locate(p) for p in self.patterns]
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.blob = None

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.wrong.append(what)

    def build(self, clock=None):
        from rlxt import rindex, storage, trie

        t0 = time.perf_counter()
        idx = rindex.build_index(trie.parse_strings_file(self.data))
        blob = storage.save_rindex(idx)
        elapsed = time.perf_counter() - t0
        if clock:
            clock.add("build", elapsed)
        if self.blob is None:
            self.blob = blob
        self.check("build: saved bytes differ between builds", blob == self.blob)
        return blob, idx

    def load(self, blob, clock=None):
        from rlxt import storage

        t0 = time.perf_counter()
        _, idx, _, _ = storage.load_bytes(blob)
        elapsed = time.perf_counter() - t0
        if clock:
            clock.add("load", elapsed)
        self.attempted += 1
        return idx

    def queries(self, idx, batch, clock=None, on_query=None):
        """Count then locate every pattern of ``batch``; returns occurrences."""
        occ = 0
        for kind in ("count", "locate"):
            fn = idx.count if kind == "count" else idx.locate
            for k in batch:
                if on_query:
                    on_query(kind)
                t0 = time.perf_counter()
                try:
                    got = fn(self.patterns[k])
                except Exception as exc:  # a raising query is a failed operation
                    self.attempted += 1
                    self.failed += 1
                    print(f"{kind} {self.patterns[k]!r} raised {exc!r}", file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - t0
                if clock:
                    clock.add(kind, elapsed, k)
                want = self.expected[k]
                if kind == "count":
                    self.check(f"count {self.patterns[k]!r}", got == len(want))
                else:
                    occ += len(got)
                    self.check(f"locate {self.patterns[k]!r}", got == want)
        return occ

    def check_round_trip(self, fresh, loaded):
        """save(load(b)) == b, and the loaded index answers as the fresh one."""
        from rlxt import storage

        self.check("save_rindex(load_bytes(b)) != b", storage.save_rindex(loaded) == self.blob)
        for p in self.patterns[:CHECK_PATTERNS]:
            self.check(f"fresh/loaded count {p!r}", fresh.count(p) == loaded.count(p))
            self.check(f"fresh/loaded locate {p!r}", fresh.locate(p) == loaded.locate(p))

    def memory(self):
        """(resident bytes of a loaded index, tracemalloc peak during load)."""
        from rlxt import storage

        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = storage.load_bytes(self.blob)
            peak = tracemalloc.get_traced_memory()[1] - base
            idx = result[1]
            del result
            gc.collect()
            resident = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        del idx
        return resident, peak


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q))


def run_untraced(bench, workload, seconds, smoke):
    bench.build()  # untimed warm-up; fixes the bytes every later build must equal
    resident, peak = bench.memory()
    n_pat = len(bench.patterns)
    batch_size = min(n_pat, ROUND_BATCH)
    # every pattern is answered at least once
    min_timed = {"build": 1 if smoke else MIN_BUILDS, "load": 1 if smoke else MIN_BUILDS,
                 "count": n_pat, "locate": n_pat}
    clock = Clock()
    occ = 0
    answered = 0
    rounds = 0
    start = time.perf_counter()

    def more():
        elapsed = time.perf_counter() - start
        short = any(clock.counts.get(kind, 0) < n for kind, n in min_timed.items())
        return elapsed < seconds or (short and elapsed < MAX_WINDOW_S)

    while more():
        blob, fresh = bench.build(clock)
        loaded = bench.load(blob, clock)
        batch = [(answered + k) % n_pat for k in range(batch_size)]
        occ += bench.queries(loaded, batch, clock)
        clock.checkpoint()
        answered += batch_size
        rounds += 1
    window = time.perf_counter() - start
    bench.check_round_trip(fresh, loaded)

    samples = clock.samples()
    occurrences = [len(want) for want in bench.expected]

    def metrics_of(which):
        """Queries count once per pattern: each pattern's mean time over the
        run, so that a pattern answered twice weighs no more than one
        answered once."""
        count = per_key_means(samples["count"], which)
        locate = per_key_means(samples["locate"], which)
        return {
            "setup_s": (statistics.median(s[which] for s in samples["load"]), "s"),
            "build_s": (statistics.median(s[which] for s in samples["build"]), "s"),
            "count_us_p50": (statistics.median(count.values()) * 1e6, "us"),
            "locate_us_p50": (statistics.median(locate.values()) * 1e6, "us"),
            "locate_us_per_occ": (
                sum(locate.values()) * 1e6 / max(sum(occurrences[k] for k in locate), 1), "us"),
            "file_bytes": (len(bench.blob), "bytes"),
            "resident_bytes": (resident, "bytes"),
            "load_peak_bytes": (peak, "bytes"),
        }

    scaled = metrics_of(1)
    raw = metrics_of(0)
    print(f"rounds {rounds}, window {window:.2f} s, {answered} patterns per query kind, "
          f"{occ} occurrences located")
    for name, (_, nominal) in REFERENCES.items():
        times = [r[name] for r in clock.refs]
        print(f"{name} reference loop: median {statistics.median(times) * 1e3:.3f} ms over "
              f"{len(times)} timings, quartiles {_quantile(times, 0.25) * 1e3:.3f} / "
              f"{_quantile(times, 0.75) * 1e3:.3f} ms, nominal {nominal * 1e3:.3f} ms")
    for name, (value, unit) in scaled.items():
        print(f"  {name:20s} {value:14.4f} {unit:6s} raw {raw[name][0]:14.4f}")
    # The tails are printed but not reported: run to run they spread more
    # than any bound the benchmark could hold (see README.md).
    for kind in ("count", "locate"):
        raw_us, scaled_us = ([v * 1e6 for v in per_key_means(samples[kind], which).values()]
                             for which in (0, 1))
        q = 1 - 10 / len(scaled_us) if len(scaled_us) >= 40 else 0.5  # ten patterns beyond it
        print(f"  {kind}_us_p{100 * q:.4g}".ljust(23) + f"{_quantile(scaled_us, q):14.4f} us"
              f"     raw {_quantile(raw_us, q):14.4f}  ({len(scaled_us)} patterns)")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in scaled.items()}


def run_traced(bench, workload, seed, seconds):
    """Pairs of identical rounds, one untraced and one traced, until the
    window ends. Per-layer metrics are medians over the traced rounds."""
    import spans

    batch = list(range(min(len(bench.patterns), workloads.WORKLOADS[workload].trace_batch)))
    tracer = spans.Tracer()
    plain, traced, per_round = [], [], []
    start = time.perf_counter()
    while not per_round or time.perf_counter() - start < seconds:
        for on in (False, True):
            tracer.reset()
            ref0 = time_references()
            t0 = time.perf_counter()
            with tracer.installed(on):
                query = tracer.begin_query if on else None
                if query:
                    query("build")
                blob, _ = bench.build()
                if query:
                    query("load")
                idx = bench.load(blob)
                occ = bench.queries(idx, batch, on_query=query)
            elapsed = time.perf_counter() - t0
            factor = (speed_factor(ref0) + speed_factor(time_references())) / 2
            (traced if on else plain).append(elapsed * factor)
            if on:
                per_round.append(tracer.round_metrics(factor, occ))
    overhead = statistics.median(traced) / statistics.median(plain) - 1
    print(f"traced rounds {len(per_round)}, {len(batch)} patterns per query kind, "
          f"{len(tracer.start)} spans per round")
    print(f"round time untraced {statistics.median(plain):.3f} s, traced "
          f"{statistics.median(traced):.3f} s: tracing overhead {overhead * 100:.1f}%")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload}-seed{seed}.npz"
    tracer.write(spans_file)
    print(f"spans of the last traced round written to {spans_file.relative_to(ROOT)}")
    metrics = {name: (statistics.median(m[name][0] for m in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    metrics.update(spans.storage_metrics(bench.blob))
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def run(workload, seed, seconds, trace_on, smoke=False):
    bench = Bench(workload, seed, smoke)
    print(f"workload {workload} seed {seed}: {len(bench.lines)} lines, n = {bench.oracle.n}, "
          f"depth {bench.oracle.depth}, {len(bench.patterns)} patterns")
    if trace_on:
        metrics = run_traced(bench, workload, seed, seconds)
    else:
        metrics = run_untraced(bench, workload, seconds, smoke)
    for what in bench.wrong[:10]:
        print(f"WRONG: {what}", file=sys.stderr)
    result = {
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace_on)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    return result


def smoke():
    """Every workload at toy size, untraced and traced, with the checks on.
    The printed metric names must equal those in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    bad = []
    for workload in workloads.WORKLOADS:
        for trace_on in (0, 1):
            result = run(workload, 1, 0.2, trace_on, smoke=True)
            got = set(result["metrics"])
            if not result["correct"] or result["failed"]:
                bad.append(f"{workload} trace {trace_on}: wrong or failed operations")
            if got != want[trace_on]:
                bad.append(f"{workload} trace {trace_on}: metric names differ from "
                           f"BENCHMARK.json: missing {sorted(want[trace_on] - got)}, "
                           f"extra {sorted(got - want[trace_on])}")
    for line in bad:
        print(f"SMOKE FAILED: {line}", file=sys.stderr)
    print("smoke ok" if not bad else "smoke failed")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at toy size and check the metric names")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rlxt").is_dir():
        print(f"no rlxt sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if not args.workload:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
