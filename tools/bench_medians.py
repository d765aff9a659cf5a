"""Medians and quartiles of the benchmark's end-to-end metrics, parent vs change.

Runs ``python3 bench/run.py --workload W --seed S --trace 0`` in two
checkouts, a parent commit and a change, for every workload and seeds
1..10. The two run one after the other on each seed, alternating which goes
first. It reads the JSON object on the last line of each run and writes, per
side and workload, the median and quartiles of every end-to-end metric, and
per metric the number of seeds on which the change read better than the
parent.

    python3 tools/bench_medians.py ../parent . --out BENCH_7.json

Each run is its own process, one at a time, as long as ``run_seconds`` of
the parent's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SEEDS = range(1, 11)


def run_once(checkout, workload, seed, seconds):
    """End-to-end metrics of one untraced run: {name: (value, unit)}."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: wrong or failed operations")
    return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, better):
    """Per metric: unit, median, quartiles and the value of every run."""
    out = {}
    for name in runs[0]:
        values = [r[name][0] for r in runs]
        out[name] = {"unit": runs[0][name][1], "better": better.get(name, "lower"),
                     **quartiles(values), "runs": values}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    sides = [("parent", args.parent), ("change", args.change)]
    spec = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs = {name: {w: [] for w in workloads} for name, _ in sides}
    order = []
    k = 0
    for w in workloads:
        for seed in SEEDS:
            pair = sides if k % 2 == 0 else sides[::-1]
            k += 1
            for name, path in pair:
                print(f"{w} seed {seed}: {name}", file=sys.stderr, flush=True)
                runs[name][w].append(run_once(path, w, seed, seconds))
                order.append(f"{w}/{seed}/{name}")

    summary = {name: {w: summarize(runs[name][w], better) for w in workloads}
               for name, _ in sides}
    wins = {}
    for w in workloads:
        wins[w] = {}
        for metric, m in summary["change"][w].items():
            sign = 1 if m["better"] == "lower" else -1
            pairs = zip(summary["parent"][w][metric]["runs"], m["runs"])
            wins[w][metric] = sum(1 for a, b in pairs if sign * (b - a) < 0)
    report = {
        "command": "python3 bench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "seeds": list(SEEDS),
        "run_order": order,
        "sides": summary,
        "seeds_where_change_is_better": wins,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
