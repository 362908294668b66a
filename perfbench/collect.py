#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --workloads mppi-cartpole --seeds 1-10 \
        --runs runs.jsonl

Runs are made one after another, never in parallel.  Each run's detail and
result lines are appended to ``--runs`` as they finish, so an interrupted
collection keeps what it measured; runs already in the file are not
repeated.  The summary gives, per workload and metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (IQR over median)
against a third of the metric's bound in ``BENCHMARK.json``.

With ``--baseline PATH`` it also writes the collected figures as a baseline
file: the fingerprint, the end-to-end summary, the per-layer metrics of the
traced runs (median over seeds) and the digest of the first battery's
trajectories per seed, which ``run.py`` compares against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _load(path):
    runs = []
    if path.is_file():
        for line in path.read_text().splitlines():
            if line.strip():
                runs.append(json.loads(line))
    return runs


def run_one(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({proc.returncode}):\n{proc.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": time.perf_counter() - t0,
            "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs, bench):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    table = {}
    for run in runs:
        if run["trace"]:
            continue
        per = table.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    out = {}
    for workload, per in table.items():
        out[workload] = {}
        for name, values in per.items():
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            out[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values),
                "spread": spread, "bound": bound,
                "steady": bound is None or spread < bound / 3}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=Path, required=True,
                    help="JSON-lines file the runs are appended to")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="write a baseline file from every run in --runs")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    runs = _load(args.runs)
    done = {(r["workload"], r["seed"], r["trace"]) for r in runs}
    for workload in workloads:
        for seed in _seeds(args.seeds):
            if (workload, seed, args.trace) in done:
                continue
            run = run_one(workload, seed, bench["run_seconds"], args.trace)
            runs.append(run)
            with open(args.runs, "a") as fh:
                fh.write(json.dumps(run) + "\n")
            print(f"{workload} seed {seed}: correct="
                  f"{run['result']['correct']}", file=sys.stderr, flush=True)
    summary = summarize([r for r in runs if r["workload"] in workloads],
                        bench)
    for workload, per in summary.items():
        for name, s in per.items():
            flag = "" if s["steady"] else "  <-- spread >= bound/3"
            print(f"{workload:17s} {name:14s} median {s['median']:.6g} "
                  f"IQR [{s['q1']:.6g}, {s['q3']:.6g}] spread "
                  f"{s['spread']:.4f} bound {s['bound']} n {s['n']}{flag}")
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline(runs, bench), indent=1)
                                 + "\n")
    return 0


def baseline(runs, bench):
    layers = {}
    digests = {}
    for run in runs:
        w = run["workload"]
        digests.setdefault(w, {})[str(run["seed"])] = \
            run["detail"]["check"]["trajectory_sha256"]
        if run["trace"]:
            for name, m in run["result"]["metrics"].items():
                layers.setdefault(w, {}).setdefault(name, []).append(
                    m["value"])
    return {
        "fingerprint": runs[0]["detail"]["fingerprint"],
        "run_seconds": bench["run_seconds"],
        "seeds": sorted({r["seed"] for r in runs if not r["trace"]}),
        "end_to_end": summarize(runs, bench),
        "per_layer": {w: {k: statistics.median(v) for k, v in per.items()}
                      for w, per in layers.items()},
        "trajectory_sha256": digests,
    }


if __name__ == "__main__":
    sys.exit(main())
