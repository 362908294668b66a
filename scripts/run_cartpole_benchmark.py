#!/usr/bin/env python3
"""Full-scale cart-pole swing-up benchmark.

Runs the paired MPPI vs SOPPI battery (K=500, horizon 80, 5 SVGD sweeps,
5 paired seeds, 20 s episodes) and writes records, summary.csv, pvalues.csv,
and manifest.json to the output directory.  The acceptance tests reuse the
output directory, so run this once up front to keep the test suite fast:

    python3 scripts/run_cartpole_benchmark.py --out results/cartpole_benchmark

It took 6.5 minutes of wall time on a shared 2-vCPU x86-64 machine, 5.6 of
them in the five SOPPI trials; trials run one at a time, and the manifest's
``trial_seconds`` holds each trial's wall time.  Pass
--trials/--seed to shrink or reseed the battery (the acceptance tests only
reuse runs made with the default settings).
"""

import argparse
import copy
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from soppi import harness  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="results/cartpole_benchmark")
    ap.add_argument("--trials", type=int, default=None)
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()

    raw = copy.deepcopy(harness.DEFAULT_CARTPOLE_CONFIG)
    if args.trials is not None:
        raw["experiment"]["n_trials"] = args.trials
    if args.seed is not None:
        raw["experiment"]["base_seed"] = args.seed
    config = harness.parse_config(raw)

    t0 = time.time()
    manifest = harness.run_experiment(config, args.out)
    print(f"done in {(time.time() - t0) / 60:.1f} min; "
          f"{len(manifest.record_files)} records in {args.out}")
    with open(Path(args.out) / "summary.csv") as fh:
        print(fh.read())


if __name__ == "__main__":
    main()
