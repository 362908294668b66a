#!/usr/bin/env python3
"""Quick look at one cart-pole swing-up episode per algorithm.

Runs a single short episode with the default benchmark settings (scaled
down by --seconds) and prints the angle metrics, mostly useful as a smoke
test after changing controller defaults.
"""

import argparse
import copy
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from soppi import SettlingCriterion, harness, mse, run_episode, \
    settling_time  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    raw = copy.deepcopy(harness.DEFAULT_CARTPOLE_CONFIG)
    raw["experiment"]["t_total"] = args.seconds
    raw["experiment"]["base_seed"] = args.seed
    config = harness.parse_config(raw)
    crit = SettlingCriterion(2, 0.0, 0.10, mode="fraction_of_range",
                             wrap_angle=True)
    import scipy.special  # noqa: F401  (no episode's time includes the import)
    for algo in ("mppi", "soppi"):
        cfg = dataclasses.replace(config.controller, seed=args.seed)
        t0 = time.perf_counter()
        rec = run_episode(config.system, config.cost_spec, cfg, config.x0,
                          algo, config.n_steps)
        step_ms = 1e3 * (time.perf_counter() - t0) / config.n_steps
        ts = settling_time(rec, crit)
        print(f"{algo}: mse(theta)={mse(rec, 2, 0.0, wrap=True):.4f} "
              f"settle10%={'none' if ts is None else f'{ts:.2f} s'} "
              f"mean step {step_ms:.1f} ms")


if __name__ == "__main__":
    main()
