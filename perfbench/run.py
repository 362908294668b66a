#!/usr/bin/env python3
"""Closed-loop benchmark of the soppi controllers, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload soppi-cartpole --seed 1 --seconds 52

Each workload repeats *batteries*: one ``harness.run_experiment`` call on
the workload's config, written to a temporary directory under ``.bench_out/``.
One caller, one process, closed loop: a battery starts when the previous one
has finished.  Battery ``b`` of a run seeded ``s`` uses base seed
``s * 1000003 + b * n_trials``, so the seed fixes every input.  Batteries
start while the next one is predicted to end within ``--seconds``; the first
``min_batteries`` always run, and they alone feed ``mse_angle`` so that it
does not depend on speed.

Workloads (why each exists):

* ``soppi-cartpole``: SOPPI swing-up, K=500, horizon 80, 5 SVGD sweeps,
  fixed bandwidth.  The Stein kernel dominates: the paper's headline cost.
  Episodes of 10 steps, because one step takes half a second on a small
  machine.
* ``battery-pendulum``: paired MPPI+SOPPI pendulum battery, 2 trials per
  algorithm, ``workers=2``, median bandwidth at K=128.  The only workload
  that runs two trials at once and where the median heuristic matters.
* ``mppi-cartpole``: the same cart-pole config with MPPI, episodes of 100
  steps: the workload that bypasses the Stein kernel.  It is not listed in
  ``BENCHMARK.json``: its short, cache-bound steps slow down by up to 2x
  when other tenants load the machine, and on a shared 2-vCPU machine its
  timings spread 0.3-0.5 (IQR over median) across ten runs, beyond any
  bound a regression gate can use.  Run it by name to compare an SVGD change
  against a workload that must not move.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: fresh interpreter to parsed config and built system; median
  of 5 child interpreters.
* ``step_ms_p50``: median latency of the controller-step call inside
  ``run_episode``, over every attempted step of the workload's algorithm
  (the SOPPI steps on ``battery-pendulum``; the count is in the detail
  line).  The control period is 20 ms.  The p90 is in the detail line and,
  from the untraced batteries of a traced run, in the per-layer metrics: on
  a shared 2-vCPU machine it moves with the neighbours' load (IQR over median
  0.15-0.45 across ten runs), too far for a bound of at most 0.25.
* ``steps_per_s``: environment steps per second of episode wall time.
* ``battery_s``: wall time of the run's fastest ``run_experiment`` call,
  including CSV, summary and manifest writing.  Interference from other
  tenants only adds time, so the minimum is the steadiest estimate of the
  work (Chen and Revels, "Robust benchmarking in noisy environments",
  2016); every battery's time is in the detail line.
* ``mse_angle``: angle-wrapped MSE of the pole or pendulum angle to its
  target over the episodes of the first ``min_batteries``; an episode that
  did not finish counts as pi^2, the largest wrapped error.
* ``step_ok_frac``: share of attempted steps that neither raised nor returned
  a non-finite control (1 - failed_frac; a metric must never be 0).
* ``peak_rss_mb``: peak resident memory of the process, read before the
  output check runs.

``--trace 1`` alternates untraced and traced batteries and prints the
per-layer metrics.  Times and counts are per controller step of the traced
batteries; every ``.ms`` is self time, children excluded.

Every run checks the program's output: the first step (``u_star`` and the
weights) of the first battery against ``reference.py`` within
``REF_RTOL``, that episode's first applied control against that step
bitwise, and every trajectory CSV against its in-memory record.  The line
before the result holds the fingerprint, sample counts, check details and
whether the first battery's trajectories are bitwise equal to the stored
reference in ``baseline.json`` (null when no reference is stored for the
seed).
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

REF_RTOL = 1e-9
SETUP_REPEATS = 5

_CARTPOLE = {
    "system": {"id": "cartpole", "params": {}},
    "cost": {"Q": [1.25, 1.0, 12.0, 0.25], "R": [1e-3],
             "Q_T": [12.5, 10.0, 120.0, 2.5],
             "x_target": [0.0, 0.0, 0.0, 0.0], "angle_dims": [2]},
    "controller": {"K": 500, "horizon": 80, "lambda": 1.0, "sigma": 5.0},
    "svgd": {"step_size": 0.2, "iterations": 5, "bandwidth": 5.0,
             "alpha": 10.0},
    "experiment": {"algos": ["mppi"], "n_trials": 1, "base_seed": 0,
                   "t_total": 2.0, "x0": [0.0, 0.0, math.pi, 0.0]},
}
_PENDULUM = {
    "system": {"id": "pendulum", "params": {}},
    "cost": {"Q": [10.0, 0.1], "R": [1e-3], "Q_T": [100.0, 1.0],
             "x_target": [math.pi, 0.0], "angle_dims": [0]},
    "controller": {"K": 128, "horizon": 40, "lambda": 1.0, "sigma": 5.0},
    "svgd": {"step_size": 0.2, "iterations": 5, "bandwidth": "median",
             "alpha": 10.0},
    "experiment": {"algos": ["mppi", "soppi"], "n_trials": 2,
                   "base_seed": 0, "t_total": 0.5, "x0": [0.0, 0.0]},
}


def _variant(base, algos, t_total):
    raw = copy.deepcopy(base)
    raw["experiment"].update(algos=algos, t_total=t_total)
    return raw


@dataclass(frozen=True)
class Workload:
    raw: dict
    workers: int
    min_batteries: int
    latency_algo: str   # whose steps step_ms_p50/p90 describe


WORKLOADS = {
    "mppi-cartpole": Workload(_variant(_CARTPOLE, ["mppi"], 2.0), 1, 4,
                              "mppi"),
    "soppi-cartpole": Workload(_variant(_CARTPOLE, ["soppi"], 0.2), 1, 3,
                               "soppi"),
    # MPPI and SOPPI steps are 50/50 here, so a median over both would sit
    # in the gap between two modes; latency is that of the SOPPI steps.
    "battery-pendulum": Workload(_PENDULUM, 2, 2, "soppi"),
}

_SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from soppi import harness
config = harness.parse_config(json.loads(sys.argv[2]))
assert config.system.state_dim > 0
"""


def _battery_raw(wl: Workload, seed: int, b: int) -> dict:
    raw = copy.deepcopy(wl.raw)
    n = raw["experiment"]["n_trials"]
    raw["experiment"]["base_seed"] = seed * 1000003 + b * n
    return raw


def measure_setup(wl: Workload) -> list[float]:
    """Wall seconds of fresh interpreters that parse the config."""
    out = []
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC),
           json.dumps(_battery_raw(wl, 0, 0))]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: Popen.wait(timeout) polls every 50 ms, which would
        # quantise the measurement.
        subprocess.run(cmd, check=True, cwd=ROOT)
        out.append(time.perf_counter() - t0)
    return out


def fingerprint() -> dict:
    src = sorted((SRC / "soppi").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or not np.all(np.isfinite(a)):
        return math.inf
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


def _wrapped_mse(states, idx, target):
    e = states[:, idx] - target
    e = math.pi - np.mod(math.pi - e, 2.0 * math.pi)
    return float(np.mean(e * e))


def _trajectory_digest(episodes):
    h = hashlib.sha256()
    for algo, seed, rec in sorted(episodes, key=lambda e: (e[0], e[1])):
        h.update(f"{algo}:{seed}:".encode())
        h.update(np.ascontiguousarray(rec.states).tobytes())
        h.update(np.ascontiguousarray(rec.controls).tobytes())
    return h.hexdigest()


def _stored_digest(workload, seed):
    try:
        stored = json.loads((HERE / "baseline.json").read_text())
        return stored["trajectory_sha256"][workload].get(str(seed))
    except (OSError, KeyError, ValueError):
        return None


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Bench:
    """One run of one workload: batteries, probes and the output check."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        from soppi import controller, harness
        import spans
        self.name, self.wl = name, WORKLOADS[name]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.controller, self.harness, self.spans = controller, harness, spans
        self.log = spans.StepLog()
        self.tracer = spans.Tracer() if trace else None
        self.batteries = []   # (index, traced, seconds, cpu_s, ok, bytes)
        self.problems = []   # failed output checks: the run is not correct
        self.failures = []   # batteries that raised: counted in "failed"
        self.check = {}

    # -- measurement -------------------------------------------------------

    def first_step(self):
        """Program's first step of battery 0, trial 0, for each algorithm."""
        raw = _battery_raw(self.wl, self.seed, 0)
        config = self.harness.parse_config(raw)
        seed = config.base_seed
        cfg = replace(config.controller, seed=seed)
        U = np.zeros((cfg.horizon, config.system.control_dim))
        steppers = {"mppi": self.controller.mppi_step,
                    "soppi": self.controller.soppi_step}
        out = {}
        for algo in config.algos:
            try:
                out[algo] = steppers[algo](
                    config.system, config.cost_spec, cfg, config.x0, U,
                    step_seed=self.controller.sampling.derive_step_seed(
                        seed, 0))
            except Exception as exc:   # counted as a failed check
                self.problems.append(f"first {algo} step raised {exc!r}")
        return out

    def run_battery(self, b, out_root, traced):
        config = self.harness.parse_config(_battery_raw(self.wl, self.seed, b))
        out = out_root / f"battery_{b}"
        self.log.tag = b
        ok = True
        tracing = self.tracer.installed() if traced else nullcontext()
        span = self.tracer.span("harness.run_experiment") if traced \
            else nullcontext()
        with tracing:
            cpu0, t0 = _cpu_seconds(), time.perf_counter()
            with span as root:
                if traced:
                    self.tracer.root = root
                try:
                    self.harness.run_experiment(config, out,
                                                workers=self.wl.workers)
                except Exception as exc:   # failures are counted, not fatal
                    ok = False
                    self.failures.append(f"battery {b} raised {exc!r}")
            seconds = time.perf_counter() - t0
            cpu = _cpu_seconds() - cpu0
        if traced:
            self.tracer.root = None
        written = sum(p.stat().st_size for p in out.iterdir()) \
            if out.is_dir() else 0
        if ok:
            self._check_files(b, out)
        shutil.rmtree(out, ignore_errors=True)
        self.batteries.append((b, traced, seconds, cpu, ok, written))

    def _check_files(self, b, out):
        for tag, algo, seed, rec, _ in self.log.episodes:
            if tag != b:
                continue
            trial = seed - _battery_raw(self.wl, self.seed, b)[
                "experiment"]["base_seed"]
            back = self.harness.read_record_csv(
                out / f"{algo}_trial_{trial}.csv")
            if not (np.array_equal(back.states, rec.states)
                    and np.array_equal(back.controls, rec.controls)
                    and np.array_equal(back.times, rec.times)):
                self.problems.append(
                    f"battery {b}: {algo} trial {trial} CSV differs from "
                    "its record")
            if not np.all(np.isfinite(rec.states)):
                self.problems.append(f"battery {b}: non-finite states")
        manifest = json.loads((out / "manifest.json").read_text())
        if not manifest.get("complete") or not (out / "summary.csv").is_file():
            self.problems.append(f"battery {b}: incomplete outputs")

    def run(self):
        with self.log.installed():
            first = self.first_step()        # also warms caches
            out_root = ROOT / ".bench_out"
            out_root.mkdir(exist_ok=True)
            out_root = Path(tempfile.mkdtemp(dir=out_root))
            try:
                start = time.perf_counter()
                b = 0
                minimum = max(self.wl.min_batteries, 2 if self.trace else 1)
                while True:
                    self.run_battery(b, out_root, self.trace and b % 2 == 1)
                    b += 1
                    elapsed = time.perf_counter() - start
                    if b >= minimum and elapsed + self.batteries[-1][2] \
                            > self.seconds:
                        break
                self.inflation_steps = self._serial_soppi() if self.trace \
                    else None
            finally:
                shutil.rmtree(out_root, ignore_errors=True)
        self.peak_rss_mb = _peak_rss_mb()
        self._check_first(first)

    def _serial_soppi(self):
        """Step latencies of battery 0's SOPPI trial 0, run on its own."""
        if self.wl.workers == 1 or "soppi" not in self.wl.raw[
                "experiment"]["algos"]:
            return None
        config = self.harness.parse_config(_battery_raw(self.wl, self.seed, 0))
        cfg = replace(config.controller, seed=config.base_seed)
        self.log.tag = "serial"
        self.controller.run_episode(config.system, config.cost_spec, cfg,
                                    config.x0, "soppi", config.n_steps)
        return [s for tag, algo, s, *_ in self.log.steps if tag == "serial"]

    # -- output check ------------------------------------------------------

    def _check_first(self, first):
        import reference
        raw = _battery_raw(self.wl, self.seed, 0)
        seed = raw["experiment"]["base_seed"]
        x0 = raw["experiment"]["x0"]
        for algo in raw["experiment"]["algos"]:
            if algo not in first:
                continue
            res = first[algo]
            u_ref, w_ref = reference.first_step(raw, algo, seed, x0)
            err_u, err_w = _rel_err(res.u_star, u_ref), _rel_err(
                res.weights, w_ref)
            self.check[f"{algo}_u_star_rel_err"] = err_u
            self.check[f"{algo}_weights_rel_err"] = err_w
            if not (err_u <= REF_RTOL and err_w <= REF_RTOL):
                self.problems.append(
                    f"first {algo} step differs from the reference "
                    f"(u_star {err_u:.3g}, weights {err_w:.3g})")
            episode = [rec for tag, a, s, rec, _ in self.log.episodes
                       if tag == 0 and a == algo and s == seed]
            if episode and not np.array_equal(episode[0].controls[0],
                                              res.applied):
                self.problems.append(
                    f"{algo} episode's first control differs from its step")
        ep0 = [(a, s, rec) for tag, a, s, rec, _ in self.log.episodes
               if tag == 0]
        digest = _trajectory_digest(ep0)
        stored = _stored_digest(self.name, self.seed)
        self.check["trajectory_sha256"] = digest
        self.check["trajectory_bitwise"] = (None if stored is None
                                            else stored == digest)

    # -- metrics -----------------------------------------------------------

    def _steps(self, traced=None):
        batt = {b: t for b, t, *_ in self.batteries}
        return [s for s in self.log.steps
                if s[0] in batt and (traced is None or batt[s[0]] == traced)]

    def latency_ms(self, traced=None):
        """Step latencies of the workload's algorithm (all if it has none)."""
        steps = self._steps(traced)
        return 1e3 * np.array([s[2] for s in steps
                               if s[1] == self.wl.latency_algo]
                              or [s[2] for s in steps])

    def end_to_end(self, setup):
        steps = self._steps()
        ms = self.latency_ms()
        n_ok = sum(1 for s in steps if s[3])
        episodes = [e for e in self.log.episodes if e[0] in
                    {b for b, *_ in self.batteries}]
        angle = self.wl.raw["cost"]["angle_dims"][0]
        target = self.wl.raw["cost"]["x_target"][angle]
        exp = self.wl.raw["experiment"]
        mses = []
        for b in range(self.wl.min_batteries):
            done = {(e[1], e[2]): e[3] for e in episodes if e[0] == b}
            base = _battery_raw(self.wl, self.seed, b)["experiment"][
                "base_seed"]
            for algo in exp["algos"]:
                for i in range(exp["n_trials"]):
                    rec = done.get((algo, base + i))
                    mses.append(math.pi ** 2 if rec is None else
                                _wrapped_mse(rec.states, angle, target))
        env_steps = sum(len(e[3].controls) for e in episodes)
        return {
            "setup_s": (statistics.median(setup), "s"),
            "step_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "steps_per_s": (env_steps / sum(e[4] for e in episodes)
                            if episodes else 0.0, "1/s"),
            "battery_s": (min(s for _, _, s, *_ in self.batteries), "s"),
            "mse_angle": (float(np.mean(mses)), "rad2"),
            "step_ok_frac": (n_ok / len(steps), "frac"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def per_layer(self):
        self_s, calls, step_spans = self.spans.summarize(self.tracer.spans)
        traced = self._steps(traced=True)
        n = max(len(traced), 1)

        def ms(name):
            return 1e3 * self_s.get(name, 0.0) / n

        def per_step(name):
            return calls.get(name, 0) / n

        K = self.wl.raw["controller"]["K"]
        N = self.wl.raw["controller"]["horizon"]
        sweeps = self.wl.raw["svgd"]["iterations"]
        m = len(self.wl.raw["cost"]["R"])
        expected = [(N * sweeps, N * sweeps * K * K) if algo == "soppi"
                    else (0, 0) for algo, *_ in step_spans]
        got = [(c, p) for _, _, _, c, p in step_spans]
        self.check["svgd_counts_match"] = expected == got
        if expected != got:
            print("warning: traced Stein calls differ from the count "
                  "implied by K, sweeps and horizon", file=sys.stderr)
        pairs = sum(p for _, _, _, _, p in step_spans) / n
        stein_s = self_s.get("svgd.stein_direction", 0.0)
        untraced_b = [b for b in self.batteries if not b[1]]
        untraced = self._steps(traced=False)
        p50_u = np.median([s[2] for s in untraced])
        p50_t = np.median([s[2] for s in traced])
        if self.inflation_steps:
            battery_soppi = [s[2] for s in untraced if s[1] == "soppi"]
            inflation = float(np.median(battery_soppi)
                              / np.median(self.inflation_steps))
        else:
            inflation = 1.0   # one worker: the battery step is serial
        all_traced_b = [b for b in self.batteries if b[1]]
        step_time = sum(d for _, d, _, _, _ in step_spans)
        metrics = {
            "svgd.stein_direction.ms": ms("svgd.stein_direction"),
            "svgd.stein_direction.calls": per_step("svgd.stein_direction"),
            "svgd.pairs": pairs,
            "svgd.ns_per_pair": (1e9 * stein_s / (pairs * n)
                                 if pairs else 0.0),
            # one float64 kernel matrix and one difference tensor per call
            "svgd.bytes_computed": 8.0 * pairs * (1 + m),
            "svgd.median_bandwidth.ms": ms("svgd.median_bandwidth"),
            "svgd.median_bandwidth.calls": per_step("svgd.median_bandwidth"),
            "dynamics.step_unchecked.ms": ms("dynamics.step_unchecked"),
            "dynamics.step_unchecked.calls": per_step(
                "dynamics.step_unchecked"),
            "dynamics.control_jacobian.ms": ms("dynamics.control_jacobian"),
            "dynamics.step.ms": ms("dynamics.step"),
            "cost.running_cost.ms": ms("cost.running_cost"),
            "cost.terminal_cost.ms": ms("cost.terminal_cost"),
            "cost.running_cost_gradients.ms": ms(
                "cost.running_cost_gradients"),
            "sampling.draw_noise.ms": ms("sampling.draw_noise"),
            "sampling.perturb.ms": ms("sampling.perturb"),
            "controller.refine.self_ms": ms("controller.refine"),
            "controller.evaluate_batch.self_ms": ms(
                "controller.evaluate_batch"),
            "controller.compute_weights.ms": ms("controller.compute_weights"),
            "controller.update_nominal.ms": ms("controller.update_nominal"),
            "controller.step.self_ms": ms("controller.step"),
            "controller.step.p90_ms": float(np.percentile(
                self.latency_ms(traced=False), 90)),
            "controller.episode.self_ms": ms("controller.episode"),
            "controller.ess_frac": float(np.mean(
                [s[4] for s in self._steps() if s[3]] or [0.0])),
            "controller.diverged_frac": float(np.mean(
                [s[5] for s in self._steps() if s[3]] or [0.0])),
            "harness.cpu_util": (sum(b[3] for b in untraced_b)
                                 / sum(b[2] for b in untraced_b)),
            "harness.step_inflation": inflation,
            "harness.write_record_csv.ms": ms("harness.write_record_csv"),
            "harness.write_summary.ms": ms("harness.write_summary"),
            "harness.bytes_written": (sum(b[5] for b in all_traced_b) / n),
            "trace.overhead_frac": float(p50_t / p50_u - 1.0),
            "trace.coverage": (sum(c for _, _, c, _, _ in step_spans)
                               / step_time if step_time else 0.0),
        }
        return {k: (v, _unit(k)) for k, v in metrics.items()}


def _unit(name):
    last = name.rsplit(".", 1)[1]
    if last == "ms" or last.endswith("_ms"):
        return "ms"
    if last in ("calls", "pairs"):
        return "count"
    if last.startswith("bytes"):
        return "B"
    return "ns" if last == "ns_per_pair" else "ratio"


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "soppi" / "__init__.py").is_file():
        print(f"error: no soppi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import soppi
    if Path(soppi.__file__).resolve().parent != SRC / "soppi":
        print(f"error: imported soppi from {soppi.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(wl)
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    bench.run()
    metrics = bench.per_layer() if args.trace else bench.end_to_end(setup)
    steps = bench._steps()
    failed = sum(1 for s in steps if not s[3])
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fingerprint(),
        "samples": {"steps": len(steps), "batteries": len(bench.batteries),
                    "battery_s": [b[2] for b in bench.batteries],
                    "latency_steps": len(bench.latency_ms()),
                    "step_ms_p90": float(np.percentile(bench.latency_ms(),
                                                       90)),
                    "setup": setup},
        "check": bench.check, "problems": bench.problems,
        "failures": bench.failures,
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": len(steps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
