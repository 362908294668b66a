"""Experiment harness: config loading, paired-seed trial batteries, CSV I/O.

Trial i of every algorithm uses seed ``base_seed + i``, so the Gaussian
perturbations are identical across algorithms before any refinement and
differences are attributable to the algorithm alone.  Per-trial records are
written as CSV with 17 significant digits; a run manifest captures
everything needed to reproduce the records bit for bit, and the wall time
of each trial.  The records and summary tables hold no timing, so a run
that moves no number rewrites them byte for byte.

Importing this module and parsing a config load numpy but not scipy:
``code_fingerprint`` imports scipy for its version, and ``scipy.special``
loads when a battery or an episode starts (see ``sampling``).  Commands that
never step, such as ``soppi plotdata`` or a run that fails config checks, skip
that import, which costs about as much as numpy's.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .controller import _STEPPERS, ControllerConfig, run_episode
from .cost import CostSpec
from .dynamics import System, make_system
from .metrics import (SettlingCriterion, SummaryRow, TrialRecord, mse,
                      settling_time, summarize, welch_t_test_one_tailed)
from .sampling import SEED_RANGE
from .svgd import SvgdConfig, _require_int, _require_positive

log = logging.getLogger(__name__)

_FMT = "%.17g"

DEFAULT_CARTPOLE_CONFIG = {
    "system": {"id": "cartpole", "params": {}},
    "cost": {
        "Q": [1.25, 1.0, 12.0, 0.25],
        "R": [1e-3],
        "Q_T": [12.5, 10.0, 120.0, 2.5],
        "x_target": [0.0, 0.0, 0.0, 0.0],
        "angle_dims": [2],
    },
    "controller": {"K": 500, "horizon": 80, "lambda": 1.0, "sigma": 5.0},
    "svgd": {"step_size": 0.2, "iterations": 5, "bandwidth": 5.0,
             "alpha": 10.0},
    "experiment": {"algos": ["mppi", "soppi"], "n_trials": 5, "base_seed": 0,
                   "t_total": 20.0, "x0": [0.0, 0.0, math.pi, 0.0]},
}


def _reject_unknown(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")


def _as_array(value, name):
    """value as a float array, or a ValueError naming the config key."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numbers, got {value!r}") from None


def _as_matrix(spec, name):
    arr = _as_array(spec, f"cost.{name}")
    if arr.ndim == 1:
        return np.diag(arr)
    if arr.ndim == 2:
        return arr
    raise ValueError(f"cost.{name} must be a vector (diagonal) or a matrix")


@dataclass
class ExperimentConfig:
    """Validated experiment description built from the JSON config."""

    raw: dict
    system: System
    cost_spec: CostSpec
    controller: ControllerConfig
    algos: list[str]
    n_trials: int
    base_seed: int
    t_total: float
    x0: np.ndarray
    out_dir: str

    @property
    def n_steps(self) -> int:
        return round(self.t_total / self.system.dt)


def parse_config(raw: dict) -> ExperimentConfig:
    """Build all experiment objects from a config dict; strict about keys."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    _reject_unknown(raw, {"system", "cost", "controller", "svgd",
                          "experiment"}, "config")
    for section in ("system", "cost", "controller", "experiment"):
        if section not in raw:
            raise ValueError(f"config is missing the {section!r} section")
    for name, section in raw.items():
        if not isinstance(section, dict):
            raise ValueError(f"config section {name!r} is not a JSON object")

    sys_sec = raw["system"]
    _reject_unknown(sys_sec, {"id", "params"}, "system")
    system = make_system(sys_sec["id"], sys_sec.get("params"))

    cost_sec = raw["cost"]
    _reject_unknown(cost_sec, {"Q", "R", "Q_T", "x_target", "u_ref",
                               "angle_dims"}, "cost")
    u_ref = cost_sec.get("u_ref")
    cost_spec = CostSpec(
        Q=_as_matrix(cost_sec["Q"], "Q"),
        R=_as_matrix(cost_sec["R"], "R"),
        Q_T=_as_matrix(cost_sec["Q_T"], "Q_T"),
        x_target=_as_array(cost_sec["x_target"], "cost.x_target"),
        u_ref=None if u_ref is None else _as_array(u_ref, "cost.u_ref"),
        angle_dims=cost_sec.get("angle_dims", frozenset()),
    )

    svgd_sec = dict(raw.get("svgd", {}))
    _reject_unknown(svgd_sec, {"step_size", "iterations", "bandwidth",
                               "alpha"}, "svgd")
    svgd_cfg = SvgdConfig(**svgd_sec)

    ctrl_sec = dict(raw["controller"])
    _reject_unknown(ctrl_sec, {"K", "horizon", "lambda", "sigma", "seed"},
                    "controller")
    if "lambda" in ctrl_sec:
        ctrl_sec["lambda_"] = ctrl_sec.pop("lambda")
    controller = ControllerConfig(svgd=svgd_cfg, **ctrl_sec)
    if u_ref is not None and len(cost_spec.u_ref) != controller.horizon:
        raise ValueError(f"cost.u_ref must have controller.horizon = "
                         f"{controller.horizon} rows, got "
                         f"{len(cost_spec.u_ref)}")
    if np.shape(controller.sigma) not in ((), (1,), (system.control_dim,)):
        raise ValueError(f"controller.sigma must broadcast to the "
                         f"{system.control_dim} controls")

    exp_sec = raw["experiment"]
    _reject_unknown(exp_sec, {"algos", "n_trials", "base_seed", "t_total",
                              "x0", "out_dir"}, "experiment")
    algos = exp_sec["algos"]
    known = sorted(_STEPPERS)
    if (not isinstance(algos, list) or not algos
            or any(a not in known or algos.count(a) > 1 for a in algos)):
        raise ValueError(f"experiment.algos must be distinct names from "
                         f"{known}, got {algos!r}")
    n_trials = exp_sec.get("n_trials", 5)
    base_seed = exp_sec.get("base_seed", 0)
    _require_int(n_trials, "experiment.n_trials", 1)
    _require_int(base_seed, "experiment.base_seed", *SEED_RANGE)
    # Trial i runs on base_seed + i, so the last trial's seed must fit too.
    _require_int(int(base_seed) + n_trials - 1,
                 "experiment.base_seed + n_trials - 1", *SEED_RANGE)
    t_total = exp_sec.get("t_total", 1.0)
    _require_positive(t_total, "experiment.t_total")
    steps = t_total / system.dt
    if round(steps) < 1 or not math.isclose(steps, round(steps),
                                             rel_tol=1e-9):
        raise ValueError(f"experiment.t_total must span a whole number "
                         f"(>= 1) of {system.dt} s steps, got {t_total!r}")
    out_dir = exp_sec.get("out_dir", "results")
    if not isinstance(out_dir, str) or not out_dir:
        raise ValueError(f"experiment.out_dir must be a non-empty string, "
                         f"got {out_dir!r}")
    x0 = _as_array(exp_sec["x0"], "experiment.x0")
    if x0.shape != (system.state_dim,) or not np.isfinite(x0).all():
        raise ValueError("experiment.x0 must be finite with one entry per "
                         "state")
    return ExperimentConfig(
        raw=raw, system=system, cost_spec=cost_spec, controller=controller,
        algos=algos, n_trials=n_trials, base_seed=base_seed,
        t_total=float(t_total), x0=x0, out_dir=out_dir)


def load_raw_config(path):
    """The unparsed config of a JSON config file or of a run manifest."""
    with open(path) as fh:
        raw = json.load(fh)
    if isinstance(raw, dict) and "config" in raw:   # a manifest's snapshot
        raw = raw["config"]
    return raw


def code_fingerprint() -> dict:
    """sha256 of the package sources plus the numpy and scipy versions.

    Recorded in the manifest so a run can be traced to the code that made
    it.  It is not compared on reuse: an edit that leaves the numbers alone
    changes the hash, so reuse is decided by replaying the run instead.
    """
    import scipy

    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"src_sha256": digest.hexdigest(), "numpy": np.__version__,
            "scipy": scipy.__version__}


@dataclass
class RunManifest:
    """Everything needed to reproduce the run bit for bit, and the wall
    time in seconds of each finished trial, keyed by its record file."""

    config: dict
    version: str
    trial_seeds: list[int]
    started: str
    finished: str | None = None
    complete: bool = False
    record_files: dict = field(default_factory=dict)
    trial_seconds: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=code_fingerprint)


def default_metrics(config: ExperimentConfig):
    """Metric set of the benchmark tables, keyed by metric name."""
    if config.raw["system"]["id"] == "cartpole":
        def ts(criterion):
            return lambda r: settling_time(r, criterion)

        return {
            "mse_x": lambda r: mse(r, 0, 0.0),
            "mse_theta": lambda r: mse(r, 2, 0.0, wrap=True),
            "ts_x_0.25m": ts(SettlingCriterion(0, 0.0, 0.25)),
            "ts_x_0.5m": ts(SettlingCriterion(0, 0.0, 0.5)),
            "ts_theta_2pct": ts(SettlingCriterion(
                2, 0.0, 0.02, mode="fraction_of_range", wrap_angle=True)),
            "ts_theta_5pct": ts(SettlingCriterion(
                2, 0.0, 0.05, mode="fraction_of_range", wrap_angle=True)),
            "ts_theta_10pct": ts(SettlingCriterion(
                2, 0.0, 0.10, mode="fraction_of_range", wrap_angle=True)),
        }
    n = config.system.state_dim
    tgt = config.cost_spec.x_target
    return {f"mse_state_{i}": (lambda r, i=i: mse(r, i, float(tgt[i])))
            for i in range(n)}


def write_record_csv(path, record: TrialRecord):
    """CSV with columns t, state_*, u_*; the last row has no control."""
    n = record.states.shape[1]
    m = record.controls.shape[1] if record.controls.size else 1
    header = (["t"] + [f"state_{i}" for i in range(n)]
              + [f"u_{j}" for j in range(m)])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        n_ctrl = len(record.controls)
        for i, t in enumerate(record.times):
            row = [_FMT % t] + [_FMT % v for v in record.states[i]]
            if i < n_ctrl:
                row += [_FMT % v for v in record.controls[i]]
            else:
                row += [""] * m
            w.writerow(row)


def read_record_csv(path) -> TrialRecord:
    """The record of a ``write_record_csv`` file.  Columns after the
    controls, such as the step times of older runs, are ignored."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty record file")
        n = sum(1 for h in header if h.startswith("state_"))
        m = sum(1 for h in header if h.startswith("u_"))
        times, states, controls = [], [], []
        blank = None   # line of the row without a control: the last one
        for row in reader:
            if blank is not None:
                raise ValueError(f"{path}:{blank}: no control on a row "
                                 "before the last")
            try:
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields, {len(header)} named")
                times.append(float(row[0]))
                states.append([float(v) for v in row[1:1 + n]])
                if row[1 + n] == "":
                    blank = reader.line_num
                else:
                    controls.append([float(v) for v in row[1 + n:1 + n + m]])
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    try:
        return TrialRecord(times=np.asarray(times), states=np.asarray(states),
                           controls=np.asarray(controls))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _run_one_trial(config: ExperimentConfig, algo: str, trial: int):
    seed = config.base_seed + trial
    cfg = dataclasses.replace(config.controller, seed=seed)
    return run_episode(config.system, config.cost_spec, cfg, config.x0,
                       algo, config.n_steps)


def run_experiment(config: ExperimentConfig, out_dir,
                   workers: int = 1) -> RunManifest:
    """Run the full trial battery and persist records, summary, manifest.

    Trials run one at a time in job order.  Each trial's CSV and a whole
    new manifest listing it, with its wall time, are written as soon as it
    returns, so a failed battery keeps finished trials.  ``workers`` (an
    integer >= 1) changes nothing; it is kept, and checked, only because the
    performance benchmark passes it, and goes when the benchmark stops doing
    so.
    """
    _require_int(workers, "workers", 1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        config=config.raw, version=__version__,
        trial_seeds=[config.base_seed + i for i in range(config.n_trials)],
        started=datetime.datetime.now(datetime.timezone.utc).isoformat())
    records: dict[str, list[TrialRecord]] = {a: [] for a in config.algos}
    # run_episode imports scipy.special on first use; load it here so that
    # the first trial's time does not include the import.
    import scipy.special  # noqa: F401

    def write_manifest():
        with open(out / "manifest.json.tmp", "w") as fh:
            json.dump(dataclasses.asdict(manifest), fh, indent=2)
        os.replace(out / "manifest.json.tmp", out / "manifest.json")

    try:
        for algo in config.algos:
            for i in range(config.n_trials):
                t0 = time.perf_counter()
                rec = _run_one_trial(config, algo, i)
                fname = f"{algo}_trial_{i}.csv"
                manifest.trial_seconds[fname] = time.perf_counter() - t0
                write_record_csv(out / fname, rec)
                records[algo].append(rec)
                manifest.record_files[fname] = algo
                write_manifest()
        write_summary(config, records, out)
        manifest.complete = True
    finally:
        manifest.finished = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
        write_manifest()
    return manifest


def write_summary(config: ExperimentConfig,
                  records: dict[str, list[TrialRecord]], out_dir):
    """summary.csv (per-algo statistics) and pvalues.csv (pairwise tests)
    from each algorithm's trial records in trial order."""
    out = Path(out_dir)
    metric_fns = default_metrics(config)
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algo", "metric", "mean", "std", "median", "n",
                    "n_nonconverged"])
        for algo in config.algos:
            for row in summarize(records[algo], metric_fns):
                w.writerow([algo, row.metric, _FMT % row.mean,
                            _FMT % row.std, _FMT % row.median, row.n,
                            row.n_nonconverged])
    with open(out / "pvalues.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["algo_a", "algo_b", "metric", "t", "dof", "p_value"])
        for algo_a in config.algos:
            for algo_b in config.algos:
                if algo_a == algo_b:
                    continue
                for name, fn in metric_fns.items():
                    va = [fn(r) for r in records[algo_a]]
                    vb = [fn(r) for r in records[algo_b]]
                    va = [v for v in va if v is not None]
                    vb = [v for v in vb if v is not None]
                    try:
                        t, dof, p = welch_t_test_one_tailed(va, vb)
                        w.writerow([algo_a, algo_b, name, _FMT % t,
                                    _FMT % dof, _FMT % p])
                    except ValueError:
                        w.writerow([algo_a, algo_b, name, "", "", ""])


def emit_plot_data(records: dict[str, list[TrialRecord]], out_dir):
    """Per-signal time series CSVs (one column per trial), for any plotter."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for algo, recs in records.items():
        if not recs:
            continue
        n = recs[0].states.shape[1]
        m = recs[0].controls.shape[1]
        signals = [("state", i) for i in range(n)] + [("u", j) for j in range(m)]
        for kind, idx in signals:
            path = out / f"plot_{algo}_{kind}_{idx}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t"] + [f"trial_{i}" for i in range(len(recs))])
                base = recs[0].times if kind == "state" else recs[0].times[:-1]
                for r_i, t in enumerate(base):
                    row = [_FMT % t]
                    for rec in recs:
                        series = (rec.states[:, idx] if kind == "state"
                                  else rec.controls[:, idx])
                        row.append(_FMT % series[r_i])
                    w.writerow(row)
            written.append(path)
    return written
