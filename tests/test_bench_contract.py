"""The names the benchmark's probes in ``perfbench/spans.py`` rely on.

The probes replace package functions at the names their callers look them
up by.  A rename that drops one of those names would break the benchmark
silently, so these tests load ``spans.py`` as it is (read-only, no bytecode
written next to it) and check that every name it patches or calls resolves,
that its probes put the originals back, and that a traced threaded battery
records the Stein calls with their pair counts, one median-bandwidth call
inside each, and every Euler step of the rollouts.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from soppi import controller, harness

_SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _current(spans, targets):
    return [spans._lookup(owner, key) for owner, key in targets]


def test_every_layer_target_is_callable(spans):
    targets = spans._layer_targets()
    assert targets
    for owner, key, name, _ in targets:
        assert callable(spans._lookup(owner, key)), name


def test_stepper_names_exist():
    assert controller._STEPPERS == {"mppi": controller.mppi_step,
                                    "soppi": controller.soppi_step}
    assert callable(controller.sampling.derive_step_seed)


@pytest.mark.parametrize("probe", ["StepLog", "Tracer"])
def test_probes_restore_the_originals(spans, probe):
    targets = [(owner, key) for owner, key, _, _ in spans._layer_targets()]
    targets += [(controller._STEPPERS, algo) for algo in controller._STEPPERS]
    targets.append((harness, "run_episode"))
    before = _current(spans, targets)
    with getattr(spans, probe)().installed():
        during = _current(spans, targets)
    after = _current(spans, targets)
    assert any(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))


def _pendulum_config(K, horizon, iterations):
    return harness.parse_config({
        "system": {"id": "pendulum", "params": {}},
        "cost": {"Q": [1.0, 0.1], "R": [0.01], "Q_T": [10.0, 1.0],
                 "x_target": [math.pi, 0.0], "angle_dims": [0]},
        "controller": {"K": K, "horizon": horizon, "lambda": 1.0,
                       "sigma": 1.0},
        "svgd": {"step_size": 0.1, "iterations": iterations,
                 "bandwidth": "median"},
        "experiment": {"algos": ["mppi", "soppi"], "n_trials": 2,
                       "base_seed": 0, "t_total": 0.06, "x0": [0.0, 0.0]},
    })


def test_traced_threaded_battery_counts_stein_pairs(spans, tmp_path):
    K, horizon, iterations = 6, 4, 2
    config = _pendulum_config(K, horizon, iterations)
    log, tracer = spans.StepLog(), spans.Tracer()
    with log.installed(), tracer.installed():
        harness.run_experiment(config, tmp_path, workers=2)

    stein = [info for _, _, name, _, _, info in tracer.spans
             if name == "svgd.stein_direction"]
    soppi_steps = config.n_trials * config.n_steps
    assert stein == [K * K] * (soppi_steps * horizon * iterations)

    # The median-bandwidth probe records each Stein call's median, inside it.
    names = {sid: name for sid, _, name, _, _, _ in tracer.spans}
    median_parents = [names[parent] for _, parent, name, _, _, _
                      in tracer.spans if name == "svgd.median_bandwidth"]
    assert median_parents == ["svgd.stein_direction"] * len(stein)

    _, calls, steps = spans.summarize(tracer.spans)
    assert calls["controller.step"] == 2 * soppi_steps
    for algo, _, _, stein_calls, pairs in steps:
        expected = horizon * iterations if algo == "soppi" else 0
        assert stein_calls == expected
        assert pairs == expected * K * K
    assert len(log.steps) == 2 * soppi_steps
    assert all(ok for _, _, _, ok, _, _ in log.steps)
    assert np.isfinite([ess for *_, ess, _ in log.steps]).all()


def test_traced_battery_records_every_rollout_step(spans, tmp_path):
    # Per controller step: one step_unchecked per horizon step of the
    # rollout, one more per horizon step for SOPPI's lookahead, and outside
    # the controller step the true-dynamics step of the episode.
    K, horizon, iterations = 6, 4, 2
    config = _pendulum_config(K, horizon, iterations)
    tracer = spans.Tracer()
    with tracer.installed():
        harness.run_experiment(config, tmp_path, workers=2)

    by_id = {sid: (parent, name, info)
             for sid, parent, name, _, _, info in tracer.spans}
    per_step = {sid: 0 for sid, (_, name, _) in by_id.items()
                if name == "controller.step"}
    outside = 0
    for parent, name, _ in by_id.values():
        if name != "dynamics.step_unchecked":
            continue
        while parent is not None and by_id[parent][1] != "controller.step":
            parent = by_id[parent][0]
        if parent is None:
            outside += 1
        else:
            per_step[parent] += 1
    steps = config.n_trials * config.n_steps
    assert len(per_step) == 2 * steps
    assert outside == 2 * steps
    assert sorted((by_id[sid][2], n) for sid, n in per_step.items()) == \
        [("mppi", horizon)] * steps + [("soppi", 2 * horizon)] * steps
