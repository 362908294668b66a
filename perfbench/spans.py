"""Probes the benchmark installs into the soppi package from outside.

Every probe replaces a function at the name its caller looks it up by
(``controller.stein_direction``, ``dynamics.System.step_unchecked``, the
entries of ``controller._STEPPERS``, ...) and restores the original when the
probe is removed.  Two kinds exist:

* ``StepLog`` is always installed.  It times each controller step, counts the
  steps that raised or returned a non-finite control, and keeps every
  completed episode's ``TrialRecord``.  It adds one clock pair and one list
  append per step and per episode.
* ``Tracer`` is installed only around traced batteries.  It records one span
  ``(id, parent, name, start, end, info)`` per call of every layer function
  and computes self times and call counts when the run ends.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from soppi import controller, cost, dynamics, harness, sampling, svgd


def _lookup(owner, key):
    """owner[key] for a dict, else the attribute as stored on owner."""
    return owner[key] if isinstance(owner, dict) else owner.__dict__[key]


def _swap(owner, key, value):
    """Replace _lookup(owner, key) with value; return the old one."""
    old = _lookup(owner, key)
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)
    return old


@contextmanager
def _patched(replacements):
    """Install (owner, key, wrapper) replacements; undo them on exit."""
    saved = []
    try:
        for owner, key, wrapper in replacements:
            saved.append((owner, key, _swap(owner, key, wrapper)))
        yield
    finally:
        for owner, key, old in reversed(saved):
            _swap(owner, key, old)


class StepLog:
    """Per-step latency and outcome, plus the records of finished episodes.

    ``steps`` holds ``(tag, algo, seconds, ok, ess, diverged)`` per
    controller step attempted; ``episodes`` holds ``(tag, algo, seed,
    record, seconds)`` per episode that returned.  ``tag`` is whatever the
    caller set last, so a step can be attributed to its battery.
    """

    def __init__(self):
        self.steps = []
        self.episodes = []
        self.tag = None

    def _stepper(self, algo, fn):
        def step(*args, **kwargs):
            tag = self.tag
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except Exception:
                self.steps.append((tag, algo, perf_counter() - t0, False,
                                   np.nan, np.nan))
                raise
            seconds = perf_counter() - t0
            w = res.weights
            self.steps.append((
                tag, algo, seconds, bool(np.all(np.isfinite(res.applied))),
                1.0 / float(np.dot(w, w)) / w.size,
                float(np.mean(np.isinf(res.costs)))))
            return res
        return step

    def _episode(self, fn):
        def run_episode(system, spec, cfg, x0, algo, n_steps):
            tag = self.tag
            t0 = perf_counter()
            record = fn(system, spec, cfg, x0, algo, n_steps)
            self.episodes.append((tag, algo, cfg.seed, record,
                                  perf_counter() - t0))
            return record
        return run_episode

    def installed(self):
        steppers = controller._STEPPERS
        return _patched(
            [(steppers, algo, self._stepper(algo, fn))
             for algo, fn in list(steppers.items())]
            + [(harness, "run_episode", self._episode(harness.run_episode))])


def _stein_pairs(args, kwargs, result):
    k = args[0].particles.shape[0]
    return k * k


def _step_algo(algo):
    return lambda args, kwargs, result: algo


def _layer_targets():
    """(owner, key, span name, info function) for every traced layer."""
    targets = [
        (harness, "run_episode", "controller.episode", None),
        (harness, "write_record_csv", "harness.write_record_csv", None),
        (harness, "write_summary", "harness.write_summary", None),
        (controller, "evaluate_batch", "controller.evaluate_batch", None),
        (controller, "_refine_controls", "controller.refine", None),
        (controller, "compute_weights", "controller.compute_weights", None),
        (controller, "update_nominal", "controller.update_nominal", None),
        (controller, "stein_direction", "svgd.stein_direction",
         _stein_pairs),
        (svgd, "median_bandwidth", "svgd.median_bandwidth", None),
        (sampling, "draw_noise", "sampling.draw_noise", None),
        (sampling, "perturb", "sampling.perturb", None),
        (cost, "running_cost", "cost.running_cost", None),
        (cost, "terminal_cost", "cost.terminal_cost", None),
        (cost, "running_cost_gradients", "cost.running_cost_gradients",
         None),
        (dynamics.System, "step", "dynamics.step", None),
        (dynamics.System, "step_unchecked", "dynamics.step_unchecked", None),
    ]
    # control_jacobian is overridden per system, so wrap every definition.
    for cls in [dynamics.System, *dynamics.System.__subclasses__()]:
        if "control_jacobian" in cls.__dict__:
            targets.append((cls, "control_jacobian",
                            "dynamics.control_jacobian", None))
    for algo in controller._STEPPERS:
        targets.append((controller._STEPPERS, algo, "controller.step",
                        _step_algo(algo)))
    return targets


class Tracer:
    """In-memory span recorder with per-thread parent tracking.

    Spans opened on a thread with no open span (the battery's worker
    threads) take ``root`` as their parent.
    """

    def __init__(self):
        self.spans = []
        self.root = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield sid
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, None))

    def _wrap(self, name, fn, info_fn):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else self.root
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                info = (info_fn(args, kwargs, result)
                        if info_fn is not None else None)
                spans.append((sid, parent, name, t0, t1, info))
        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer (after any StepLog probe, so outside it)."""
        with _patched([(owner, key, self._wrap(name, _lookup(owner, key),
                                                info_fn))
                       for owner, key, name, info_fn in _layer_targets()]):
            yield


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def summarize(spans):
    """Self time and call count per span name, plus per-step breakdown.

    Returns ``(self_s, calls, steps)`` where ``self_s`` and ``calls`` are
    totals by name and ``steps`` lists, per ``controller.step`` span,
    ``(algo, duration_s, covered_s, stein_calls, stein_pairs)``:
    ``covered_s`` is the part of the step its child spans account for.
    """
    children = defaultdict(list)
    for sid, parent, name, t0, t1, info in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    by_id = {}
    for sid, parent, name, t0, t1, info in spans:
        covered = _covered(children.get(sid, ()))
        self_s[name] += (t1 - t0) - covered
        calls[name] += 1
        by_id[sid] = (parent, name, t1 - t0, covered, info)

    stein = defaultdict(lambda: [0, 0])   # step span id -> [calls, pairs]
    for sid, parent, name, t0, t1, info in spans:
        if name != "svgd.stein_direction":
            continue
        up = parent
        while up is not None and by_id[up][1] != "controller.step":
            up = by_id[up][0]
        if up is not None:
            stein[up][0] += 1
            stein[up][1] += info
    steps = [(info, dur, covered, *stein.get(sid, (0, 0)))
             for sid, (parent, name, dur, covered, info) in by_id.items()
             if name == "controller.step"]
    return dict(self_s), dict(calls), steps
