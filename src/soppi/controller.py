"""MPPI and Stein-refined MPPI (SOPPI) stepping, plus episode execution.

One controller step: draw the Gaussian perturbations, optionally refine each
horizon step's K control particles with SVGD sweeps, roll out every sample,
softmax-weight the costs, and update the nominal sequence with the weighted
(refined) perturbations.  ``soppi_step`` with zero SVGD iterations is
bit-identical to ``mppi_step`` by construction: the refinement phase is the
only difference and it degenerates to a no-op.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import cost as cost_mod
from . import sampling
from .cost import CostSpec
from .dynamics import System
from .metrics import TrialRecord
from .svgd import ParticleSet, SvgdConfig, stein_direction

log = logging.getLogger(__name__)


@dataclass
class ControllerConfig:
    """Sampling controller settings shared by MPPI and SOPPI."""

    K: int = 500
    horizon: int = 80
    lambda_: float = 10.0
    sigma: float | np.ndarray = 10.0
    seed: int = 0
    svgd: SvgdConfig = field(default_factory=SvgdConfig)
    terminal_init_fn: Callable | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.lambda_ <= 0:
            raise ValueError("lambda must be positive")


@dataclass(frozen=True)
class StepResult:
    """Outcome of one controller step."""

    u_star: np.ndarray        # (N, m) updated nominal sequence
    applied: np.ndarray       # (m,) first nominal control
    weights: np.ndarray       # (K,)
    costs: np.ndarray         # (K,)
    min_cost: float
    refined_batch: sampling.SampleBatch


def evaluate_batch(system: System, spec: CostSpec, x0,
                   batch: sampling.SampleBatch) -> np.ndarray:
    """Cost-to-go of every sample's rollout from x0, shape (K,).

    Samples whose rollout leaves the finite range get +inf cost (they are
    then ignored by the softmax weighting).
    """
    controls = batch.controls
    K, N, _ = controls.shape
    x = np.broadcast_to(np.asarray(x0, dtype=float),
                        (K, system.state_dim)).copy()
    costs = np.zeros(K)
    with np.errstate(all="ignore"):
        for t in range(N):
            costs += cost_mod.running_cost(spec, x, controls[:, t, :], t)
            x = system.step_unchecked(x, controls[:, t, :])
        costs += cost_mod.terminal_cost(spec, x)
    bad = ~np.isfinite(costs)
    if bad.any():
        log.warning("%d of %d samples diverged; assigning infinite cost",
                    int(bad.sum()), K)
        costs[bad] = np.inf
    return costs


def compute_weights(costs: np.ndarray, lambda_: float) -> np.ndarray:
    """Softmax weights over negative baselined costs; sums to one."""
    costs = np.asarray(costs, dtype=float)
    finite = np.isfinite(costs)
    if not finite.any():
        raise ValueError("no viable samples: all costs are infinite")
    beta = costs[finite].min()
    with np.errstate(all="ignore"):
        w = np.exp(-(costs - beta) / lambda_)
    w[~finite] = 0.0
    return w / w.sum()


def update_nominal(base: np.ndarray, noises: np.ndarray,
                   weights: np.ndarray) -> np.ndarray:
    """Nominal update: base plus the weight-averaged perturbations."""
    base = np.asarray(base, dtype=float)
    noises = np.asarray(noises, dtype=float)
    if noises.shape[1:] != base.shape or noises.shape[0] != weights.shape[0]:
        raise ValueError("shape mismatch between base, noises, and weights")
    return base + np.einsum("k,ktm->tm", weights, noises)


def _refine_controls(system: System, spec: CostSpec, cfg: ControllerConfig,
                     x0, controls: np.ndarray) -> np.ndarray:
    """SVGD sweeps over each horizon step's particle set, in horizon order.

    Every sweep recomputes the one-step lookahead and pushes each particle
    along the Stein direction of the single-step running cost; after the
    sweeps the sample states advance one step with the refined controls.
    A sample whose gradient is non-finite (a diverged rollout) is left out
    of that sweep's Stein set and is not moved by it.
    """
    svgd_cfg = cfg.svgd
    K, N, m = controls.shape
    refined = controls.copy()
    x = np.broadcast_to(np.asarray(x0, dtype=float),
                        (K, system.state_dim)).copy()
    with np.errstate(all="ignore"):
        for t in range(N):
            v = refined[:, t, :].copy()        # contiguous for the sweeps
            for _ in range(svgd_cfg.iterations):
                x_next = system.step_unchecked(x, v)
                d_state, d_control = cost_mod.running_cost_gradients(
                    spec, x_next, v, t)
                b = system.control_jacobian(x, v)          # (K, n, m)
                grads = np.einsum("knm,kn->km", b, d_state) + d_control
                ok = np.isfinite(grads).all(axis=1)
                phi = stein_direction(ParticleSet(v[ok], grads[ok]), svgd_cfg)
                v[ok] += svgd_cfg.step_size * phi
            refined[:, t, :] = v
            x = system.step_unchecked(x, v)
    return refined


def _weight_and_update(system, spec, cfg, x0,
                       batch: sampling.SampleBatch) -> StepResult:
    costs = evaluate_batch(system, spec, x0, batch)
    weights = compute_weights(costs, cfg.lambda_)
    u_star = update_nominal(batch.base, batch.noises.values, weights)
    return StepResult(u_star=u_star, applied=u_star[0].copy(),
                      weights=weights, costs=costs,
                      min_cost=float(costs.min()), refined_batch=batch)


def _draw_batch(cfg: ControllerConfig, m: int, U_init,
                step_seed: int | None) -> sampling.SampleBatch:
    seed = cfg.seed if step_seed is None else step_seed
    noise = sampling.draw_noise(seed, cfg.K, cfg.horizon, m, cfg.sigma)
    return sampling.perturb(U_init, noise)


def mppi_step(system: System, spec: CostSpec, cfg: ControllerConfig,
              x0, U_init, step_seed: int | None = None) -> StepResult:
    """One plain MPPI step from state x0 around the nominal U_init."""
    batch = _draw_batch(cfg, system.control_dim, U_init, step_seed)
    return _weight_and_update(system, spec, cfg, x0, batch)


def soppi_step(system: System, spec: CostSpec, cfg: ControllerConfig,
               x0, U_init, step_seed: int | None = None) -> StepResult:
    """One Stein-refined step; identical to mppi_step when iterations == 0."""
    batch = _draw_batch(cfg, system.control_dim, U_init, step_seed)
    if cfg.svgd.iterations > 0:
        refined = _refine_controls(system, spec, cfg, x0, batch.controls)
        values = refined - batch.base
        # A non-finite refined control has a non-finite control cost, so
        # evaluate_batch gives it zero weight; zero its noise as well, or
        # 0 * inf makes u_star NaN.
        values[~np.isfinite(values)] = 0.0
        noise = sampling.NoiseTensor(values=values,
                                     seed=batch.noises.seed,
                                     sigma=batch.noises.sigma)
        batch = sampling.SampleBatch(controls=refined, noises=noise,
                                     base=batch.base)
    return _weight_and_update(system, spec, cfg, x0, batch)


_STEPPERS = {"mppi": mppi_step, "soppi": soppi_step}


def run_episode(system: System, spec: CostSpec, cfg: ControllerConfig,
                x0, algo: str, n_steps: int) -> TrialRecord:
    """Receding-horizon episode of n_steps environment steps.

    Applies the first nominal control to the true dynamics each step, then
    shifts the nominal left, appending zero, or the output of
    cfg.terminal_init_fn when it is set.  Wall time per controller step is
    recorded.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if algo not in _STEPPERS:
        raise ValueError(f"unknown algorithm {algo!r}; known: {sorted(_STEPPERS)}")
    stepper = _STEPPERS[algo]
    x = np.asarray(x0, dtype=float).copy()
    U = np.zeros((cfg.horizon, system.control_dim))
    states = [x.copy()]
    controls, wall, times = [], [], [0.0]
    for i in range(n_steps):
        t0 = time.perf_counter()
        res = stepper(system, spec, cfg, x, U,
                      step_seed=sampling.derive_step_seed(cfg.seed, i))
        if cfg.terminal_init_fn is not None:
            tail_state = _nominal_tail_state(system, x, res.u_star)
            tail = np.asarray(cfg.terminal_init_fn(tail_state), dtype=float)
            tail = tail.reshape(system.control_dim)
        else:
            tail = np.zeros(system.control_dim)
        wall.append(time.perf_counter() - t0)
        x = system.step(x, res.applied)
        U = np.vstack([res.u_star[1:], tail[None, :]])
        states.append(x.copy())
        controls.append(res.applied.copy())
        times.append((i + 1) * system.dt)
    return TrialRecord(times=np.asarray(times),
                       states=np.asarray(states),
                       controls=np.asarray(controls),
                       step_wall_times=np.asarray(wall))


def _nominal_tail_state(system, x0, u_star):
    """State reached by rolling the nominal to its next-to-last step."""
    x = np.asarray(x0, dtype=float)
    for t in range(u_star.shape[0] - 1):
        x = system.step(x, u_star[t])
    return x
