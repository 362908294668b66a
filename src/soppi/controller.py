"""MPPI and Stein-refined MPPI (SOPPI) stepping, plus episode execution.

Both algorithms take one controller step, ``_step``, on plain ``(K, N, m)``
arrays: draw the Gaussian perturbations, add them to the nominal, roll out
every sample, softmax-weight the costs, and move the nominal by the weighted
offsets of the samples from it.  One loop, ``_rollout``, rolls the samples
out; for SOPPI it first moves each horizon step's K control particles by
SVGD sweeps.  MPPI's rollout is that loop with zero sweeps, so ``soppi_step``
with zero SVGD iterations is ``mppi_step`` by construction.  If every sample
diverged, the step keeps the nominal it was given, with all-zero weights.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import cost as cost_mod
from . import sampling
from .cost import CostSpec
from .dynamics import System
from .metrics import TrialRecord
from .svgd import (ParticleSet, SvgdConfig, _require_int, _require_positive,
                   stein_direction)

log = logging.getLogger(__name__)

_TWO_PI = 2.0 * np.pi


@dataclass
class ControllerConfig:
    """Sampling controller settings shared by MPPI and SOPPI."""

    K: int = 500
    horizon: int = 80
    lambda_: float = 10.0
    sigma: float | np.ndarray = 10.0
    seed: int = 0
    svgd: SvgdConfig = field(default_factory=SvgdConfig)

    def __post_init__(self):
        _require_int(self.K, "K", 1)
        _require_int(self.horizon, "horizon", 1)
        _require_int(self.seed, "seed", *sampling.SEED_RANGE)
        _require_positive(self.lambda_, "lambda")
        _require_positive(self.sigma, "sigma", scalar=False)


@dataclass(frozen=True)
class StepResult:
    """Outcome of one controller step."""

    u_star: np.ndarray        # (N, m) updated nominal sequence
    applied: np.ndarray       # (m,) first nominal control
    weights: np.ndarray       # (K,)
    costs: np.ndarray         # (K,)
    controls: np.ndarray      # (K, N, m) weighted samples, refined for SOPPI


def _mark_diverged(costs: np.ndarray) -> np.ndarray:
    """Set non-finite costs to +inf (zero weight), with a warning."""
    bad = ~np.isfinite(costs)
    if bad.any():
        log.warning("%d of %d samples diverged; assigning infinite cost",
                    int(bad.sum()), costs.size)
        costs[bad] = np.inf
    return costs


def evaluate_batch(system: System, spec: CostSpec, x0,
                   controls: np.ndarray) -> np.ndarray:
    """Cost-to-go of the rollout of each (K, N, m) sample from x0, shape
    (K,); +inf (zero weight) where the rollout leaves the finite range."""
    return _rollout(system, spec, None, x0, controls, 0)[1]


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


def _lookahead_gradient(system: System, spec: CostSpec, z, t: int):
    """The gradient in the controls of the running cost one step ahead, as a
    function of the (K, m) controls, from the prepared terms ``z`` of the
    K sample states.

    Over one Euler step every system is control-affine: the next state is
    ``a + B u``, where ``a, B = System._linearize(z)`` are the step at u = 0
    and its control Jacobian, from one complex-step call.  The quadratic
    cost's gradient is therefore ``g0 + h u`` with
    ``g0 = B' 2Q (a - x_target) - 2R u_ref[t]`` and ``h = B' 2Q B + 2R``,
    fixed for the horizon step.  The angle wrap stays per call: on each
    angle dimension i the wrapped error differs from
    ``y_i = (a - x_target)_i + B_i u`` by a multiple of 2 pi, which adds
    ``(2QB)_i (wrap(y_i) - y_i)``.  The swing-up starts on the wrap at
    theta = pi, so it cannot be fixed per horizon step.  A control clamp
    (``System._clamp``) clips u inside ``B u`` and, where it binds, leaves
    only the control term ``2R (u - u_ref[t])``.

    Equal to ``running_cost_gradients`` at the stepped state, chained through
    the control Jacobian of ``tests/oracles.py``, to rounding
    (``TestLookaheadGradient``).
    """
    m = system.control_dim
    a, b = system._linearize(z)                            # (K, n), (K, n, m)
    e0 = a - spec.x_target
    # (2QB)' per sample, (K, m, n); tensordot makes it one matrix product.
    qb = np.tensordot(b, 2.0 * spec.Q, axes=(1, 1))
    r2 = 2.0 * spec.R
    r0 = spec.control_error(np.zeros(m), t) @ r2       # -2R u_ref[t], or 0
    g0 = np.einsum("kn,kmn->km", e0, qb) + r0
    h = np.einsum("kmn,knj->kmj", qb, b) + r2                      # (K, m, m)
    # wrap(y) - y = 2 pi floor((pi - y) / 2 pi); floor is cheaper than mod.
    wraps = [((np.pi - e0[:, i]) / _TWO_PI, b[:, i] / -_TWO_PI,
              qb[:, :, i] * _TWO_PI) for i in spec._angle_idx]

    def gradient(v):
        c, passes = system._clamp([v[:, j] for j in range(m)])
        g = sum((h[:, :, j] * c[j][:, None] for j in range(m)), g0)
        for turns, slope, scale in wraps:
            # floor((pi - y_i) / 2 pi): the whole turns the wrap adds to y_i
            n = np.floor(sum((slope[:, j] * c[j] for j in range(m)), turns))
            g += scale * n[:, None]
        if passes is not None:
            # 0 * inf stays NaN, so a diverged clamped row is still masked.
            g = g * passes + (v @ r2 + r0) * ~passes
        return g

    return gradient


def _rollout(system: System, spec: CostSpec, svgd_cfg: SvgdConfig | None,
             x0, controls: np.ndarray, sweeps: int):
    """Roll the (K, N, m) samples out from x0, each horizon step's K control
    particles first moved by ``sweeps`` SVGD sweeps.

    The sample states stay fixed during a horizon step's sweeps, so their
    state-only terms (``System._prepare``) and the affine lookahead
    (``_lookahead_gradient``) are built once per horizon step; this equals
    stepping the states afresh every sweep to rounding
    (``TestStagedRefinement``).  A sample with a non-finite gradient (a
    diverged rollout) is left out of that sweep's Stein set.  With zero
    sweeps nothing is copied or built.

    Returns ``(controls, costs)``: the refined controls (the given array
    with zero sweeps) and their cost-to-go, +inf where the rollout diverged.
    """
    K, N, m = controls.shape
    if sweeps:
        controls = controls.copy()
    x = np.broadcast_to(np.asarray(x0, dtype=float),
                        (K, system.state_dim)).copy()
    costs = np.zeros(K)
    with np.errstate(all="ignore"):
        for t in range(N):
            z = system._prepare([x[:, i] for i in range(system.state_dim)])
            v = controls[:, t, :]
            if sweeps:
                v = v.copy()                   # contiguous for the sweeps
                gradient = _lookahead_gradient(system, spec, z, t)
                for _ in range(sweeps):
                    grads = gradient(v)
                    # All finite: a full slice keeps the Stein set a view.
                    rows = (slice(None) if np.isfinite(grads).all()
                            else np.isfinite(grads).all(axis=1))
                    phi = stein_direction(ParticleSet(v[rows], grads[rows]),
                                          svgd_cfg)
                    v[rows] += svgd_cfg.step_size * phi
                controls[:, t, :] = v
            costs += cost_mod.running_cost(spec, x, v, t)
            x = np.stack(system._advance(z, [v[:, j] for j in range(m)]),
                         axis=-1)
        costs += cost_mod.terminal_cost(spec, x)
    return controls, _mark_diverged(costs)


def _refine_controls(system: System, spec: CostSpec, cfg: ControllerConfig,
                     x0, controls: np.ndarray, sweeps: int):
    """``(refined, costs)`` of SOPPI's ``sweeps``-sweep rollout."""
    return _rollout(system, spec, cfg.svgd, x0, controls, sweeps)


def _step(system: System, spec: CostSpec, cfg: ControllerConfig, x0,
          U_init, step_seed: int | None, sweeps: int) -> StepResult:
    """One controller step with ``sweeps`` SVGD sweeps per horizon step."""
    seed = cfg.seed if step_seed is None else step_seed
    noise = sampling.draw_noise(seed, cfg.K, cfg.horizon, system.control_dim,
                                cfg.sigma)
    controls = sampling.perturb(U_init, noise)
    if sweeps:
        controls, costs = _refine_controls(system, spec, cfg, x0, controls,
                                           sweeps)
        noise = controls - U_init
        # A non-finite refined control has infinite cost and zero weight;
        # zero its noise as well, or 0 * inf makes u_star NaN.
        noise[~np.isfinite(noise)] = 0.0
    else:
        costs = evaluate_batch(system, spec, x0, controls)
    if np.isinf(costs).all():
        # Nothing to weight: keep the nominal, which the episode has
        # already shifted, instead of ending the episode.
        log.warning("all %d samples diverged; keeping the nominal",
                    costs.size)
        weights = np.zeros_like(costs)
        u_star = np.array(U_init, dtype=float)
    else:
        weights = compute_weights(costs, cfg.lambda_)
        u_star = update_nominal(U_init, noise, weights)
    return StepResult(u_star=u_star, applied=u_star[0].copy(),
                      weights=weights, costs=costs, controls=controls)


def mppi_step(system: System, spec: CostSpec, cfg: ControllerConfig,
              x0, U_init, step_seed: int | None = None) -> StepResult:
    """One plain MPPI step from state x0 around the nominal U_init."""
    return _step(system, spec, cfg, x0, U_init, step_seed, 0)


def soppi_step(system: System, spec: CostSpec, cfg: ControllerConfig,
               x0, U_init, step_seed: int | None = None) -> StepResult:
    """One Stein-refined step with ``cfg.svgd.iterations`` sweeps."""
    return _step(system, spec, cfg, x0, U_init, step_seed,
                 cfg.svgd.iterations)


_STEPPERS = {"mppi": mppi_step, "soppi": soppi_step}


def run_episode(system: System, spec: CostSpec, cfg: ControllerConfig,
                x0, algo: str, n_steps: int) -> TrialRecord:
    """Receding-horizon episode of n_steps environment steps.

    Applies the first nominal control to the true dynamics each step, then
    shifts the nominal left, appending zero.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if algo not in _STEPPERS:
        raise ValueError(f"unknown algorithm {algo!r}; known: {sorted(_STEPPERS)}")
    stepper = _STEPPERS[algo]
    # draw_noise imports scipy.special on first use; load it here so that
    # the first step does not pay for the import.
    import scipy.special  # noqa: F401
    x = np.asarray(x0, dtype=float).copy()
    U = np.zeros((cfg.horizon, system.control_dim))
    states = [x.copy()]
    controls, times = [], [0.0]
    for i in range(n_steps):
        res = stepper(system, spec, cfg, x, U,
                      step_seed=sampling.derive_step_seed(cfg.seed, i))
        x = system.step(x, res.applied)
        U = np.vstack([res.u_star[1:], np.zeros((1, system.control_dim))])
        states.append(x.copy())
        controls.append(res.applied.copy())
        times.append((i + 1) * system.dt)
    return TrialRecord(times=np.asarray(times),
                       states=np.asarray(states),
                       controls=np.asarray(controls))

