"""RBF kernel and the Stein update direction for one timestep's particles.

The particles are the K sampled controls of a single horizon step, shape
``(K, m)``.  Each particle's direction combines a kernel-weighted pull along
the negative scaled cost gradients (attraction) with the kernel gradient
(repulsion):

    phi(v_i) = (1/K) sum_j [ k(v_j, v_i) * (-alpha * grad_j)
                             + grad_{v_j} k(v_j, v_i) ]

By default the kernel is the true RBF ``exp(-||d||^2 / (2 sigma^2))``; the
``use_squared_norm=False`` variant ``exp(-||d|| / (2 sigma^2))`` is offered
for completeness but is not differentiable at coincident particles.

The summation over j is always performed in sample-index order so results are
bit-stable regardless of chunking or thread count.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

_BLOCK = 64  # rows per cache block in the 1-D fast path


@dataclass
class SvgdConfig:
    """Stein refinement settings.

    bandwidth is either a positive float or the string "median" for the
    median-pairwise-distance heuristic.  alpha is the temperature of the
    cost-likelihood exp(-alpha * L); iterations is the number of update
    sweeps per horizon step (0 disables refinement entirely).
    """

    step_size: float = 0.05
    iterations: int = 0
    bandwidth: float | str = "median"
    alpha: float = 1.0
    use_squared_norm: bool = True
    grad_clip: float | None = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.iterations > 0 and self.step_size <= 0:
            raise ValueError("step_size must be positive when iterations > 0")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise ValueError("bandwidth must be a number or 'median'")
        elif self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


@dataclass(frozen=True)
class ParticleSet:
    """Particle positions and the cost gradients evaluated at them."""

    particles: np.ndarray           # (K, m)
    grads: np.ndarray | None = None  # (K, m)

    def __post_init__(self):
        if self.particles.ndim != 2:
            raise ValueError("particles must be (K, m)")
        if self.grads is not None and self.grads.shape != self.particles.shape:
            raise ValueError("grads shape must match particles")


def kernel(v_a, v_b, sigma_k: float, use_squared_norm: bool = True):
    """Kernel value in (0, 1]; symmetric in its arguments."""
    v_a = np.asarray(v_a, dtype=float)
    v_b = np.asarray(v_b, dtype=float)
    if v_a.shape != v_b.shape:
        raise ValueError("kernel arguments must have equal dimension")
    if sigma_k <= 0:
        raise ValueError("sigma_k must be positive")
    d2 = np.dot(v_a - v_b, v_a - v_b)
    d = d2 if use_squared_norm else math.sqrt(d2)
    return math.exp(-d / (2.0 * sigma_k ** 2))


def kernel_grad_wrt_first(v_a, v_b, sigma_k: float,
                          use_squared_norm: bool = True):
    """Exact gradient of the kernel with respect to its first argument."""
    v_a = np.asarray(v_a, dtype=float)
    v_b = np.asarray(v_b, dtype=float)
    if v_a.shape != v_b.shape:
        raise ValueError("kernel arguments must have equal dimension")
    if sigma_k <= 0:
        raise ValueError("sigma_k must be positive")
    diff = v_a - v_b
    d2 = np.dot(diff, diff)
    s2 = sigma_k ** 2
    if use_squared_norm:
        return -diff / s2 * math.exp(-d2 / (2.0 * s2))
    if d2 == 0.0:
        # Unsquared kernel has a cusp at zero distance; treat as flat.
        log.warning("kernel gradient requested at coincident particles in "
                    "unsquared mode; returning zero")
        return np.zeros_like(diff)
    d = math.sqrt(d2)
    return -diff / (2.0 * s2 * d) * math.exp(-d / (2.0 * s2))


def median_bandwidth(particles: np.ndarray) -> float:
    """Median-pairwise heuristic: 2 sigma_k^2 = median(d^2) / log K.

    The median runs over the n = K(K-1)/2 distinct pairs, but is read off
    the full K x K squared-distance matrix with one partition.  Its diagonal
    is exactly 0 and it is bitwise symmetric ((a-b)^2 == (b-a)^2, summed in
    the same order), so sorted it holds K zeros and then every pair value
    twice: pair order statistic r sits at index K + 2r.  The result is
    bitwise equal to ``np.median`` over the upper triangle.  Any non-finite
    particle gives NaN.
    """
    particles = np.ascontiguousarray(particles, dtype=float)
    K = particles.shape[0]
    if K < 2:
        return 1.0
    if not np.isfinite(particles).all():
        return math.nan
    d2 = np.sum((particles[:, None, :] - particles[None, :, :]) ** 2,
                axis=-1).ravel()
    n = K * (K - 1) // 2
    kth = K + 2 * (n // 2)
    d2.partition(kth)
    med = float(d2[kth])
    if n % 2 == 0:
        # Lower middle pair value is the largest entry left of kth.
        med = (float(d2[:kth].max()) + med) / 2.0
    if med <= 0.0:
        return 1.0
    return math.sqrt(med / (2.0 * math.log(K)))


def _resolve_bandwidth(cfg: SvgdConfig, particles) -> float:
    if isinstance(cfg.bandwidth, str):
        return median_bandwidth(particles)
    return float(cfg.bandwidth)


def _direction_1d(p, g, sigma_k, alpha):
    """Cache-blocked fast path for scalar controls (m == 1)."""
    K = p.shape[0]
    inv2s2 = 1.0 / (2.0 * sigma_k ** 2)
    invs2 = 1.0 / sigma_k ** 2
    neg_ag = -alpha * g
    out = np.empty(K)
    for start in range(0, K, _BLOCK):
        stop = min(start + _BLOCK, K)
        diff = np.subtract(p[None, :], p[start:stop, None])  # [i, j] = p_j - p_i
        kmat = diff * diff
        kmat *= -inv2s2
        np.exp(kmat, out=kmat)
        attract = kmat @ neg_ag
        np.multiply(kmat, diff, out=diff)
        out[start:stop] = attract - invs2 * diff.sum(axis=1)
    return (out / K)[:, None]


def _direction_general(p, g, sigma_k, alpha, use_squared_norm):
    K = p.shape[0]
    diff = p[None, :, :] - p[:, None, :]          # [i, j] = p_j - p_i
    d2 = np.einsum("ijm,ijm->ij", diff, diff)
    s2 = sigma_k ** 2
    if use_squared_norm:
        kmat = np.exp(-d2 / (2.0 * s2))
        kgrad = -diff / s2 * kmat[:, :, None]     # grad_{v_j} k(v_j, v_i)
    else:
        d = np.sqrt(d2)
        kmat = np.exp(-d / (2.0 * s2))
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(d > 0.0, kmat / (2.0 * s2 * d), 0.0)
        kgrad = -diff * scale[:, :, None]
    attract = np.einsum("ij,jm->im", kmat, -alpha * g)
    return (attract + kgrad.sum(axis=1)) / K


def stein_direction(pset: ParticleSet, cfg: SvgdConfig) -> np.ndarray:
    """Update direction for every particle, shape (K, m)."""
    p = np.ascontiguousarray(pset.particles, dtype=float)
    if pset.grads is None:
        raise ValueError("particle set has no gradients")
    g = np.ascontiguousarray(pset.grads, dtype=float)
    bad = ~np.isfinite(g).all(axis=1)
    if bad.any():
        raise ValueError(
            f"non-finite gradient for sample index {int(np.nonzero(bad)[0][0])}")
    sigma_k = _resolve_bandwidth(cfg, p)
    if cfg.use_squared_norm and p.shape[1] == 1:
        out = _direction_1d(p[:, 0], g[:, 0], sigma_k, cfg.alpha)
    else:
        out = _direction_general(p, g, sigma_k, cfg.alpha,
                                 cfg.use_squared_norm)
    if cfg.grad_clip is not None:
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):
            out = np.where(norms > cfg.grad_clip,
                           out * (cfg.grad_clip / norms), out)
    return out


def apply_update(pset: ParticleSet, direction: np.ndarray,
                 step_size: float) -> ParticleSet:
    """Move the particles; gradients are stale afterwards and dropped."""
    direction = np.asarray(direction, dtype=float)
    if direction.shape != pset.particles.shape:
        raise ValueError("direction shape must match particles")
    return ParticleSet(particles=pset.particles + step_size * direction)
