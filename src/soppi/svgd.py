"""RBF kernel and the Stein update direction for one timestep's particles.

The particles are the K sampled controls of a single horizon step, shape
``(K, m)``.  Each particle's direction combines a kernel-weighted pull along
the negative scaled cost gradients (attraction) with the kernel gradient
(repulsion):

    phi(v_i) = (1/K) sum_j [ k(v_j, v_i) * (-alpha * grad_j)
                             + grad_{v_j} k(v_j, v_i) ]

The kernel is the RBF ``exp(-||d||^2 / (2 sigma^2))`` of standard SVGD
(Liu & Wang, 2016).  One cache-blocked routine computes the direction for any
control dimension m; ``kernel`` and ``kernel_grad_wrt_first`` are the scalar
pair definitions it is tested against.

The summation over j is always performed in sample-index order so results are
bit-stable regardless of chunking or thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_BLOCK = 64  # rows per cache block in _direction


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

    particles: np.ndarray  # (K, m)
    grads: np.ndarray      # (K, m)

    def __post_init__(self):
        if self.particles.ndim != 2:
            raise ValueError("particles must be (K, m)")
        if self.grads.shape != self.particles.shape:
            raise ValueError("grads shape must match particles")


def kernel(v_a, v_b, sigma_k: float):
    """Kernel value in (0, 1]; symmetric in its arguments."""
    v_a = np.asarray(v_a, dtype=float)
    v_b = np.asarray(v_b, dtype=float)
    if v_a.shape != v_b.shape:
        raise ValueError("kernel arguments must have equal dimension")
    if sigma_k <= 0:
        raise ValueError("sigma_k must be positive")
    d2 = np.dot(v_a - v_b, v_a - v_b)
    return math.exp(-d2 / (2.0 * sigma_k ** 2))


def kernel_grad_wrt_first(v_a, v_b, sigma_k: float):
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
    return -diff / s2 * math.exp(-d2 / (2.0 * s2))


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


def _direction(p, g, sigma_k, alpha):
    """Stein direction for (K, m) particles, in cache blocks of 64 rows."""
    K, m = p.shape
    inv2s2 = 1.0 / (2.0 * sigma_k ** 2)
    invs2 = 1.0 / sigma_k ** 2
    pt = np.ascontiguousarray(p.T)                  # (m, K)
    neg_ag = -alpha * g
    out = np.empty((K, m))
    for start in range(0, K, _BLOCK):
        stop = min(start + _BLOCK, K)
        # [d, i, j] = p_jd - p_id
        diff = np.subtract(pt[:, None, :], pt[:, start:stop, None])
        kmat = diff[0] * diff[0]
        for d in range(1, m):
            kmat += diff[d] * diff[d]
        kmat *= -inv2s2
        np.exp(kmat, out=kmat)
        attract = kmat @ neg_ag
        for d in range(m):
            diff[d] *= kmat
        out[start:stop] = attract - invs2 * diff.sum(axis=2).T
    return out / K


def stein_direction(pset: ParticleSet, cfg: SvgdConfig) -> np.ndarray:
    """Update direction for every particle, shape (K, m)."""
    p = np.ascontiguousarray(pset.particles, dtype=float)
    g = np.ascontiguousarray(pset.grads, dtype=float)
    bad = ~np.isfinite(g).all(axis=1)
    if bad.any():
        raise ValueError(
            f"non-finite gradient for sample index {int(np.nonzero(bad)[0][0])}")
    return _direction(p, g, _resolve_bandwidth(cfg, p), cfg.alpha)
