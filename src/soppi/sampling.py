"""Deterministic, counter-based Gaussian perturbation sampling.

Each noise entry is a pure function of ``(seed, k, t, j)``: the indices are
fed through a chain of splitmix64 finalizers to produce a uniform, which is
mapped to a standard normal with the inverse CDF (scipy ``ndtri``) and scaled
by the per-dimension standard deviation.  There is no sequential RNG state,
so generation is bit-identical regardless of evaluation order, chunking, or
thread count.

``scipy.special`` is imported inside ``draw_noise``, not at module level:
its import costs about as much as numpy's, and config parsing, system
construction and the post-hoc tools never draw noise.  ``run_episode``
loads it before its first timed step.
"""

from __future__ import annotations

import numpy as np

# Seeds are hashed as int64; a seed outside this range cannot be drawn.
SEED_RANGE = (-2**63, 2**63 - 1)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix(z):
    """splitmix64 finalizer, vectorized over uint64 arrays."""
    with np.errstate(over="ignore"):   # wrap-around is the point
        z = (z + _GOLDEN) & _MASK
        z ^= z >> np.uint64(30)
        z = (z * _MIX1) & _MASK
        z ^= z >> np.uint64(27)
        z = (z * _MIX2) & _MASK
        z ^= z >> np.uint64(31)
    return z


def draw_noise(seed: int, K: int, N: int, m: int, sigma) -> np.ndarray:
    """Zero-mean i.i.d. Gaussian float64 array of shape (K, N, m).

    sigma may be a scalar or a length-m vector of per-dimension standard
    deviations; it must be strictly positive.
    """
    from scipy.special import ndtri

    if K < 1 or N < 1 or m < 1:
        raise ValueError("K, N, m must all be >= 1")
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), (m,))
    if np.any(sigma <= 0) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be strictly positive and finite")
    seed_u = np.uint64(np.int64(seed).astype(np.uint64))
    ks = np.arange(K, dtype=np.uint64)[:, None, None]
    ts = np.arange(N, dtype=np.uint64)[None, :, None]
    js = np.arange(m, dtype=np.uint64)[None, None, :]
    h = _splitmix(seed_u)
    h = _splitmix(h ^ ks)
    h = _splitmix(h ^ ts)
    h = _splitmix(h ^ js)
    # 53-bit mantissa, offset by half an ulp so u is never exactly 0 or 1
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    return ndtri(u) * sigma


def perturb(base, noise: np.ndarray) -> np.ndarray:
    """The (K, N, m) samples base + noise; base is not modified."""
    base = np.asarray(base, dtype=float)
    if base.shape != noise.shape[1:]:
        raise ValueError(
            f"base shape {base.shape} does not match noise {noise.shape[1:]}")
    return base + noise


def derive_step_seed(seed: int, step_index: int) -> int:
    """Per-environment-step seed, decorrelated from neighbouring steps."""
    h = _splitmix(np.uint64(np.int64(seed).astype(np.uint64)))
    h = _splitmix(h ^ np.uint64(step_index))
    return int(h & np.uint64(0x7FFFFFFFFFFFFFFF))
