"""RBF kernel and the Stein update direction for one timestep's particles.

The particles are the K sampled controls of a single horizon step, shape
``(K, m)``.  Each particle's direction combines a kernel-weighted pull along
the negative scaled cost gradients (attraction) with the kernel gradient
(repulsion):

    phi(v_i) = (1/K) sum_j [ k(v_j, v_i) * (-alpha * grad_j)
                             + grad_{v_j} k(v_j, v_i) ]

The kernel is the RBF ``exp(-||d||^2 / (2 sigma^2))`` of standard SVGD
(Liu & Wang, 2016).  ``kernel`` and ``kernel_grad_wrt_first`` are the scalar
pair definitions the two routines below are tested against.

``stein_direction`` is the one entry point: it resolves the bandwidth (the
fixed value, or ``median_bandwidth`` on the squared distances of one
``_pairwise`` pass) and picks the route from K, m and the span alone.
``_direction_blocked`` evaluates every pair, for any control dimension m, on
that pass's differences.  For scalar controls (m = 1) whose span is a few
bandwidths, ``_direction_low_rank`` interpolates the kernel in both
arguments on r Chebyshev nodes and needs r^2 exponentials instead of K^2
(the symmetric global form of the black-box fast multipole method, Fong &
Darve, 2009).  It agrees with the blocked routine to rounding (within
1e-12 norm-wise), not bitwise.  Both routes form their differences as rank-2
products, ``[x, -1] @ [1; s]``: each entry is ``x_a - s_i`` rounded once, as
both of its products are exact, so it is the subtraction's bits on finite
input, up to the sign of an exact zero.
Under numpy 2.4.6 and OpenBLAS 0.3.31 a broadcast subtraction took 3-4x as
long (32.7 against 9.2 us at (42, 500)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

_BLOCK = 64  # rows per kernel-gradient product in _direction_blocked
# The low-rank route is taken only where _node_count is validated, and only
# when K >= _MIN_SAVING * r.  That break-even was measured on the earlier
# one-sided route (K * r exponentials): on one thread it broke even at K / r
# of about 2-2.5 for K >= 128 and about 4 for K = 80-96, and at K = 64, where
# only a fully coincident set qualifies, its fixed per-call cost made it
# 0.74x as fast.  The two-sided route is cheaper, but the threshold is kept
# so that no call changes route.
_MAX_SPAN = 30.0
_MIN_SAVING = 4


def _require_int(value, name, minimum=None, maximum=None):
    """Raise ValueError unless value is an integer (a bool is not one) and,
    if minimum (maximum) is given, at least minimum (at most maximum)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (minimum is not None and value < minimum)
            or (maximum is not None and value > maximum)):
        bounds = (f" in [{minimum}, {maximum}]" if maximum is not None
                  else f" >= {minimum}" if minimum is not None else "")
        raise ValueError(f"{name} must be an integer{bounds}, got {value!r}")


def _require_finite(value, name):
    """Raise ValueError unless value is a finite real number; a bool is not
    one."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.ndim or not np.isfinite(arr):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(value, name, scalar=True):
    """Raise ValueError unless value is a finite number > 0 (every entry of
    it, if not scalar); a bool is not a number."""
    arr = np.asarray(value)
    if (arr.dtype.kind not in "iuf" or arr.size == 0 or (scalar and arr.ndim)
            or not (np.isfinite(arr) & (arr > 0)).all()):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


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
        _require_int(self.iterations, "iterations", 0)
        _require_positive(self.step_size, "step_size")
        _require_positive(self.alpha, "alpha")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != "median":
                raise ValueError("bandwidth must be a number or 'median'")
        else:
            _require_positive(self.bandwidth, "bandwidth")


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
    _require_positive(sigma_k, "sigma_k")
    d2 = np.dot(v_a - v_b, v_a - v_b)
    return math.exp(-d2 / (2.0 * sigma_k ** 2))


def kernel_grad_wrt_first(v_a, v_b, sigma_k: float):
    """Exact gradient of the kernel with respect to its first argument."""
    k = kernel(v_a, v_b, sigma_k)
    return -(np.asarray(v_a, dtype=float) - v_b) / sigma_k ** 2 * k


def _pairwise(p):
    """Pair differences of (K, m) particles p: the C-ordered
    ``diff[d, i, j] = p_jd - p_id`` and ``d2 = sum_d diff[d]**2``, summed in
    d order.  ``diff[d]`` is the rank-2 product ``[1, q] @ [q; -1]`` of
    q = p[:, d] (see above); it negates no input, so NaNs keep their sign."""
    K, m = p.shape
    diff = np.empty((m, K, K))
    ab = np.ones((3, K))                           # rows 1, q, -1
    ab[2] = -1.0
    for d in range(m):
        ab[1] = p[:, d]
        np.matmul(ab[:2].T, ab[1:], out=diff[d])   # [1, q] @ [q; -1]
    d2 = diff[0] * diff[0]
    for d in range(1, m):
        d2 += diff[d] * diff[d]
    return diff, d2


def median_bandwidth(particles: np.ndarray, d2=None) -> float:
    """Median-pairwise heuristic: 2 sigma_k^2 = median(d^2) / log K.

    The median runs over the n = K(K-1)/2 distinct pairs, but is read off
    the full K x K squared-distance matrix with one partition: d2, the
    particles' ``_pairwise`` squared distances, computed here when not
    given.  Its diagonal is exactly 0 and it is bitwise symmetric
    ((a-b)^2 == (b-a)^2, summed in the same order), so sorted it holds K
    zeros and then every pair value twice: pair order statistic r sits at
    index K + 2r.  The result is bitwise equal to ``np.median`` over the
    upper triangle.  Any non-finite particle gives NaN.
    """
    p = np.ascontiguousarray(particles, dtype=float)
    K = p.shape[0]
    if K < 2:
        return 1.0
    if not np.isfinite(p).all():
        return math.nan
    if d2 is None:
        d2 = _pairwise(p)[1]
    n = K * (K - 1) // 2
    kth = K + 2 * (n // 2)
    d2 = np.partition(d2, kth, axis=None)
    med = float(d2[kth])
    if n % 2 == 0:
        # Lower middle pair value is the largest entry left of kth.
        med = (float(d2[:kth].max()) + med) / 2.0
    if med <= 0.0:
        return 1.0
    return math.sqrt(med / (2.0 * math.log(K)))


def _node_count(span: float) -> int:
    """Chebyshev nodes that interpolate the kernel over ``span`` bandwidths.

    Measured to keep the absolute error of the kernel interpolated in both
    arguments (whose values lie in (0, 1]) at or below about 7e-15 for
    spans up to _MAX_SPAN (6.6e-15 at span 29.9, against 3.7e-15 when it
    was interpolated in one); past it the error grows, to about 1e-13 at
    span 100.
    """
    return math.ceil(16.0 + 3.6 * span)


@functools.lru_cache(maxsize=None)
def _chebyshev_nodes(r: int):
    """Chebyshev points of the first kind on [-1, 1] and their barycentric
    weights (Berrut & Trefethen, 2004); cached per r, read-only."""
    theta = (2 * np.arange(r) + 1) * (np.pi / (2 * r))
    w = np.sin(theta)
    w[1::2] *= -1.0
    x = np.cos(theta)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _node_products(r: int):
    """-(x_a - x_b)^2 / 2 and w_a w_b, each (r, r), and the (r, 2) [x, -1]
    over the r ``_chebyshev_nodes`` x, w; cached per r, read-only."""
    x, w = _chebyshev_nodes(r)
    diff = np.subtract.outer(x, x)
    gram = -0.5 * diff * diff
    weights = np.multiply.outer(w, w)
    lhs = np.stack([x, -np.ones(r)], axis=1)
    for a in (gram, weights, lhs):
        a.flags.writeable = False
    return gram, weights, lhs


def _direction_blocked(p, g, sigma_k, alpha, pairs=None):
    """Stein direction for (K, m) particles, evaluated on every pair.

    Elementwise work runs on the whole ``_pairwise`` output (``pairs`` if
    given, which it overwrites); the BLAS products run per 64-row block, as
    their results depend on the block's shape."""
    K, m = p.shape
    inv2s2 = 1.0 / (2.0 * sigma_k ** 2)
    invs2 = 1.0 / sigma_k ** 2
    diff, kmat = _pairwise(p) if pairs is None else pairs
    kmat *= -inv2s2
    np.exp(kmat, out=kmat)
    neg_ag = -alpha * g
    out = np.empty((K, m))
    for b in range(0, K, _BLOCK):
        np.matmul(kmat[b:b + _BLOCK], neg_ag, out=out[b:b + _BLOCK])
    for d in range(m):
        diff[d] *= kmat
    out -= invs2 * diff.sum(axis=2).T
    return out / K


def _direction_low_rank(u, g, sigma_k, alpha, r, lo, hi):
    """Scalar-control Stein direction through r Chebyshev nodes, (K, 1).

    u = p / sigma_k and g are (K,) vectors, lo and hi are u's extremes.  In
    the coordinate t = u - mid, centred on [mid - half, mid + half] (half
    widened to >= 0.5), the kernel is interpolated in both arguments on the
    same r Chebyshev points of the first kind c_a = half * x_a:

        k_ij = exp(-(t_i - t_j)^2 / 2) ~= sum_ab L_a(t_i) C_ab L_b(t_j),
        C_ab = exp(-(c_a - c_b)^2 / 2) = exp(half^2 * G_ab),

    with G from ``_node_products`` and L the barycentric Lagrange basis,
    L_a(t_i) = w_a R_ai / n_i with R_ai = 1 / (x_a - t_i / half), whose
    differences are the rank-2 product [x, -1] @ [1; t / half], and
    n_i = sum_a w_a R_ai.  Every sum over j, L^T (C (L f)), is then
    R^T (W C W) R (f / n) / n with W = diag(w): r^2 exponentials and
    K * r divisions, where interpolating one argument took K * r
    exponentials.  The repulsion comes from
    sum_j k_ij (p_j - p_i) = sigma_k * ((K t)_i - t_i (K 1)_i); centring
    keeps |t| <= half, which bounds the cancellation in that difference.
    """
    K = u.shape[0]
    mid = 0.5 * (lo + hi)
    half = max(0.5 * (hi - lo), 0.5)
    t = u - mid
    w = _chebyshev_nodes(r)[1]
    gram, weights, lhs = _node_products(r)
    rhs = np.ones((2, K))
    np.divide(t, half, out=rhs[1])
    inv = lhs @ rhs                                 # (r, K)
    with np.errstate(divide="ignore"):
        np.reciprocal(inv, out=inv)
    norm = w @ inv
    # A particle exactly on a node gives an infinite column: it is that
    # node's value, so its basis column is one-hot.
    on_node = ~np.isfinite(norm)
    if on_node.any():
        inv[:, on_node] = np.isinf(inv[:, on_node])
        norm[on_node] = w @ inv[:, on_node]
    f = np.empty((3, K))
    np.multiply(g, -alpha, out=f[0])
    f[1] = t
    f[2] = 1.0
    f /= norm
    node_k = np.multiply(gram, half * half)
    np.exp(node_k, out=node_k)
    node_k *= weights                               # W C W, symmetric
    # Kernel sums of -alpha g, t and 1 times norm, (3, K).
    acc = (f @ inv.T) @ node_k @ inv
    out = acc[0] - (acc[1] - t * acc[2]) / sigma_k
    out /= norm * K
    return out[:, None]


def stein_direction(pset: ParticleSet, cfg: SvgdConfig) -> np.ndarray:
    """Update direction for every particle, shape (K, m).

    With the median bandwidth one ``_pairwise`` pass serves the median and
    the blocked loop.  Scalar controls take the low-rank route when their
    span is at most _MAX_SPAN bandwidths and its r nodes satisfy
    _MIN_SAVING * r <= K (r^2 exponentials and K * r basis terms against
    the blocked loop's K^2); every other set takes the blocked loop.
    """
    p = np.ascontiguousarray(pset.particles, dtype=float)
    g = np.ascontiguousarray(pset.grads, dtype=float)
    if not np.isfinite(g).all():
        i = int(np.argmin(np.isfinite(g).all(axis=1)))   # first False
        raise ValueError(f"non-finite gradient for sample index {i}")
    median = isinstance(cfg.bandwidth, str)   # "median"
    pairs = _pairwise(p) if median else None
    sigma_k = median_bandwidth(p, pairs[1]) if median else float(cfg.bandwidth)
    K, m = p.shape
    if m == 1 and K >= 2:
        u = p[:, 0] / sigma_k
        lo, hi = u.min(), u.max()
        span = float(hi - lo)
        if span <= _MAX_SPAN:          # False for a NaN or infinite span
            r = _node_count(span)
            if _MIN_SAVING * r <= K:
                return _direction_low_rank(u, g[:, 0], sigma_k, cfg.alpha, r,
                                           lo, hi)
    return _direction_blocked(p, g, sigma_k, cfg.alpha, pairs)
