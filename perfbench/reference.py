"""Independent reference for the first controller step of an episode.

It recomputes, from the raw workload config alone, what one MPPI or SOPPI
step from ``x0`` around a zero nominal must return: the updated nominal
``u_star`` and the sample weights.  Nothing here calls into soppi.  The
noise follows the documented counter-based recipe (splitmix64 chain over
``(seed, k, t, j)``, then the inverse normal CDF), the dynamics are written
out again, control Jacobians come from complex-step differentiation instead
of the closed forms, and the Stein direction uses full K x K matrices instead
of the blocked kernel.  The results therefore agree with the program only up
to rounding, which is what the relative tolerance in ``run.py`` allows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

_M64 = (1 << 64) - 1
_COMPLEX_H = 1e-30


def _splitmix(z):
    """splitmix64 finalizer over uint64 arrays (wrap-around intended)."""
    with np.errstate(over="ignore"):
        z = z + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def step_seed(seed, index):
    """Seed of environment step ``index`` of an episode seeded ``seed``."""
    h = _splitmix(np.uint64(seed & _M64))
    h = _splitmix(h ^ np.uint64(index))
    return int(h) & 0x7FFFFFFFFFFFFFFF


def noise(seed, K, N, m, sigma):
    """(K, N, m) standard normals scaled by sigma, entry by entry."""
    h = _splitmix(np.uint64(seed & _M64))
    h = _splitmix(h ^ np.arange(K, dtype=np.uint64).reshape(K, 1, 1))
    h = _splitmix(h ^ np.arange(N, dtype=np.uint64).reshape(1, N, 1))
    h = _splitmix(h ^ np.arange(m, dtype=np.uint64).reshape(1, 1, m))
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) / 2.0 ** 53
    return ndtri(u) * np.broadcast_to(np.asarray(sigma, dtype=float), (m,))


def _cartpole(x, u, dt=0.02, mc=1.0, mp=0.1, half=0.5, g=9.8):
    """Florian cart-pole, semi-implicit Euler; theta = 0 upright."""
    pos, vel, th, om = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    f = u[:, 0]
    mt = mc + mp
    s, c = np.sin(th), np.cos(th)
    temp = (f + mp * half * om * om * s) / mt
    th_acc = (g * s - c * temp) / (half * (4.0 / 3.0 - mp * c * c / mt))
    x_acc = temp - mp * half * th_acc * c / mt
    vel2 = vel + dt * x_acc
    om2 = om + dt * th_acc
    return np.stack([pos + dt * vel2, vel2, th + dt * om2, om2], axis=1)


def _pendulum(x, u, dt=0.02, mass=1.0, length=1.0, g=9.8):
    """Undamped pendulum, theta = 0 hanging down; control is a torque."""
    th, om = x[:, 0], x[:, 1]
    acc = -(g / length) * np.sin(th) + u[:, 0] / (mass * length ** 2)
    om2 = om + dt * acc
    return np.stack([th + dt * om2, om2], axis=1)


_SYSTEMS = {"cartpole": _cartpole, "pendulum": _pendulum}


class _Problem:
    def __init__(self, raw):
        if raw["system"].get("params"):
            raise ValueError("the reference models default parameters only")
        self.f = _SYSTEMS[raw["system"]["id"]]
        c = raw["cost"]
        self.Q = np.diag(c["Q"])
        self.R = np.diag(c["R"])
        self.QT = np.diag(c["Q_T"])
        self.target = np.asarray(c["x_target"], dtype=float)
        self.angles = list(c.get("angle_dims", ()))

    def err(self, x):
        e = x - self.target
        for i in self.angles:
            e[:, i] = math.pi - np.mod(math.pi - e[:, i], 2.0 * math.pi)
        return e

    def running(self, x, u):
        e = self.err(x)
        return (np.sum((e @ self.Q) * e, axis=1)
                + np.sum((u @ self.R) * u, axis=1))

    def terminal(self, x):
        e = self.err(x)
        return np.sum((e @ self.QT) * e, axis=1)

    def control_jacobian(self, x, u):
        """d f / d u by complex step, shape (K, n, m)."""
        cols = []
        for j in range(u.shape[1]):
            up = u.astype(complex)
            up[:, j] += 1j * _COMPLEX_H
            cols.append(self.f(x.astype(complex), up).imag / _COMPLEX_H)
        return np.stack(cols, axis=2)


def _bandwidth(svgd, p):
    if svgd["bandwidth"] != "median":
        return float(svgd["bandwidth"])
    K = p.shape[0]
    d2 = ((p[:, None, :] - p[None, :, :]) ** 2).sum(axis=2)
    med = float(np.median(d2[np.triu_indices(K, 1)]))
    return math.sqrt(med / (2.0 * math.log(K))) if med > 0 else 1.0


def _stein(p, g, svgd):
    s = _bandwidth(svgd, p)
    diff = p[None, :, :] - p[:, None, :]            # [i, j] = p_j - p_i
    kmat = np.exp(-(diff ** 2).sum(axis=2) / (2.0 * s * s))
    repulse = -(kmat[:, :, None] * diff).sum(axis=1) / (s * s)
    return (kmat @ (-svgd["alpha"] * g) + repulse) / p.shape[0]


def first_step(raw, algo, seed, x0):
    """(u_star, weights) of step 0 of an episode whose controller seed is
    ``seed``, started at ``x0`` with a zero nominal sequence."""
    prob = _Problem(raw)
    ctrl = raw["controller"]
    K, N = ctrl["K"], ctrl["horizon"]
    m = len(raw["cost"]["R"])
    v_all = noise(step_seed(seed, 0), K, N, m, ctrl["sigma"])
    x_start = np.tile(np.asarray(x0, dtype=float), (K, 1))
    svgd = raw.get("svgd", {})
    if algo == "soppi" and svgd.get("iterations", 0) > 0:
        v_all = v_all.copy()
        x = x_start
        for t in range(N):
            v = v_all[:, t, :]
            for _ in range(svgd["iterations"]):
                e_next = prob.err(prob.f(x, v))
                d_state = 2.0 * e_next @ prob.Q
                grads = (np.einsum("knm,kn->km",
                                   prob.control_jacobian(x, v), d_state)
                         + 2.0 * v @ prob.R)
                v = v + svgd["step_size"] * _stein(v, grads, svgd)
            v_all[:, t, :] = v
            x = prob.f(x, v)
    costs = np.zeros(K)
    x = x_start
    with np.errstate(all="ignore"):
        for t in range(N):
            costs += prob.running(x, v_all[:, t, :])
            x = prob.f(x, v_all[:, t, :])
        costs += prob.terminal(x)
    costs[~np.isfinite(costs)] = np.inf
    w = np.exp(-(costs - costs.min()) / ctrl["lambda"])
    w /= w.sum()
    return np.tensordot(w, v_all, axes=1), w
