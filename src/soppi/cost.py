"""Quadratic running and terminal costs and the running cost's gradients.

The running cost is ``e' Q e + u' R u`` with ``e`` the (angle wrapped) state
error to the target and ``u`` the control; the terminal cost uses ``Q_T``
and no control term.  All functions accept numpy batches on the leading
axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def wrap_angle(x):
    """Wrap to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


def _require_psd(mat, name):
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.allclose(mat, mat.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    eig = np.linalg.eigvalsh(mat)
    if eig.min() < -1e-10 * max(1.0, eig.max()):
        raise ValueError(f"{name} must be positive semidefinite")
    return mat


@dataclass
class CostSpec:
    """Weights and targets of the quadratic cost.

    angle_dims lists state indices in [0, state_dim) whose error is wrapped
    to (-pi, pi].
    """

    Q: np.ndarray
    R: np.ndarray
    Q_T: np.ndarray
    x_target: np.ndarray
    angle_dims: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        self.Q = _require_psd(self.Q, "Q")
        self.R = _require_psd(self.R, "R")
        self.Q_T = _require_psd(self.Q_T, "Q_T")
        self.x_target = np.asarray(self.x_target, dtype=float)
        if self.x_target.shape != (self.Q.shape[0],):
            raise ValueError("x_target dimension does not match Q")
        n = self.Q.shape[0]
        dims = self.angle_dims
        if not isinstance(dims, (list, tuple, set, frozenset)) or any(
                isinstance(i, bool) or not isinstance(i, (int, np.integer))
                or not 0 <= i < n for i in dims):
            raise ValueError(f"angle_dims must list state indices in "
                             f"[0, {n}), got {dims!r}")
        self.angle_dims = frozenset(int(i) for i in dims)
        self._angle_idx = tuple(sorted(self.angle_dims))

    def state_error(self, state):
        """state - x_target, wrapped on the angle dimensions."""
        e = np.asarray(state, dtype=float) - self.x_target
        for i in self._angle_idx:
            e[..., i] = wrap_angle(e[..., i])
        return e


def _quad(e, W):
    # e' W e per point; a matmul and a sum run about twice as fast as the
    # three-operand einsum and give the same bits for diagonal weights.
    return ((e @ W) * e).sum(axis=-1)


def running_cost(spec: CostSpec, state, control):
    """Per-step cost; nonnegative for PSD weights."""
    if np.asarray(state).shape[-1] != spec.Q.shape[0]:
        raise ValueError("state dimension does not match Q")
    if np.asarray(control).shape[-1] != spec.R.shape[0]:
        raise ValueError("control dimension does not match R")
    u = np.asarray(control, dtype=float)
    return _quad(spec.state_error(state), spec.Q) + _quad(u, spec.R)


def terminal_cost(spec: CostSpec, state):
    if np.asarray(state).shape[-1] != spec.Q_T.shape[0]:
        raise ValueError("state dimension does not match Q_T")
    return _quad(spec.state_error(state), spec.Q_T)


def running_cost_gradients(spec: CostSpec, state, control):
    """(d cost/d state, d cost/d control) = (2 Q e, 2 R u).

    Angle wrapping is locally the identity, so it does not alter the
    gradient away from the wrap discontinuity.
    """
    if np.asarray(state).shape[-1] != spec.Q.shape[0]:
        raise ValueError("state dimension does not match Q")
    if np.asarray(control).shape[-1] != spec.R.shape[0]:
        raise ValueError("control dimension does not match R")
    u = np.asarray(control, dtype=float)
    return 2.0 * spec.state_error(state) @ spec.Q, 2.0 * u @ spec.R
