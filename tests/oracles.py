"""Reference definitions the tests check the package against.

Nothing on the controller, harness or CLI path calls these; they are the
plain, one-point-at-a-time forms of what the package computes in batches:

* ``kernel`` and ``kernel_grad_wrt_first``: the scalar RBF kernel
  ``exp(-||a - b||^2 / (2 sigma^2))`` of standard SVGD and its gradient in
  the first argument (Liu & Wang, "Stein Variational Gradient Descent",
  2016), the pair terms of ``svgd.stein_direction``;
* ``jacobians`` and ``control_jacobian``: the full Jacobians of one
  ``System.step`` at a point by complex step, and the batched control
  Jacobian from ``System._linearize``, the chain-rule factor of the SOPPI
  lookahead;
* ``rollout`` and ``cost_to_go``: one sample stepped and costed one
  validated step at a time, against which ``controller.evaluate_batch`` is
  checked.
"""

import math

import numpy as np

from soppi.cost import running_cost, terminal_cost
from soppi.dynamics import _COMPLEX_STEP, _check


def kernel(v_a, v_b, sigma_k):
    """Kernel value in (0, 1]; symmetric in its arguments."""
    d = np.asarray(v_a, dtype=float) - np.asarray(v_b, dtype=float)
    return math.exp(-np.dot(d, d) / (2.0 * sigma_k ** 2))


def kernel_grad_wrt_first(v_a, v_b, sigma_k):
    """Exact gradient of the kernel with respect to its first argument."""
    k = kernel(v_a, v_b, sigma_k)
    return -(np.asarray(v_a, dtype=float) - v_b) / sigma_k ** 2 * k


def jacobians(system, state, control):
    """``(A, B)``: the exact Jacobians of ``system.step`` at one point,
    n x n in the state and n x m in the control, by complex step.

    One batched step of the point plus ``ih`` along each of the n + m
    inputs; the imaginary parts over h are the Jacobian's columns.  No
    difference is taken, so nothing cancels, and the O(h^2) error is far
    below rounding at h = 2**-100.  The non-analytic friction sign and
    force clamp act on the real part (see ``soppi.dynamics``).
    """
    state, control = _check(system, state, control)
    n = system.state_dim
    point = np.concatenate([state, control])
    probe = point + 1j * _COMPLEX_STEP * np.eye(point.size)
    out = system.step_unchecked(probe[:, :n], probe[:, n:])
    jac = out.imag.T / _COMPLEX_STEP
    return jac[:, :n].copy(), jac[:, n:].copy()


def control_jacobian(system, state, control):
    """Batched d(next state)/d(control), shape ``(..., n, m)``, from
    ``System._linearize``; a clamped control's column is zero."""
    state = np.asarray(state, dtype=float)
    control = np.asarray(control, dtype=float)
    z = system._prepare([state[..., i] for i in range(system.state_dim)])
    return system._linearize(
        z, [control[..., j] for j in range(system.control_dim)])[1]


def rollout(system, x0, controls):
    """Roll the system forward over ``(N, m)`` controls; returns ``(N+1, n)``
    states including x0."""
    controls = np.asarray(controls, dtype=float)
    states = np.empty((controls.shape[0] + 1, system.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    for t in range(controls.shape[0]):
        states[t + 1] = system.step(states[t], controls[t])
    return states


def cost_to_go(spec, states, controls):
    """Terminal cost of the last state plus summed running costs.

    states has N+1 rows, controls has N; running cost t pairs states[t]
    with controls[t].
    """
    states = np.asarray(states, dtype=float)
    controls = np.asarray(controls, dtype=float)
    total = terminal_cost(spec, states[-1])
    for t in range(controls.shape[0]):
        total = total + running_cost(spec, states[t], controls[t], t)
    return total
