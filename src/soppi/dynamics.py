"""Discrete-time dynamics: one Euler step per system.

Every system integrates with semi-implicit Euler (velocities first), which is
stable at the 0.02 s step used by the cart-pole benchmark.  A system writes
its step once, as ``_advance(s, u)`` on the lists of state and control
components; ``step_unchecked`` unpacks ``(..., n)`` states and ``(..., m)``
controls into those lists and stacks the result.  The step code is plain
numpy, so it runs on floats, on broadcast batches and on complex inputs.

The SOPPI lookahead's control Jacobian differentiates the step itself by
complex step (Martins, Sturdza & Alonso, "The complex-step derivative
approximation", 2003): for a real-analytic f, ``f(x + ih) = f(x) + ih f'(x)
+ O(h^2)`` with no subtraction, so ``Im f(x + ih) / h`` is f'(x) to rounding
once h is tiny.  h is 2**-100, so dividing by it is exact.  Every step here
is real-analytic.  ``_linearize`` steps each state once under the m controls
``ih e_j`` and returns the next state at zero control with its control
Jacobian; the tests' full Jacobians probe the state the same way
(``tests/oracles.py``).  A system is therefore its step and nothing more.

States and controls are plain numpy float vectors.  Cart-pole state order is
``(x [m], x_dot [m/s], theta [rad], theta_dot [rad/s])`` with ``theta = 0``
upright; the control is the horizontal force on the cart in newtons.  Angles
are never wrapped here — wrapping belongs to costs and metrics only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .svgd import _require_finite, _require_positive

_COMPLEX_STEP = 2.0 ** -100


@dataclass(frozen=True)
class CartPoleParams:
    """Physical parameters of the cart-pole (Florian-style model)."""

    cart_mass: float = 1.0
    pole_mass: float = 0.1
    pole_half_length: float = 0.5
    gravity: float = 9.8
    dt: float = 0.02

    def __post_init__(self):
        for name in ("cart_mass", "pole_mass", "pole_half_length", "dt"):
            _require_positive(getattr(self, name), name)
        _require_finite(self.gravity, "gravity")


def _check(system, state, control):
    state = np.asarray(state, dtype=float)
    control = np.asarray(control, dtype=float)
    if state.shape[-1] != system.state_dim:
        raise ValueError(
            f"state dimension {state.shape[-1]} != {system.state_dim}")
    if control.shape[-1] != system.control_dim:
        raise ValueError(
            f"control dimension {control.shape[-1]} != {system.control_dim}")
    if not np.all(np.isfinite(state)) or not np.all(np.isfinite(control)):
        raise ValueError("non-finite (NaN/inf) entries in state or control")
    return state, control


class System:
    """Base class: a pure one-step map."""

    state_dim: int
    control_dim: int
    dt: float

    def _advance(self, s, u):
        """Next-state components from state and control components."""
        raise NotImplementedError

    def step(self, state, control):
        """One semi-implicit Euler step.  Accepts ``(..., n)`` batches."""
        return self.step_unchecked(*_check(self, state, control))

    def step_unchecked(self, state, control):
        """As :meth:`step` but unvalidated, so that it takes complex-step
        probes; state and control batch shapes broadcast."""
        s = [state[..., i] for i in range(self.state_dim)]
        u = [control[..., j] for j in range(self.control_dim)]
        return np.stack(self._advance(s, u), axis=-1)

    def _linearize(self, x):
        """``(next, B)``: the next state ``(..., n)`` of the states x at zero
        control, and its control Jacobian ``(..., n, m)``, from one
        complex-step call."""
        probe = 1j * _COMPLEX_STEP * np.eye(self.control_dim)
        out = self.step_unchecked(x[..., None, :], probe)     # (..., m, n)
        b = np.swapaxes(out.imag, -1, -2) / _COMPLEX_STEP
        return out[..., 0, :].real, b


class CartPole(System):
    """Cart-pole with the Florian accelerations and semi-implicit Euler.

    theta is measured from the upright position; positive force pushes the
    cart in +x.
    """

    state_dim = 4
    control_dim = 1

    def __init__(self, params: CartPoleParams = CartPoleParams()):
        self.params = params
        self.dt = params.dt

    def _advance(self, s, u):
        p = self.params
        x, xd, th, thd = s
        mt = p.cart_mass + p.pole_mass
        half = p.pole_half_length
        st, ct = np.sin(th), np.cos(th)
        temp = (u[0] + p.pole_mass * half * thd * thd * st) / mt
        th_acc = (p.gravity * st - ct * temp) / (
            half * (4.0 / 3.0 - p.pole_mass * ct * ct / mt))
        x_acc = temp - p.pole_mass * half * th_acc * ct / mt
        xd2 = xd + x_acc * p.dt
        thd2 = thd + th_acc * p.dt
        return (x + xd2 * p.dt, xd2, th + thd2 * p.dt, thd2)


class DoubleIntegrator(System):
    """1-D point mass: velocity then position update, control is acceleration."""

    state_dim = 2
    control_dim = 1

    def __init__(self, dt: float = 0.02):
        _require_positive(dt, "dt")
        self.dt = dt

    def _advance(self, s, u):
        x, v = s
        v2 = v + u[0] * self.dt
        return (x + v2 * self.dt, v2)


class Pendulum(System):
    """Undamped pendulum, theta = 0 hanging down; control is a torque."""

    state_dim = 2
    control_dim = 1

    def __init__(self, mass=1.0, length=1.0, gravity=9.8, dt=0.02):
        for name, value in (("mass", mass), ("length", length), ("dt", dt)):
            _require_positive(value, name)
        _require_finite(gravity, "gravity")
        self.mass = mass
        self.length = length
        self.gravity = gravity
        self.dt = dt

    def _advance(self, s, u):
        th, om = s
        acc = (-(self.gravity / self.length) * np.sin(th)
               + u[0] / (self.mass * self.length ** 2))
        om2 = om + acc * self.dt
        return (th + om2 * self.dt, om2)


_SYSTEMS = {
    "cartpole": lambda params: CartPole(CartPoleParams(**params)),
    "double_integrator": lambda params: DoubleIntegrator(**params),
    "pendulum": lambda params: Pendulum(**params),
}


def make_system(system_id: str, params: dict | None = None) -> System:
    """Build a system from its config id and parameter dict."""
    if not isinstance(system_id, str) or system_id not in _SYSTEMS:
        raise ValueError(f"system.id must be one of {sorted(_SYSTEMS)}, "
                         f"got {system_id!r}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"system.params must be an object, got {params!r}")
    try:
        return _SYSTEMS[system_id](dict(params))
    except TypeError as exc:   # a name the system does not take
        raise ValueError(f"system.params of {system_id}: {exc}") from None
