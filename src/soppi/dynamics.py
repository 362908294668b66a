"""Discrete-time dynamics with exact Jacobians.

Every system integrates with semi-implicit Euler (velocities first), which is
stable at the 0.02 s step used by the cart-pole benchmark.  The step code is
plain numpy, so it runs on floats, on batches of shape ``(..., n)`` and on
complex inputs.

Each system splits its step in two.  ``_prepare(s)`` computes the terms that
depend on the state alone (for the cart-pole: sin/cos theta, the centripetal,
friction and gravity terms and the denominator of the accelerations);
``_advance(z, u)`` finishes the step from those terms and the control, in the
same operation order as the undivided formula.  ``_step_components`` composes
the two, so a single state evaluated once is bitwise equal to the prepared
terms advanced with any control.  The SOPPI refinement, which evaluates one
state under several controls, prepares once and advances per control.  The
pendulum and the double integrator have no costly state-only part and keep
the base-class default, which passes the state components through.

Hand-derived closed-form control Jacobians, built from the same prepared
terms, are provided for the hot loop.  They are tested against
:meth:`System.jacobians`, which differentiates the step itself by complex
step: for a real-analytic f, ``f(x + ih) = f(x) + ih f'(x) + O(h^2)`` with no
subtraction, so ``Im f(x + ih) / h`` is f'(x) to rounding once h is tiny
(1e-30 here).  Two spots of the cart-pole are not analytic and read the real
part only: the friction sign, whose derivative is zero, and the force clamp,
which keeps the probe's imaginary part exactly where the closed form lets
the force through (``|u| <= force_limit``).  On real inputs both give the
same bits as plain ``np.sign`` and ``np.clip``.

States and controls are plain numpy float vectors.  Cart-pole state order is
``(x [m], x_dot [m/s], theta [rad], theta_dot [rad/s])`` with ``theta = 0``
upright; the control is the horizontal force on the cart in newtons.  Angles
are never wrapped here — wrapping belongs to costs and metrics only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_COMPLEX_STEP = 1e-30


@dataclass(frozen=True)
class Jacobians:
    """Partial derivatives of the one-step map.

    d_next_d_state is n x n, d_next_d_control is n x m.
    """

    d_next_d_state: np.ndarray
    d_next_d_control: np.ndarray


@dataclass(frozen=True)
class CartPoleParams:
    """Physical parameters of the cart-pole (Florian-style model).

    Friction coefficients default to zero; the force clamp is off unless
    ``force_limit`` is set.
    """

    cart_mass: float = 1.0
    pole_mass: float = 0.1
    pole_half_length: float = 0.5
    gravity: float = 9.8
    dt: float = 0.02
    force_limit: float | None = None
    cart_friction: float = 0.0
    pole_friction: float = 0.0

    def __post_init__(self):
        if self.cart_mass <= 0 or self.pole_mass <= 0:
            raise ValueError("masses must be strictly positive")
        if self.pole_half_length <= 0:
            raise ValueError("pole_half_length must be strictly positive")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


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
    """Base class: a pure one-step map with exact Jacobians."""

    state_dim: int
    control_dim: int
    dt: float

    def _prepare(self, s):
        """State-only terms of the step, from the unpacked state components.

        The default keeps the components themselves.
        """
        return s

    def _advance(self, z, u):
        """Next-state components from prepared terms and control components."""
        raise NotImplementedError

    def _step_components(self, s, u):
        """Next-state components from unpacked state/control components."""
        return self._advance(self._prepare(s), u)

    def _control_jacobian(self, z):
        """d(next state)/d(control) at prepared terms for an unclamped control,
        shape ``(..., n, m)``."""
        raise NotImplementedError

    def _saturate(self, b, z, u):
        """The control Jacobian ``b`` with the control clamp applied; systems
        without a clamp return ``b`` itself."""
        return b

    def step(self, state, control):
        """One semi-implicit Euler step.  Accepts ``(..., n)`` batches."""
        state, control = _check(self, state, control)
        s = [state[..., i] for i in range(self.state_dim)]
        u = [control[..., j] for j in range(self.control_dim)]
        return np.stack(self._step_components(s, u), axis=-1)

    def step_unchecked(self, state, control):
        """As :meth:`step` but without finiteness/shape validation.

        Hot-loop variant for batched rollouts where divergence is detected
        downstream (non-finite costs are mapped to +inf by the controller).
        """
        s = [state[..., i] for i in range(self.state_dim)]
        u = [control[..., j] for j in range(self.control_dim)]
        return np.stack(self._step_components(s, u), axis=-1)

    def jacobians(self, state, control) -> Jacobians:
        """Exact Jacobians of :meth:`step` by complex step.

        One batched step of the point plus ``ih`` along each of the n + m
        inputs; the imaginary parts over h are the Jacobian's columns.  No
        difference is taken, so nothing cancels, and the O(h^2) error is far
        below rounding at h = 1e-30.  The non-analytic friction sign and
        force clamp act on the real part (see the module docstring).
        """
        state, control = _check(self, state, control)
        if state.ndim != 1:
            raise ValueError("jacobians expects a single (unbatched) point")
        n = self.state_dim
        point = np.concatenate([state, control])
        probe = point + 1j * _COMPLEX_STEP * np.eye(point.size)
        out = self.step_unchecked(probe[:, :n], probe[:, n:])
        jac = out.imag.T / _COMPLEX_STEP
        return Jacobians(jac[:, :n].copy(), jac[:, n:].copy())

    def control_jacobian(self, state, control):
        """Batched d(next state)/d(control) in closed form, shape
        ``(..., n, m)``."""
        state = np.asarray(state, dtype=float)
        control = np.asarray(control, dtype=float)
        z = self._prepare([state[..., i] for i in range(self.state_dim)])
        u = [control[..., j] for j in range(self.control_dim)]
        return self._saturate(self._control_jacobian(z), z, u)


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

    def _prepare(self, s):
        p = self.params
        x, xd, th, thd = s
        mt = p.cart_mass + p.pole_mass
        half = p.pole_half_length
        st, ct = np.sin(th), np.cos(th)
        spin = p.pole_mass * half * thd * thd * st
        slide = p.cart_friction * np.sign(np.real(xd))
        pull = p.gravity * st
        drag = p.pole_friction * thd / (p.pole_mass * half)
        denom = half * (4.0 / 3.0 - p.pole_mass * ct * ct / mt)
        return (x, xd, th, thd, ct, spin, slide, pull, drag, denom)

    def _advance(self, z, u):
        p = self.params
        x, xd, th, thd, ct, spin, slide, pull, drag, denom = z
        force = u[0]
        if p.force_limit is not None:
            # Clamp the real part; a complex-step probe keeps its imaginary
            # part where the force passes, the predicate of _saturate.
            lim = p.force_limit
            real = np.real(force)
            force = np.where(np.abs(real) <= lim, force,
                             np.clip(real, -lim, lim))
        mt = p.cart_mass + p.pole_mass
        half = p.pole_half_length
        temp = (force + spin - slide) / mt
        th_acc = (pull - ct * temp - drag) / denom
        x_acc = temp - p.pole_mass * half * th_acc * ct / mt
        xd2 = xd + x_acc * p.dt
        thd2 = thd + th_acc * p.dt
        return (x + xd2 * p.dt, xd2, th + thd2 * p.dt, thd2)

    def _control_jacobian(self, z, d_temp=None):
        # Closed form: only the accelerations depend on the force, linearly;
        # d_temp is d(temp)/d(force), zero where the force saturates.
        p = self.params
        ct, denom = z[4], z[9]
        mt = p.cart_mass + p.pole_mass
        half = p.pole_half_length
        if d_temp is None:
            d_temp = np.full_like(ct, 1.0 / mt)
        d_th_acc = -ct * d_temp / denom
        d_x_acc = d_temp - p.pole_mass * half * d_th_acc * ct / mt
        dt = p.dt
        cols = np.stack([d_x_acc * dt * dt, d_x_acc * dt,
                         d_th_acc * dt * dt, d_th_acc * dt], axis=-1)
        return cols[..., None]

    def _saturate(self, b, z, u):
        if self.params.force_limit is None:
            return b
        saturated = np.abs(u[0]) > self.params.force_limit
        clamped = self._control_jacobian(z, np.zeros_like(z[4]))
        return np.where(np.reshape(saturated, np.shape(saturated) + (1, 1)),
                        clamped, b)


class DoubleIntegrator(System):
    """1-D point mass: velocity then position update, control is acceleration."""

    state_dim = 2
    control_dim = 1

    def __init__(self, dt: float = 0.02):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt

    def _advance(self, z, u):
        x, v = z
        v2 = v + u[0] * self.dt
        return (x + v2 * self.dt, v2)

    def _control_jacobian(self, z):
        b = np.array([[self.dt * self.dt], [self.dt]])
        return np.broadcast_to(b, np.shape(z[0]) + (2, 1)).copy()


class Pendulum(System):
    """Damped pendulum, theta = 0 hanging down; control is a torque."""

    state_dim = 2
    control_dim = 1

    def __init__(self, mass=1.0, length=1.0, gravity=9.8, damping=0.0,
                 dt=0.02):
        if mass <= 0 or length <= 0:
            raise ValueError("mass and length must be strictly positive")
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.mass = mass
        self.length = length
        self.gravity = gravity
        self.damping = damping
        self.dt = dt

    def _advance(self, z, u):
        th, om = z
        acc = (-(self.gravity / self.length) * np.sin(th)
               - self.damping * om
               + u[0] / (self.mass * self.length ** 2))
        om2 = om + acc * self.dt
        return (th + om2 * self.dt, om2)

    def _control_jacobian(self, z):
        g = self.dt / (self.mass * self.length ** 2)
        b = np.array([[g * self.dt], [g]])
        return np.broadcast_to(b, np.shape(z[0]) + (2, 1)).copy()


def rollout(system: System, x0, controls, length: int | None = None):
    """Roll the system forward; returns ``(N+1, n)`` states including x0."""
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 1:
        controls = controls[:, None]
    n_steps = controls.shape[0]
    if length is not None and length != n_steps:
        raise ValueError(f"controls length {n_steps} != requested length {length}")
    if n_steps < 1:
        raise ValueError("rollout needs at least one control")
    states = np.empty((n_steps + 1, system.state_dim))
    states[0] = np.asarray(x0, dtype=float)
    for t in range(n_steps):
        states[t + 1] = system.step(states[t], controls[t])
    return states


_SYSTEMS = {
    "cartpole": lambda params: CartPole(CartPoleParams(**params)),
    "double_integrator": lambda params: DoubleIntegrator(**params),
    "pendulum": lambda params: Pendulum(**params),
}


def make_system(system_id: str, params: dict | None = None) -> System:
    """Build a system from its config id and parameter dict."""
    if system_id not in _SYSTEMS:
        raise ValueError(f"unknown system {system_id!r}; "
                         f"known: {sorted(_SYSTEMS)}")
    return _SYSTEMS[system_id](dict(params or {}))
