"""Discrete-time dynamics with exact Jacobians.

Every system integrates with semi-implicit Euler (velocities first), which is
stable at the 0.02 s step used by the cart-pole benchmark.  The step code is
plain numpy, so it runs on floats, on batches of shape ``(..., n)`` and on
complex inputs.

Each system splits its step in two.  ``_prepare(s)`` computes the terms that
depend on the state alone (for the cart-pole: sin/cos theta, the centripetal,
friction and gravity terms and the denominator of the accelerations);
``_advance(z, u)`` finishes the step from those terms and the control, in the
same operation order as the undivided formula.  ``step_unchecked`` composes
the two, so a single state evaluated once is bitwise equal to the prepared
terms advanced with any control.  The SOPPI refinement, which evaluates one
state under several controls, prepares once and advances per control.  The
pendulum prepares its torque-free acceleration; the double integrator has no
state-only part and keeps the base-class default, which passes the state
components through.

Every Jacobian differentiates the step itself by complex step (Martins,
Sturdza & Alonso, "The complex-step derivative approximation", 2003): for a
real-analytic f, ``f(x + ih) = f(x) + ih f'(x) + O(h^2)`` with no
subtraction, so ``Im f(x + ih) / h`` is f'(x) to rounding once h is tiny.
h is 2**-100, so dividing by it is exact.  ``_linearize`` probes
``_advance`` along the controls only and returns the next state with its
control Jacobian, which is what the SOPPI lookahead uses; the tests' full
Jacobians probe the whole step the same way (``tests/oracles.py``).  A
system is therefore its step and nothing more.  Two spots of the cart-pole
are not analytic and read the real part only: the friction sign, whose
derivative is zero, and the force clamp, which keeps the probe's imaginary
part only where the force passes (``|u| <= force_limit``), so a clamped
force has a zero Jacobian column.  On real inputs both give the same bits
as plain ``np.sign`` and ``np.clip``.  The clamp is one hook, ``_clamp``,
shared by ``_advance`` and the SOPPI lookahead.

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
        for name in ("cart_mass", "pole_mass", "pole_half_length", "dt"):
            _require_positive(getattr(self, name), name)
        for name in ("gravity", "cart_friction", "pole_friction"):
            _require_finite(getattr(self, name), name)
        if self.force_limit is not None:
            _require_positive(self.force_limit, "force_limit")


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

    def _clamp(self, u):
        """``(clamped, passes)``: the control components after the control
        clamp, and a ``(..., m)`` mask of the entries it lets through.
        Systems without a clamp return ``(u, None)``."""
        return u, None

    def step(self, state, control):
        """One semi-implicit Euler step.  Accepts ``(..., n)`` batches."""
        return self.step_unchecked(*_check(self, state, control))

    def step_unchecked(self, state, control):
        """As :meth:`step` but unvalidated, so that it takes complex-step
        probes."""
        s = [state[..., i] for i in range(self.state_dim)]
        u = [control[..., j] for j in range(self.control_dim)]
        return np.stack(self._advance(self._prepare(s), u), axis=-1)

    def _linearize(self, z, u=None):
        """``(next, B)``: the next state ``(..., n)`` from prepared terms and
        control components ``u`` (zero if None), and its control Jacobian
        ``(..., n, m)``, by one complex-step ``_advance`` per control."""
        m = self.control_dim
        u = [0.0] * m if u is None else u
        cols = []
        for j in range(m):
            probe = list(u)
            probe[j] = probe[j] + 1j * _COMPLEX_STEP
            out = np.stack(self._advance(z, probe), axis=-1)
            cols.append(out.imag)
        return out.real, np.stack(cols, axis=-1) / _COMPLEX_STEP


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
        (force,), _ = self._clamp(u)
        mt = p.cart_mass + p.pole_mass
        half = p.pole_half_length
        temp = (force + spin - slide) / mt
        th_acc = (pull - ct * temp - drag) / denom
        x_acc = temp - p.pole_mass * half * th_acc * ct / mt
        xd2 = xd + x_acc * p.dt
        thd2 = thd + th_acc * p.dt
        return (x + xd2 * p.dt, xd2, th + thd2 * p.dt, thd2)

    def _clamp(self, u):
        lim = self.params.force_limit
        if lim is None:
            return u, None
        # Clamp the real part; a complex-step probe keeps its imaginary part
        # where the force passes.  NaN passes, as it fails no bound.
        real = np.real(u[0])
        passes = ~(np.abs(real) > lim)
        return [np.where(passes, u[0], np.clip(real, -lim, lim))], \
            passes[..., None]


class DoubleIntegrator(System):
    """1-D point mass: velocity then position update, control is acceleration."""

    state_dim = 2
    control_dim = 1

    def __init__(self, dt: float = 0.02):
        _require_positive(dt, "dt")
        self.dt = dt

    def _advance(self, z, u):
        x, v = z
        v2 = v + u[0] * self.dt
        return (x + v2 * self.dt, v2)


class Pendulum(System):
    """Damped pendulum, theta = 0 hanging down; control is a torque."""

    state_dim = 2
    control_dim = 1

    def __init__(self, mass=1.0, length=1.0, gravity=9.8, damping=0.0,
                 dt=0.02):
        for name, value in (("mass", mass), ("length", length), ("dt", dt)):
            _require_positive(value, name)
        for name, value in (("gravity", gravity), ("damping", damping)):
            _require_finite(value, name)
        self.mass = mass
        self.length = length
        self.gravity = gravity
        self.damping = damping
        self.dt = dt

    def _prepare(self, s):
        th, om = s
        return (th, om,
                -(self.gravity / self.length) * np.sin(th) - self.damping * om)

    def _advance(self, z, u):
        th, om, free = z
        acc = free + u[0] / (self.mass * self.length ** 2)
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
