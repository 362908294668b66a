import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soppi import CartPole, CartPoleParams, DoubleIntegrator, Pendulum
from soppi.dynamics import make_system
from conftest import central_diff_jacobian
from oracles import control_jacobian, jacobians, rollout


def florian_cartpole_oracle(params, state, force):
    """Independent evaluation of the cart-pole accelerations plus one
    velocity-first Euler step, written from the equations directly."""
    x, xd, th, thd = state
    mt = params.cart_mass + params.pole_mass
    half = params.pole_half_length
    temp = (force + params.pole_mass * half * thd ** 2 * np.sin(th)) / mt
    th_acc = (params.gravity * np.sin(th) - np.cos(th) * temp) / (
        half * (4.0 / 3.0 - params.pole_mass * np.cos(th) ** 2 / mt))
    x_acc = temp - params.pole_mass * half * th_acc * np.cos(th) / mt
    xd2 = xd + x_acc * params.dt
    thd2 = thd + th_acc * params.dt
    return np.array([x + xd2 * params.dt, xd2, th + thd2 * params.dt, thd2])


@pytest.mark.parametrize("system_id,name,value", [
    ("cartpole", "dt", np.nan), ("cartpole", "pole_mass", 0.0),
    ("cartpole", "cart_mass", True), ("cartpole", "pole_half_length", np.inf),
    ("pendulum", "length", np.inf), ("pendulum", "dt", -0.02),
    ("pendulum", "mass", np.nan), ("double_integrator", "dt", np.nan),
    ("cartpole", "gravity", np.nan), ("pendulum", "gravity", np.inf),
    ("pendulum", "damping", np.nan), ("cartpole", "cart_friction", np.inf),
    ("cartpole", "pole_friction", -np.inf), ("cartpole", "force_limit", 0.0),
    ("cartpole", "force_limit", -5.0), ("cartpole", "force_limit", np.inf),
])
def test_bad_parameter_rejected(system_id, name, value):
    with pytest.raises(ValueError, match=name):
        make_system(system_id, {name: value})


class TestCartPoleStep:
    def test_upright_equilibrium(self, cartpole):
        x = np.zeros(4)
        assert np.array_equal(cartpole.step(x, np.zeros(1)), x)

    def test_hanging_equilibrium(self, cartpole):
        # sin(pi) is ~1e-16 in floats, so allow roundoff-sized drift.
        x = np.array([0.0, 0.0, np.pi, 0.0])
        np.testing.assert_allclose(cartpole.step(x, np.zeros(1)), x,
                                   rtol=0, atol=1e-15)

    def test_matches_independent_oracle(self, cartpole):
        state = np.array([0.0, 0.0, np.pi / 4, 0.0])
        got = cartpole.step(state, np.array([1.0]))
        expected = florian_cartpole_oracle(cartpole.params, state, 1.0)
        np.testing.assert_allclose(got, expected, rtol=1e-14)
        # frozen oracle output at this exact point
        np.testing.assert_allclose(
            got, [0.00023811764705882352, 0.011905882352941176,
                  0.78930338936639199, 0.19526129844718401], rtol=1e-15)

    def test_batch_matches_scalar(self, cartpole):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(7, 4))
        controls = rng.normal(size=(7, 1))
        batch = cartpole.step(states, controls)
        for i in range(7):
            np.testing.assert_array_equal(
                batch[i], cartpole.step(states[i], controls[i]))

    def test_rejects_nan(self, cartpole):
        with pytest.raises(ValueError, match="non-finite"):
            cartpole.step(np.array([0.0, np.nan, 0.0, 0.0]), np.zeros(1))

    def test_rejects_wrong_dimension(self, cartpole):
        with pytest.raises(ValueError, match="dimension"):
            cartpole.step(np.zeros(3), np.zeros(1))

    def test_force_limit_clamps(self):
        limited = CartPole(CartPoleParams(force_limit=5.0))
        free = CartPole()
        x = np.array([0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(limited.step(x, np.array([50.0])),
                                      free.step(x, np.array([5.0])))

    def test_friction_slows_cart(self):
        fric = CartPole(CartPoleParams(cart_friction=0.5))
        x = np.array([0.0, 1.0, np.pi, 0.0])
        assert fric.step(x, np.zeros(1))[1] < CartPole().step(x, np.zeros(1))[1]


def undivided_cartpole_step(params, s, u):
    """The cart-pole step before its prepare/advance split, kept verbatim
    as a bitwise oracle for the operation order."""
    p = params
    x, xd, th, thd = s
    force = u[0]
    if p.force_limit is not None:
        force = np.clip(force, -p.force_limit, p.force_limit)
    mt = p.cart_mass + p.pole_mass
    half = p.pole_half_length
    st, ct = np.sin(th), np.cos(th)
    temp = (force + p.pole_mass * half * thd * thd * st
            - p.cart_friction * np.sign(xd)) / mt
    th_acc = (p.gravity * st - ct * temp
              - p.pole_friction * thd / (p.pole_mass * half)) / (
        half * (4.0 / 3.0 - p.pole_mass * ct * ct / mt))
    x_acc = temp - p.pole_mass * half * th_acc * ct / mt
    xd2 = xd + x_acc * p.dt
    thd2 = thd + th_acc * p.dt
    return np.stack((x + xd2 * p.dt, xd2, th + thd2 * p.dt, thd2), axis=-1)


_PARAMS = [CartPoleParams(), CartPoleParams(force_limit=5.0),
           CartPoleParams(cart_friction=0.3, pole_friction=0.05),
           CartPoleParams(force_limit=5.0, cart_friction=0.3,
                          pole_friction=0.05)]


def _components(a):
    return [a[..., i] for i in range(a.shape[-1])]


class TestPreparedStep:
    @pytest.mark.parametrize("params", _PARAMS)
    def test_cartpole_matches_undivided_formula_bitwise(self, params):
        system = CartPole(params)
        rng = np.random.default_rng(11)
        states = rng.normal(scale=3.0, size=(200, 4))
        states[:5, 1] = 0.0                      # sign(x_dot) == 0
        controls = rng.normal(scale=10.0, size=(200, 1))
        got = system.step_unchecked(states, controls)
        expected = undivided_cartpole_step(params, _components(states),
                                           _components(controls))
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("system", [CartPole(CartPoleParams(
        force_limit=5.0, cart_friction=0.3, pole_friction=0.05)),
        Pendulum(damping=0.1), DoubleIntegrator(0.05)],
        ids=["cartpole", "pendulum", "double_integrator"])
    @pytest.mark.parametrize("batch", [(), (7,)], ids=["scalar", "batch"])
    def test_advance_of_prepared_matches_step_unchecked(self, system, batch):
        # One preparation serves every control, as in the SOPPI sweeps.  The
        # complex-step linearization of the same terms gives the same next
        # state (the cart-pole's complex division rounds differently) and
        # the Jacobian of the whole step.
        rng = np.random.default_rng(12)
        state = rng.normal(scale=2.0, size=batch + (system.state_dim,))
        z = system._prepare(_components(state))
        for _ in range(4):
            control = rng.normal(scale=8.0,
                                 size=batch + (system.control_dim,))
            got = np.stack(system._advance(z, _components(control)), axis=-1)
            expected = system.step_unchecked(state, control)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
            nxt, b = system._linearize(z, _components(control))
            assert nxt.shape == expected.shape
            if isinstance(system, CartPole):
                np.testing.assert_allclose(nxt, expected, rtol=1e-15, atol=0)
            else:
                assert nxt.tobytes() == expected.tobytes()
            assert b.shape == batch + (system.state_dim, system.control_dim)
            for i in np.ndindex(batch):
                np.testing.assert_allclose(
                    b[i], jacobians(system, state[i], control[i])[1],
                    rtol=1e-12)


class TestJacobians:
    def test_double_integrator_is_linear(self, double_integrator):
        dt = double_integrator.dt
        a_expected = np.array([[1.0, dt], [0.0, 1.0]])
        b_expected = np.array([[dt * dt], [dt]])
        for state in (np.zeros(2), np.array([3.0, -2.0])):
            a, b = jacobians(double_integrator, state, np.array([0.7]))
            np.testing.assert_allclose(a, a_expected)
            np.testing.assert_allclose(b, b_expected)

    def test_pendulum_hanging_linearization(self, pendulum):
        a, _ = jacobians(pendulum, np.zeros(2), np.zeros(1))
        expected = -(pendulum.gravity / pendulum.length) * pendulum.dt
        assert a[1, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_cartpole_matches_finite_differences(self, cartpole, seed):
        rng = np.random.default_rng(seed)
        state = rng.normal(scale=2.0, size=4)
        control = rng.normal(scale=5.0, size=1)
        a, b = jacobians(cartpole, state, control)
        fd_state = central_diff_jacobian(
            lambda s: cartpole.step(s, control), state)
        fd_control = central_diff_jacobian(
            lambda u: cartpole.step(state, u), control)
        np.testing.assert_allclose(a, fd_state, rtol=2e-6, atol=1e-10)
        np.testing.assert_allclose(b, fd_control, rtol=2e-6, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_closed_form_control_jacobian_agrees_with_duals(self, cartpole,
                                                            seed):
        rng = np.random.default_rng(100 + seed)
        state = rng.normal(scale=2.0, size=4)
        control = rng.normal(scale=5.0, size=1)
        exact = jacobians(cartpole, state, control)[1]
        closed = control_jacobian(cartpole, state, control)
        np.testing.assert_allclose(closed, exact, rtol=1e-12, atol=1e-15)

    def test_batched_control_jacobian(self, cartpole):
        rng = np.random.default_rng(8)
        states = rng.normal(size=(5, 4))
        controls = rng.normal(size=(5, 1))
        batch = control_jacobian(cartpole, states, controls)
        assert batch.shape == (5, 4, 1)
        for i in range(5):
            np.testing.assert_allclose(
                batch[i], jacobians(cartpole, states[i], controls[i])[1],
                rtol=1e-12, atol=1e-15)

    def test_force_limited_control_jacobian_agrees_with_duals(self):
        # Saturated rows have a zero Jacobian; both kinds occur here.  The
        # last four controls sit on the clamp's kinks: a force of exactly
        # +-limit still passes through, one ulp outside it saturates.
        limit = 5.0
        system = CartPole(CartPoleParams(force_limit=limit))
        rng = np.random.default_rng(9)
        states = rng.normal(size=(12, 4))
        controls = rng.normal(scale=6.0, size=(12, 1))
        controls[8:, 0] = [limit, -limit, np.nextafter(limit, np.inf),
                           np.nextafter(-limit, -np.inf)]
        saturated = np.abs(controls[:, 0]) > limit
        assert saturated[:8].any() and not saturated[:8].all()
        np.testing.assert_array_equal(saturated[8:],
                                      [False, False, True, True])
        batch = control_jacobian(system, states, controls)
        for i in range(12):
            np.testing.assert_allclose(
                batch[i], jacobians(system, states[i], controls[i])[1],
                rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(batch[saturated], 0.0)
        assert np.all(batch[~saturated] != 0.0)

    def test_pendulum_closed_form_agrees(self, pendulum):
        state = np.array([0.3, -1.0])
        control = np.array([0.5])
        np.testing.assert_allclose(
            control_jacobian(pendulum, state, control),
            jacobians(pendulum, state, control)[1], rtol=1e-12)


class TestRollout:
    def test_single_step_reduces_to_step(self, cartpole):
        x0 = np.array([0.1, 0.0, 0.5, 0.2])
        u = np.array([[2.0]])
        states = rollout(cartpole, x0, u)
        np.testing.assert_array_equal(states[1], cartpole.step(x0, u[0]))

    def test_zero_controls_at_rest_stay_at_rest(self, double_integrator):
        states = rollout(double_integrator, np.zeros(2), np.zeros((6, 1)))
        np.testing.assert_array_equal(states, np.zeros((7, 2)))

    def test_composition_matches_chained_steps(self, cartpole):
        x0 = np.array([0.0, 0.0, np.pi, 0.0])
        controls = np.full((5, 1), 3.0)
        states = rollout(cartpole, x0, controls)
        x = x0
        for t in range(5):
            x = cartpole.step(x, controls[t])
            np.testing.assert_array_equal(states[t + 1], x)

    def test_determinism_is_bitwise(self, cartpole):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=4)
        controls = rng.normal(size=(20, 1))
        a = rollout(cartpole, x0, controls)
        b = rollout(cartpole, x0, controls)
        np.testing.assert_array_equal(a, b)

    def test_angle_not_wrapped(self, cartpole):
        # Strong constant force spins the pole; theta must grow continuously
        # past pi instead of jumping back into (-pi, pi].
        states = rollout(cartpole, np.array([0.0, 0.0, 3.0, 4.0]),
                         np.full((200, 1), 30.0))
        theta = states[:, 2]
        assert np.abs(np.diff(theta)).max() < 1.0
        assert theta.max() > np.pi


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_jacobian_fd_property(seed):
    rng = np.random.default_rng(seed)
    # The last system has both frictions and a force clamp; its friction
    # sign has a zero derivative away from x_dot = 0.
    system = [CartPole(), Pendulum(), DoubleIntegrator(0.05),
              CartPole(CartPoleParams(cart_friction=0.3, pole_friction=0.05,
                                      force_limit=4.0))][seed % 4]
    state = rng.normal(scale=1.5, size=system.state_dim)
    control = rng.normal(scale=3.0, size=system.control_dim)
    a, b = jacobians(system, state, control)
    fd_s = central_diff_jacobian(lambda s: system.step(s, control), state)
    fd_u = central_diff_jacobian(lambda u: system.step(state, u), control)
    np.testing.assert_allclose(a, fd_s, rtol=1e-6, atol=1e-9)
    np.testing.assert_allclose(b, fd_u, rtol=1e-6, atol=1e-9)
