import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soppi import CostSpec, running_cost, running_cost_gradients, \
    terminal_cost, wrap_angle
from soppi.cost import _quad
from oracles import cost_to_go


def diag_quadratic_oracle(weights, err):
    """Elementwise weighted sum of squares, the independent check."""
    return sum(w * e * e for w, e in zip(weights, err))


@pytest.fixture
def identity_spec():
    return CostSpec(Q=np.eye(4), R=np.eye(1), Q_T=np.eye(4),
                    x_target=np.zeros(4))


class TestRunningCost:
    def test_zero_at_target(self, identity_spec):
        assert running_cost(identity_spec, np.zeros(4), np.zeros(1)) == 0.0

    def test_identity_weights_hand_case(self):
        spec = CostSpec(Q=np.eye(2), R=np.eye(1), Q_T=np.eye(2),
                        x_target=np.zeros(2))
        got = running_cost(spec, np.array([1.0, 0.0]), np.array([2.0]))
        assert got == pytest.approx(5.0)

    def test_diagonal_matches_elementwise_oracle(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.1, 3.0, size=4)
        spec = CostSpec(Q=np.diag(weights), R=np.diag([0.5]),
                        Q_T=np.eye(4), x_target=np.zeros(4))
        state = rng.normal(size=4)
        control = rng.normal(size=1)
        expected = (diag_quadratic_oracle(weights, state)
                    + 0.5 * control[0] ** 2)
        assert running_cost(spec, state, control) == pytest.approx(
            expected, rel=1e-12)

    def test_u_ref_tracking(self):
        u_ref = np.array([[1.0], [2.0]])
        spec = CostSpec(Q=np.zeros((2, 2)), R=np.eye(1), Q_T=np.zeros((2, 2)),
                        x_target=np.zeros(2), u_ref=u_ref)
        assert running_cost(spec, np.zeros(2), np.array([1.0]), t=0) == 0.0
        assert running_cost(spec, np.zeros(2), np.array([1.0]),
                            t=1) == pytest.approx(1.0)

    def test_dimension_mismatch(self, identity_spec):
        with pytest.raises(ValueError):
            running_cost(identity_spec, np.zeros(3), np.zeros(1))

    def test_angle_wrap_periodicity(self, identity_spec):
        spec = CostSpec(Q=np.eye(4), R=np.eye(1), Q_T=np.eye(4),
                        x_target=np.zeros(4), angle_dims={2})
        s = np.array([0.0, 0.0, 0.4, 0.0])
        s_shifted = s + np.array([0.0, 0.0, 2 * np.pi, 0.0])
        assert running_cost(spec, s, np.zeros(1)) == pytest.approx(
            running_cost(spec, s_shifted, np.zeros(1)), rel=1e-12)


class TestTerminalCost:
    def test_zero_at_target(self, identity_spec):
        assert terminal_cost(identity_spec, np.zeros(4)) == 0.0

    def test_zero_weight_matrix(self):
        spec = CostSpec(Q=np.eye(2), R=np.eye(1), Q_T=np.zeros((2, 2)),
                        x_target=np.zeros(2))
        assert terminal_cost(spec, np.array([3.0, -7.0])) == 0.0

    def test_diagonal_oracle(self):
        w = np.array([2.0, 0.5])
        spec = CostSpec(Q=np.eye(2), R=np.eye(1), Q_T=np.diag(w),
                        x_target=np.zeros(2))
        state = np.array([1.5, -2.0])
        assert terminal_cost(spec, state) == pytest.approx(
            diag_quadratic_oracle(w, state), rel=1e-12)


class TestCostToGo:
    def test_zero_weights(self):
        spec = CostSpec(Q=np.zeros((2, 2)), R=np.zeros((1, 1)),
                        Q_T=np.zeros((2, 2)), x_target=np.zeros(2))
        assert cost_to_go(spec, np.ones((2, 2)), np.ones((1, 1))) == 0.0

    def test_two_step_hand_case(self):
        spec = CostSpec(Q=np.eye(1), R=np.eye(1), Q_T=np.eye(1),
                        x_target=np.zeros(1))
        states = np.array([[1.0], [2.0], [3.0]])
        controls = np.array([[1.0], [2.0]])
        # running: 1+1, 4+4; terminal: 9
        assert cost_to_go(spec, states, controls) == pytest.approx(19.0)

    def test_additivity(self, identity_spec):
        rng = np.random.default_rng(1)
        states = rng.normal(size=(6, 4))
        controls = rng.normal(size=(5, 1))
        total = cost_to_go(identity_spec, states, controls)
        partial = sum(running_cost(identity_spec, states[t], controls[t], t)
                      for t in range(5))
        partial += terminal_cost(identity_spec, states[5])
        assert total == pytest.approx(partial, rel=1e-12)


class TestGradients:
    def test_zero_at_minimum(self, identity_spec):
        gx, gu = running_cost_gradients(identity_spec, np.zeros(4),
                                        np.zeros(1))
        assert np.all(gx == 0) and np.all(gu == 0)

    def test_identity_gradient(self, identity_spec):
        state = np.array([1.0, -2.0, 0.5, 3.0])
        gx, _ = running_cost_gradients(identity_spec, state, np.zeros(1))
        np.testing.assert_allclose(gx, 2 * state)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.uniform(0.1, 2.0, size=3)
        spec = CostSpec(Q=np.diag(q), R=np.diag([0.7]), Q_T=np.eye(3),
                        x_target=rng.normal(size=3))
        state = rng.normal(size=3)
        control = rng.normal(size=1)
        gx, gu = running_cost_gradients(spec, state, control)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (running_cost(spec, state + e, control)
                  - running_cost(spec, state - e, control)) / (2 * h)
            assert gx[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)
        fd = (running_cost(spec, state, control + h)
              - running_cost(spec, state, control - h)) / (2 * h)
        assert gu[0] == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CostSpec(Q=np.array([[1.0, 1.0], [0.0, 1.0]]), R=np.eye(1),
                     Q_T=np.eye(2), x_target=np.zeros(2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            CostSpec(Q=np.diag([1.0, -1.0]), R=np.eye(1), Q_T=np.eye(2),
                     x_target=np.zeros(2))

    @pytest.mark.parametrize("dims", [2, "2", [4], [-1], [2.5], [True],
                                      {0: 1}])
    def test_rejects_bad_angle_dims(self, dims):
        with pytest.raises(ValueError, match="angle_dims"):
            CostSpec(Q=np.eye(4), R=np.eye(1), Q_T=np.eye(4),
                     x_target=np.zeros(4), angle_dims=dims)

    @pytest.mark.parametrize("dims", [[], (0, 3), {np.int64(2)}, [2, 2]])
    def test_accepts_state_indices_as_angle_dims(self, dims):
        spec = CostSpec(Q=np.eye(4), R=np.eye(1), Q_T=np.eye(4),
                        x_target=np.zeros(4), angle_dims=dims)
        assert spec.angle_dims == frozenset(int(i) for i in dims)

    def test_rejects_bad_u_ref_shape(self):
        with pytest.raises(ValueError, match="u_ref"):
            CostSpec(Q=np.eye(2), R=np.eye(1), Q_T=np.eye(2),
                     x_target=np.zeros(2), u_ref=np.zeros((3, 2)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_nonnegativity_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(3, 3))
    q = a @ a.T  # PSD by construction
    spec = CostSpec(Q=q, R=np.eye(2), Q_T=q, x_target=rng.normal(size=3))
    state = rng.normal(scale=5.0, size=3)
    control = rng.normal(scale=5.0, size=2)
    assert running_cost(spec, state, control) >= 0.0
    assert terminal_cost(spec, state) >= 0.0


def test_wrap_angle_interval():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


def einsum_quad_reference(e, W):
    """e' W e as the three-operand einsum that ``_quad`` replaced."""
    return np.einsum("...i,ij,...j->...", e, W, e)


# The diagonal weights of the committed configs (the cart-pole battery and
# the pendulum bench workload) and a random diagonal with a zero entry.
_DIAGONAL_WEIGHTS = [
    [1.25, 1.0, 12.0, 0.25], [12.5, 10.0, 120.0, 2.5], [1e-3],
    [10.0, 0.1], [100.0, 1.0],
    list(np.random.default_rng(7).uniform(0.0, 50.0, size=5)) + [0.0],
]


class TestQuadraticForm:
    """``_quad`` against the einsum form, on batches and single points."""

    @pytest.mark.parametrize("batch", [(), (1,), (500,), (3, 7)])
    @pytest.mark.parametrize("diag", _DIAGONAL_WEIGHTS)
    def test_diagonal_weights_bitwise(self, diag, batch):
        W = np.diag(diag)
        rng = np.random.default_rng(len(batch) + len(diag))
        e = rng.normal(size=batch + (len(diag),)) * 10.0 ** rng.integers(
            -4, 4, size=batch + (len(diag),))
        got = _quad(e, W)
        ref = einsum_quad_reference(e, W)
        assert np.shape(got) == np.shape(ref) == batch
        assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()

    @pytest.mark.parametrize("batch", [(), (1,), (500,), (3, 7)])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_full_symmetric_weights_to_rounding(self, n, batch):
        # Relative to e' |W| e over absolute values, which bounds the
        # rounding of either summation order.
        rng = np.random.default_rng(10 * n + len(batch))
        a = rng.normal(size=(n, n))
        W = a @ a.T + 0.1 * np.eye(n)
        e = rng.normal(scale=3.0, size=batch + (n,))
        got = _quad(e, W)
        ref = einsum_quad_reference(e, W)
        scale = einsum_quad_reference(np.abs(e), np.abs(W))
        assert np.shape(got) == batch
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_error_gives_non_finite_cost(self, bad):
        spec = CostSpec(Q=np.diag([1.25, 1.0, 12.0, 0.25]), R=np.eye(1),
                        Q_T=np.eye(4), x_target=np.zeros(4))
        states = np.random.default_rng(0).normal(size=(6, 4))
        states[2, 1] = bad
        states[4, 3] = bad
        with np.errstate(all="ignore"):
            costs = running_cost(spec, states, np.zeros((6, 1)))
            terminal = terminal_cost(spec, states)
        finite = np.isfinite(states).all(axis=1)
        np.testing.assert_array_equal(np.isfinite(costs), finite)
        np.testing.assert_array_equal(np.isfinite(terminal), finite)
