import copy
import dataclasses

import numpy as np
import pytest

from soppi import CartPole, CartPoleParams, ControllerConfig, CostSpec, \
    DoubleIntegrator, Pendulum, SvgdConfig, compute_weights, \
    evaluate_batch, mppi_step, run_episode, soppi_step, update_nominal
from soppi import cost as cost_mod
from soppi.sampling import draw_noise, perturb
from soppi import controller as controller_mod
from soppi.controller import _lookahead_gradient, _refine_controls
from soppi.harness import DEFAULT_CARTPOLE_CONFIG, parse_config
from soppi.svgd import ParticleSet, stein_direction
from oracles import control_jacobian, cost_to_go, rollout


def unstaged_refine_oracle(system, spec, cfg, x0, controls):
    """The refinement loop before the staged sweep, kept verbatim: every
    sweep steps the states and builds the control Jacobian afresh.  Also
    returns how many rows the sweeps left out for a non-finite gradient."""
    svgd_cfg = cfg.svgd
    K, N, m = controls.shape
    refined = controls.copy()
    x = np.broadcast_to(np.asarray(x0, dtype=float),
                        (K, system.state_dim)).copy()
    masked = 0
    with np.errstate(all="ignore"):
        for t in range(N):
            v = refined[:, t, :].copy()        # contiguous for the sweeps
            for _ in range(svgd_cfg.iterations):
                x_next = system.step_unchecked(x, v)
                d_state, d_control = cost_mod.running_cost_gradients(
                    spec, x_next, v)
                b = control_jacobian(system, x)            # (K, n, m)
                grads = np.einsum("knm,kn->km", b, d_state) + d_control
                ok = np.isfinite(grads).all(axis=1)
                masked += int((~ok).sum())
                phi = stein_direction(ParticleSet(v[ok], grads[ok]), svgd_cfg)
                v[ok] += svgd_cfg.step_size * phi
            refined[:, t, :] = v
            x = system.step_unchecked(x, v)
    return refined, masked


@pytest.fixture
def di_cost():
    return CostSpec(Q=np.eye(2), R=np.array([[0.1]]), Q_T=5 * np.eye(2),
                    x_target=np.zeros(2))


@pytest.fixture
def di():
    return DoubleIntegrator(dt=0.1)


class TestComputeWeights:
    def test_softmax_hand_values(self):
        # exp(0), exp(-1), exp(-2) normalized.
        w = compute_weights(np.array([1.0, 2.0, 3.0]), 1.0)
        np.testing.assert_allclose(w, [0.6652, 0.2447, 0.0900], atol=1e-4)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        w = compute_weights(rng.uniform(0, 100, size=64), 7.0)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(w >= 0)

    def test_uniform_costs_give_uniform_weights(self):
        np.testing.assert_allclose(compute_weights(np.full(5, 3.0), 2.0),
                                   np.full(5, 0.2), rtol=1e-12)

    def test_invariant_to_cost_offset(self):
        costs = np.array([4.0, 9.0, 1.0, 6.0])
        np.testing.assert_allclose(compute_weights(costs, 3.0),
                                   compute_weights(costs + 1e4, 3.0),
                                   rtol=1e-9)

    def test_lower_cost_gets_higher_weight(self):
        w = compute_weights(np.array([1.0, 5.0, 2.0]), 1.0)
        assert w[0] > w[2] > w[1]

    def test_infinite_costs_get_zero_weight(self):
        w = compute_weights(np.array([1.0, np.inf, 2.0]), 1.0)
        assert w[1] == 0.0
        assert w.sum() == pytest.approx(1.0)

    def test_all_infinite_raises(self):
        with pytest.raises(ValueError, match="no viable samples"):
            compute_weights(np.array([np.inf, np.inf]), 1.0)

    def test_huge_cost_spread_stays_finite(self):
        # Baseline subtraction keeps exp() from overflowing.
        w = compute_weights(np.array([1e9, 1e9 + 1.0]), 1e-3)
        assert np.all(np.isfinite(w))
        assert w[0] == pytest.approx(1.0)


class TestEvaluateBatch:
    def test_matches_rollout_cost(self, di, di_cost):
        controls = perturb(np.zeros((5, 1)), draw_noise(3, 8, 5, 1, 1.0))
        x0 = np.array([1.0, -0.5])
        costs = evaluate_batch(di, di_cost, x0, controls)
        for k in range(8):
            states = rollout(di, x0, controls[k])
            assert costs[k] == pytest.approx(
                cost_to_go(di_cost, states, controls[k]), rel=1e-12)

    def test_diverged_sample_gets_inf(self, di, di_cost, caplog):
        controls = perturb(np.zeros((3, 1)), draw_noise(0, 2, 3, 1, 1e-9))
        controls[1, 0, 0] = 1e200  # blows up the quadratic cost
        costs = evaluate_batch(di, di_cost, np.zeros(2), controls)
        assert np.isfinite(costs[0]) and np.isinf(costs[1])


class TestUpdateNominal:
    def test_single_sample_full_weight(self):
        base = np.zeros((3, 1))
        noises = np.ones((1, 3, 1))
        np.testing.assert_array_equal(
            update_nominal(base, noises, np.array([1.0])), np.ones((3, 1)))

    def test_weighted_average(self):
        base = np.full((2, 1), 10.0)
        noises = np.stack([np.zeros((2, 1)), np.ones((2, 1))])
        got = update_nominal(base, noises, np.array([0.25, 0.75]))
        np.testing.assert_allclose(got, 10.75 * np.ones((2, 1)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            update_nominal(np.zeros((2, 1)), np.zeros((3, 4, 1)),
                           np.zeros(3))


class TestMppiStep:
    def test_deterministic(self, di, di_cost):
        cfg = ControllerConfig(K=32, horizon=10, lambda_=1.0, sigma=1.0,
                               seed=5)
        x0 = np.array([1.0, 0.0])
        a = mppi_step(di, di_cost, cfg, x0, np.zeros((10, 1)))
        b = mppi_step(di, di_cost, cfg, x0, np.zeros((10, 1)))
        np.testing.assert_array_equal(a.u_star, b.u_star)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_update_reduces_expected_cost(self, di, di_cost):
        # The weighted update should beat the zero nominal it started from.
        cfg = ControllerConfig(K=256, horizon=15, lambda_=1.0, sigma=1.0,
                               seed=0)
        x0 = np.array([2.0, 0.0])
        res = mppi_step(di, di_cost, cfg, x0, np.zeros((15, 1)))
        base_cost = cost_to_go(di_cost, rollout(di, x0, np.zeros((15, 1))),
                               np.zeros((15, 1)))
        new_cost = cost_to_go(di_cost, rollout(di, x0, res.u_star),
                              res.u_star)
        assert new_cost < base_cost

    def test_k1_returns_the_only_sample(self, di, di_cost):
        cfg = ControllerConfig(K=1, horizon=4, lambda_=1.0, sigma=1.0, seed=9)
        res = mppi_step(di, di_cost, cfg, np.zeros(2), np.zeros((4, 1)))
        np.testing.assert_allclose(res.u_star, res.controls[0], rtol=1e-12)

    def test_applied_is_first_nominal(self, di, di_cost):
        cfg = ControllerConfig(K=16, horizon=6, lambda_=1.0, sigma=1.0)
        res = mppi_step(di, di_cost, cfg, np.ones(2), np.zeros((6, 1)))
        np.testing.assert_array_equal(res.applied, res.u_star[0])


class TestSoppiStep:
    def test_zero_iterations_matches_mppi_bitwise(self, di, di_cost):
        cfg = ControllerConfig(K=64, horizon=8, lambda_=1.0, sigma=1.0,
                               seed=2, svgd=SvgdConfig(iterations=0))
        x0 = np.array([1.5, -1.0])
        a = mppi_step(di, di_cost, cfg, x0, np.zeros((8, 1)))
        b = soppi_step(di, di_cost, cfg, x0, np.zeros((8, 1)))
        np.testing.assert_array_equal(a.u_star, b.u_star)
        np.testing.assert_array_equal(a.costs, b.costs)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_single_particle_refinement_oracle(self, di, di_cost):
        # K=1 collapses the kernel sum: one sweep is plain gradient descent
        # on the single-step cost through the one-step lookahead.
        step = 0.05
        cfg = ControllerConfig(
            K=1, horizon=2, lambda_=1.0, sigma=1.0, seed=4,
            svgd=SvgdConfig(iterations=1, step_size=step, bandwidth=1.0,
                            alpha=1.0))
        x0 = np.array([1.0, 0.5])
        res = soppi_step(di, di_cost, cfg, x0, np.zeros((2, 1)))

        raw = perturb(np.zeros((2, 1)), draw_noise(cfg.seed, 1, 2, 1, 1.0))[0]
        dt = di.dt
        b_col = np.array([dt * dt, dt])  # d x_next / d u for this system
        x, expected = x0.copy(), []
        for t in range(2):
            v = raw[t, 0]
            x_next = di.step(x, np.array([v]))
            grad = b_col @ (2.0 * di_cost.Q @ x_next) + 2.0 * 0.1 * v
            v = v - step * grad
            expected.append(v)
            x = di.step(x, np.array([v]))
        np.testing.assert_allclose(
            res.controls[0, :, 0], expected, rtol=1e-12)

    def test_refined_noise_consistency(self, di, di_cost):
        cfg = ControllerConfig(K=16, horizon=5, lambda_=1.0, sigma=1.0,
                               seed=1,
                               svgd=SvgdConfig(iterations=2, bandwidth=1.0))
        base = np.linspace(0, 1, 5)[:, None]
        res = soppi_step(di, di_cost, cfg, np.ones(2), base)
        np.testing.assert_array_equal(
            res.u_star, update_nominal(base, res.controls - base, res.weights))

    def test_refinement_changes_controls(self, di, di_cost):
        common = dict(K=16, horizon=5, lambda_=1.0, sigma=1.0, seed=1)
        plain = ControllerConfig(svgd=SvgdConfig(iterations=0), **common)
        refined = ControllerConfig(
            svgd=SvgdConfig(iterations=3, bandwidth=1.0), **common)
        x0 = np.array([2.0, 0.0])
        a = soppi_step(di, di_cost, plain, x0, np.zeros((5, 1)))
        b = soppi_step(di, di_cost, refined, x0, np.zeros((5, 1)))
        assert not np.array_equal(a.controls, b.controls)

    @pytest.mark.parametrize("seed", range(5))
    def test_diverged_samples_get_infinite_cost_not_an_error(
            self, cartpole, cartpole_cost, seed):
        # sigma=5000 throws some cart-pole rollouts out of the finite range;
        # SOPPI must carry on as MPPI does, and leak no RuntimeWarning.
        cfg = ControllerConfig(
            K=64, horizon=80, lambda_=1.0, sigma=5000.0, seed=seed,
            svgd=SvgdConfig(iterations=5, step_size=0.2, bandwidth=5.0,
                            alpha=10.0))
        x0 = np.array([0.0, 0.0, np.pi, 0.0])
        U = np.zeros((80, 1))
        plain = mppi_step(cartpole, cartpole_cost, cfg, x0, U)
        assert np.isinf(plain.costs).any()
        res = soppi_step(cartpole, cartpole_cost, cfg, x0, U)
        diverged = np.isinf(res.costs)
        assert diverged.any() and not diverged.all()
        np.testing.assert_array_equal(res.weights[diverged], 0.0)
        assert np.all(np.isfinite(res.u_star))
        assert res.costs.tobytes() == evaluate_batch(
            cartpole, cartpole_cost, x0, res.controls).tobytes()

    def test_mostly_diverged_step_stays_finite(self):
        # The default cart-pole at K=128, sigma=2000, seed 0 diverges most
        # samples during refinement; what is refined must stay finite.
        raw = copy.deepcopy(DEFAULT_CARTPOLE_CONFIG)
        raw["controller"].update(K=128, sigma=2000.0)
        c = parse_config(raw)
        U = np.zeros((c.controller.horizon, 1))
        res = soppi_step(c.system, c.cost_spec, c.controller, c.x0, U)
        diverged = np.isinf(res.costs)
        assert diverged.any() and not diverged.all()
        assert np.all(np.isfinite(res.controls))
        assert np.all(np.isfinite(res.u_star))
        np.testing.assert_array_equal(res.weights[diverged], 0.0)
        assert res.costs.tobytes() == evaluate_batch(
            c.system, c.cost_spec, c.x0, res.controls).tobytes()

    def test_nonfinite_refined_control_gets_zero_weight_and_noise(
            self, di, di_cost, monkeypatch):
        # A Stein step that sends the first particle of every set to inf:
        # those samples drop out of the update instead of making u_star NaN
        # through 0 * inf.
        def push_first_to_inf(particles, svgd_cfg):
            phi = np.zeros_like(particles.particles)
            phi[0] = np.inf
            return phi
        monkeypatch.setattr(controller_mod, "stein_direction",
                            push_first_to_inf)
        cfg = ControllerConfig(K=8, horizon=4, lambda_=1.0, sigma=1.0,
                               seed=5, svgd=SvgdConfig(iterations=1))
        res = soppi_step(di, di_cost, cfg, np.array([1.0, 0.0]),
                         np.zeros((4, 1)))
        bad = ~np.isfinite(res.controls).all(axis=(1, 2))
        assert bad[0] and not bad.all()
        np.testing.assert_array_equal(res.weights[bad], 0.0)
        assert np.all(np.isfinite(res.u_star))
        np.testing.assert_array_equal(
            res.u_star, update_nominal(np.zeros((4, 1)),
                                       np.where(bad[:, None, None], 0.0,
                                                res.controls), res.weights))

    def test_nonfinite_gradient_rows_stay_put(self, di, di_cost):
        # An infinite control makes sample 3's gradient non-finite at every
        # step: it keeps its controls, and the others refine exactly as if
        # it were absent.
        cfg = ControllerConfig(
            K=8, horizon=4, lambda_=1.0, sigma=1.0,
            svgd=SvgdConfig(iterations=2, bandwidth=1.0))
        controls = np.random.default_rng(0).normal(size=(8, 4, 1))
        controls[3, 0, 0] = np.inf
        x0 = np.array([1.0, 0.0])
        refined, _ = _refine_controls(di, di_cost, cfg, x0, controls, 2)
        keep = np.arange(8) != 3
        np.testing.assert_array_equal(refined[3], controls[3])
        np.testing.assert_array_equal(
            refined[keep],
            _refine_controls(di, di_cost, cfg, x0, controls[keep], 2)[0])


_CARTPOLE_Q = np.diag([1.25, 1.0, 12.0, 0.25])
# Besides the defaults, a cart-pole and a pendulum whose parameters move
# every prepared constant, and a cart-pole started off rest.
_HEAVY_POLE = CartPole(CartPoleParams(cart_mass=0.7, pole_mass=0.4,
                                      pole_half_length=0.8, gravity=9.81,
                                      dt=0.01))
_LONG_PENDULUM = Pendulum(mass=0.4, length=1.5, gravity=9.81, dt=0.05)
_STAGED_CASES = {
    "cartpole": (CartPole(), np.array([0.0, 0.0, np.pi, 0.0])),
    "cartpole_heavy_pole": (_HEAVY_POLE, np.array([0.0, 0.0, np.pi, 0.0])),
    "cartpole_swinging": (CartPole(), np.array([0.1, 0.4, 2.5, -0.3])),
    "pendulum": (Pendulum(), np.array([0.3, -0.2])),
    "pendulum_long": (_LONG_PENDULUM, np.array([0.3, -0.2])),
    "double_integrator": (DoubleIntegrator(0.05), np.array([1.0, -0.5])),
}


def _staged_spec(system):
    n = system.state_dim
    q = _CARTPOLE_Q if n == 4 else np.eye(n)
    return CostSpec(Q=q, R=np.array([[1e-3]]), Q_T=10 * q,
                    x_target=np.zeros(n), angle_dims={2} if n == 4 else {0})


_LOOKAHEAD_SYSTEMS = {
    "cartpole": CartPole(),
    "cartpole_heavy_pole": _HEAVY_POLE,
    "pendulum": Pendulum(),
    "pendulum_long": _LONG_PENDULUM,
    "double_integrator": DoubleIntegrator(0.05),
}


class TestLookaheadGradient:
    """The affine lookahead's gradient against the chain rule:
    ``running_cost_gradients`` at ``step_unchecked``, times the oracle
    ``control_jacobian``."""

    # Entrywise, relative to the largest gradient entry: a thousand times
    # the largest gap seen (1.5e-16).
    TOL = 1e-13

    @staticmethod
    def _inputs(system, K=400, seed=5):
        rng = np.random.default_rng(seed)
        n = system.state_dim
        # Non-diagonal symmetric weights and a target off zero.
        a = rng.normal(size=(n, n))
        q = a @ a.T + np.eye(n)
        angle = {CartPole: 2, Pendulum: 0}.get(type(system))
        spec = CostSpec(Q=q, R=np.array([[0.3]]), Q_T=q,
                        x_target=rng.normal(scale=0.1, size=n),
                        angle_dims=set() if angle is None else {angle})
        x = rng.normal(size=(K, n))
        if angle is not None:
            # Near the wrap on both sides of +pi and -pi, and exactly on it.
            near = np.pi + spec.x_target[angle] + rng.normal(scale=0.05,
                                                             size=K)
            x[:, angle] = np.where(np.arange(K) % 2, near, -near)
            x[:10, angle] = np.pi
            x[10:20, angle] = -np.pi
        v = rng.normal(scale=6.0, size=(K, 1))
        return spec, x, v, angle

    @pytest.mark.parametrize("name", sorted(_LOOKAHEAD_SYSTEMS))
    def test_matches_chain_rule(self, name):
        system = _LOOKAHEAD_SYSTEMS[name]
        spec, x, v, angle = self._inputs(system)
        d_state, d_control = cost_mod.running_cost_gradients(
            spec, system.step_unchecked(x, v), v)
        expected = np.einsum("knm,kn->km", control_jacobian(system, x),
                             d_state) + d_control
        got = _lookahead_gradient(system, spec, x)(v)
        np.testing.assert_allclose(got, expected, rtol=0.0,
                                   atol=self.TOL * np.abs(expected).max())
        if angle is not None:
            # The inputs exercise both branches of the wrap.
            err = system.step_unchecked(x, v)[:, angle] - \
                spec.x_target[angle]
            wrapped = cost_mod.wrap_angle(err) != err
            assert wrapped.any() and not wrapped.all()


class TestStagedRefinement:
    """The staged sweep with the affine lookahead matches stepping afresh in
    every sweep to rounding, with the same rows masked."""

    # Entrywise, relative to max(|x|, 1): about a hundred times the largest
    # gap seen on this grid (1.1e-15).
    TOL = 1e-13

    @pytest.mark.parametrize("sigma", [5.0, 5000.0])
    @pytest.mark.parametrize("bandwidth", [5.0, "median"])
    @pytest.mark.parametrize("name", sorted(_STAGED_CASES))
    def test_matches_unstaged_loop(self, name, bandwidth, sigma,
                                   monkeypatch):
        system, x0 = _STAGED_CASES[name]
        spec = _staged_spec(system)
        K, N = 128, 12
        cfg = ControllerConfig(
            K=K, horizon=N, lambda_=1.0, sigma=sigma, seed=3,
            svgd=SvgdConfig(iterations=5, step_size=0.2, bandwidth=bandwidth,
                            alpha=10.0))
        controls = perturb(np.zeros((N, 1)),
                           draw_noise(cfg.seed, K, N, 1, sigma))
        if sigma > 100:
            # Diverged rows: an infinite control, and one beyond the float
            # range after a step, so some sweeps mask rows.
            controls[5, 0, 0] = np.inf
            controls[9, 2, 0] = 1e300
        expected, masked = unstaged_refine_oracle(system, spec, cfg, x0,
                                                  controls)
        assert (masked > 0) == (sigma > 100)
        rows = []

        def spy(pset, svgd_cfg):
            rows.append(pset.particles.shape[0])
            return stein_direction(pset, svgd_cfg)

        monkeypatch.setattr(controller_mod, "stein_direction", spy)
        got, costs = _refine_controls(system, spec, cfg, x0, controls, 5)
        assert sum(K - r for r in rows) == masked
        np.testing.assert_array_equal(np.isfinite(got),
                                      np.isfinite(expected))
        np.testing.assert_allclose(got, expected, rtol=self.TOL,
                                   atol=self.TOL)
        assert costs.tobytes() == \
            evaluate_batch(system, spec, x0, got).tobytes()
        assert np.isinf(costs).any() == (sigma > 100)

    @pytest.mark.parametrize("sweeps", [1, 5])
    @pytest.mark.parametrize("name", sorted(_STAGED_CASES))
    def test_lookahead_is_built_once_per_horizon_step(self, name, sweeps,
                                                      monkeypatch):
        # Per horizon step: one linearization and two Euler steps (the
        # linearization's complex-step probe and the refined step), whatever
        # the sweep count; the sweeps never call the cost gradient.
        system, x0 = _STAGED_CASES[name]
        calls = {"_linearize": 0, "_advance": 0}
        for attr in calls:
            def counted(*args, _fn=getattr(system, attr), _attr=attr):
                calls[_attr] += 1
                return _fn(*args)
            monkeypatch.setattr(system, attr, counted)

        def no_gradients(*args, **kwargs):
            raise AssertionError("running_cost_gradients called")

        monkeypatch.setattr(cost_mod, "running_cost_gradients", no_gradients)
        N = 7
        cfg = ControllerConfig(
            K=32, horizon=N, lambda_=1.0, sigma=5.0, seed=4,
            svgd=SvgdConfig(iterations=sweeps, step_size=0.2,
                            bandwidth="median", alpha=10.0))
        controls = perturb(np.zeros((N, 1)), draw_noise(cfg.seed, 32, N, 1,
                                                        5.0))
        _refine_controls(system, _staged_spec(system), cfg, x0, controls,
                         sweeps)
        assert calls == {"_linearize": N, "_advance": 2 * N}

    @pytest.mark.parametrize("sigma", [5.0, 1e5])
    @pytest.mark.parametrize("name", sorted(_STAGED_CASES))
    def test_soppi_step_costs_match_evaluate_batch(self, name, sigma):
        # soppi_step weights the costs the refinement accumulated; they are
        # those of a fresh rollout of the refined batch, bit for bit.  At
        # sigma=1e5 every cart-pole sample diverges; the tests of partly
        # diverged steps check the same equality.
        system, x0 = _STAGED_CASES[name]
        spec = _staged_spec(system)
        cfg = ControllerConfig(
            K=64, horizon=30, lambda_=1.0, sigma=sigma, seed=2,
            svgd=SvgdConfig(iterations=5, step_size=0.2, bandwidth="median",
                            alpha=10.0))
        res = soppi_step(system, spec, cfg, x0, np.zeros((30, 1)))
        assert res.costs.tobytes() == evaluate_batch(
            system, spec, x0, res.controls).tobytes()


class TestSingleRollout:
    """MPPI's rollout is the SOPPI loop with zero sweeps."""

    @pytest.mark.parametrize("sigma", [5.0, 1e5])
    @pytest.mark.parametrize("name", sorted(_STAGED_CASES))
    def test_zero_sweeps_copy_nothing_and_build_no_lookahead(
            self, name, sigma, monkeypatch):
        system, x0 = _STAGED_CASES[name]
        spec = _staged_spec(system)
        cfg = ControllerConfig(K=64, horizon=30, lambda_=1.0, sigma=sigma,
                               seed=2)
        controls = perturb(np.zeros((30, 1)),
                           draw_noise(cfg.seed, 64, 30, 1, sigma))
        before = controls.copy()

        def fail(*args, **kwargs):
            raise AssertionError("a zero-sweep rollout refined its controls")

        monkeypatch.setattr(controller_mod, "_lookahead_gradient", fail)
        monkeypatch.setattr(controller_mod, "stein_direction", fail)
        got, costs = _refine_controls(system, spec, cfg, x0, controls, 0)
        assert got is controls
        assert controls.tobytes() == before.tobytes()
        assert costs.tobytes() == \
            evaluate_batch(system, spec, x0, controls).tobytes()


class TestCopyFreeSweep:
    """An all-finite sweep hands the Stein kernel views of the controls."""

    @staticmethod
    def _spy_sweeps(monkeypatch, sigma):
        # TestStagedRefinement's cart-pole inputs; at sigma=5000 two rows
        # diverge, and the sweeps mask them out.
        system, x0 = _STAGED_CASES["cartpole"]
        spec = _staged_spec(system)
        K, N, sweeps = 128, 12, 5
        cfg = ControllerConfig(
            K=K, horizon=N, lambda_=1.0, sigma=sigma, seed=3,
            svgd=SvgdConfig(iterations=sweeps, step_size=0.2,
                            bandwidth="median", alpha=10.0))
        controls = perturb(np.zeros((N, 1)),
                           draw_noise(cfg.seed, K, N, 1, sigma))
        if sigma > 100:
            controls[5, 0, 0] = np.inf
            controls[9, 2, 0] = 1e300
        seen = []

        def spy(pset, svgd_cfg):
            seen.append((pset.particles.shape[0],
                         pset.particles.flags.owndata,
                         pset.grads.flags.owndata))
            return stein_direction(pset, svgd_cfg)

        with monkeypatch.context() as patch:
            patch.setattr(controller_mod, "stein_direction", spy)
            _refine_controls(system, spec, cfg, x0, controls, sweeps)
        _, masked = unstaged_refine_oracle(system, spec, cfg, x0, controls)
        assert len(seen) == N * sweeps
        return K, seen, masked

    def test_all_finite_sweeps_pass_views(self, monkeypatch):
        K, seen, masked = self._spy_sweeps(monkeypatch, 5.0)
        assert masked == 0
        assert all(rows == K and not own_p and not own_g
                   for rows, own_p, own_g in seen)

    def test_masked_sweeps_pass_fewer_rows(self, monkeypatch):
        K, seen, masked = self._spy_sweeps(monkeypatch, 5000.0)
        short = [rows for rows, _, _ in seen if rows < K]
        assert short and sum(K - rows for rows in short) == masked
        # Only a masked sweep copies its Stein set.
        assert all(own_p == (rows < K) for rows, own_p, _ in seen)


class TestAllSamplesDiverged:
    """A step whose every sample diverges keeps the shifted nominal."""

    @staticmethod
    def _config(sigma, seed):
        raw = copy.deepcopy(DEFAULT_CARTPOLE_CONFIG)
        raw["controller"].update(K=64, horizon=30, sigma=sigma)
        raw["svgd"].update(bandwidth="median")
        c = parse_config(raw)
        c.controller = dataclasses.replace(c.controller, seed=seed)
        return c

    @pytest.mark.parametrize("algo,sigma,seed", [
        ("soppi", 5000.0, 0), ("soppi", 5000.0, 1), ("soppi", 5000.0, 2),
        ("mppi", 1e5, 1), ("mppi", 1e5, 2)])
    def test_step_keeps_the_nominal(self, algo, sigma, seed):
        # Each of these raised "no viable samples" before the fallback.
        c = self._config(sigma, seed)
        U = np.zeros((30, 1))
        res = controller_mod._STEPPERS[algo](c.system, c.cost_spec,
                                             c.controller, c.x0, U)
        assert np.isinf(res.costs).all()
        np.testing.assert_array_equal(res.weights, 0.0)
        np.testing.assert_array_equal(res.u_star, U)
        np.testing.assert_array_equal(res.applied, U[0])

    @pytest.mark.parametrize("algo", ["mppi", "soppi"])
    def test_returns_the_base_not_zeros(self, di, di_cost, algo):
        # An infinite start state diverges every sample on both paths.
        cfg = ControllerConfig(K=8, horizon=5, lambda_=1.0, sigma=1.0,
                               svgd=SvgdConfig(iterations=1, bandwidth=1.0))
        U = np.linspace(-1.0, 1.0, 5)[:, None]
        res = controller_mod._STEPPERS[algo](di, di_cost, cfg,
                                             np.array([np.inf, 0.0]), U)
        assert np.isinf(res.costs).all()
        np.testing.assert_array_equal(res.u_star, U)
        assert res.u_star is not U
        np.testing.assert_array_equal(res.weights, np.zeros(8))

    def test_episode_continues(self):
        c = self._config(5000.0, 0)
        rec = run_episode(c.system, c.cost_spec, c.controller, c.x0,
                          "soppi", 3)
        assert rec.controls.shape == (3, 1)
        assert np.all(np.isfinite(rec.states))


class TestDivergenceGrid:
    """Both steppers survive the cart-pole's divergent regime: no exception,
    a finite nominal, and weights that sum to one or are all zero.  SOPPI
    may diverge more samples than MPPI here (K=64, sigma=5000: all 64
    against 1-3), so the diverged counts are not compared."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("sigma", [5.0, 2000.0, 5000.0, 1e5])
    @pytest.mark.parametrize("K", [16, 64])
    def test_steps_stay_finite(self, K, sigma, seed):
        raw = copy.deepcopy(DEFAULT_CARTPOLE_CONFIG)
        raw["controller"].update(K=K, horizon=30, sigma=sigma)
        raw["svgd"].update(bandwidth="median")
        c = parse_config(raw)
        c.controller = dataclasses.replace(c.controller, seed=seed)
        U = np.zeros((30, 1))
        for algo, stepper in controller_mod._STEPPERS.items():
            res = stepper(c.system, c.cost_spec, c.controller, c.x0, U)
            assert np.all(np.isfinite(res.u_star)), algo
            w = res.weights
            assert (w == 0.0).all() or w.sum() == pytest.approx(1.0), algo


class TestRunEpisode:
    def test_record_shapes_and_time_grid(self, di, di_cost):
        cfg = ControllerConfig(K=16, horizon=6, lambda_=1.0, sigma=1.0)
        rec = run_episode(di, di_cost, cfg, np.array([1.0, 0.0]), "mppi", 10)
        assert rec.states.shape == (11, 2)
        assert rec.controls.shape == (10, 1)
        np.testing.assert_allclose(rec.times, 0.1 * np.arange(11), rtol=1e-12)

    def test_deterministic(self, di, di_cost):
        cfg = ControllerConfig(K=16, horizon=6, lambda_=1.0, sigma=1.0,
                               seed=3)
        a = run_episode(di, di_cost, cfg, np.ones(2), "mppi", 8)
        b = run_episode(di, di_cost, cfg, np.ones(2), "mppi", 8)
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.controls, b.controls)

    def test_regulates_double_integrator(self, di, di_cost):
        cfg = ControllerConfig(K=128, horizon=20, lambda_=1.0, sigma=2.0,
                               seed=0)
        rec = run_episode(di, di_cost, cfg, np.array([2.0, 0.0]), "mppi", 60)
        assert abs(rec.states[-1, 0]) < 0.2
        assert abs(rec.states[-1, 1]) < 0.2

    def test_episode_replans_each_step(self, di, di_cost):
        # Per-step seeds must differ, so consecutive applied controls from
        # an identical state would not be identical replays.
        cfg = ControllerConfig(K=16, horizon=6, lambda_=1.0, sigma=1.0,
                               seed=0)
        rec = run_episode(di, di_cost, cfg, np.zeros(2), "mppi", 5)
        assert len(np.unique(rec.controls)) > 1

    def test_unknown_algorithm(self, di, di_cost):
        cfg = ControllerConfig(K=4, horizon=4, lambda_=1.0, sigma=1.0)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_episode(di, di_cost, cfg, np.zeros(2), "cem", 3)


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(K=0)
    with pytest.raises(ValueError):
        ControllerConfig(horizon=0)
    with pytest.raises(ValueError):
        ControllerConfig(lambda_=0.0)
