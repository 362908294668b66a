import copy

import numpy as np
import pytest

from soppi import ControllerConfig, CostSpec, DoubleIntegrator, SvgdConfig, \
    compute_weights, cost_to_go, evaluate_batch, mppi_step, rollout, \
    run_episode, soppi_step, update_nominal
from soppi.sampling import draw_noise, perturb
from soppi import controller as controller_mod
from soppi.controller import _refine_controls
from soppi.harness import DEFAULT_CARTPOLE_CONFIG, parse_config


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
        noise = draw_noise(3, 8, 5, 1, 1.0)
        batch = perturb(np.zeros((5, 1)), noise)
        x0 = np.array([1.0, -0.5])
        costs = evaluate_batch(di, di_cost, x0, batch)
        for k in range(8):
            states = rollout(di, x0, batch.controls[k])
            assert costs[k] == pytest.approx(
                cost_to_go(di_cost, states, batch.controls[k]), rel=1e-12)

    def test_diverged_sample_gets_inf(self, di, di_cost, caplog):
        noise = draw_noise(0, 2, 3, 1, 1e-9)
        batch = perturb(np.zeros((3, 1)), noise)
        controls = batch.controls.copy()
        controls[1, 0, 0] = 1e200  # blows up the quadratic cost
        bad = perturb(np.zeros((3, 1)), noise)
        object.__setattr__(bad, "controls", controls)
        costs = evaluate_batch(di, di_cost, np.zeros(2), bad)
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
        np.testing.assert_allclose(res.u_star,
                                   res.refined_batch.controls[0], rtol=1e-12)

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

        raw = perturb(np.zeros((2, 1)),
                      draw_noise(cfg.seed, 1, 2, 1, 1.0)).controls[0]
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
            res.refined_batch.controls[0, :, 0], expected, rtol=1e-12)

    def test_refined_noise_consistency(self, di, di_cost):
        cfg = ControllerConfig(K=16, horizon=5, lambda_=1.0, sigma=1.0,
                               seed=1,
                               svgd=SvgdConfig(iterations=2, bandwidth=1.0))
        base = np.linspace(0, 1, 5)[:, None]
        res = soppi_step(di, di_cost, cfg, np.ones(2), base)
        batch = res.refined_batch
        np.testing.assert_allclose(batch.base + batch.noises.values,
                                   batch.controls, rtol=1e-12)

    def test_refinement_changes_controls(self, di, di_cost):
        common = dict(K=16, horizon=5, lambda_=1.0, sigma=1.0, seed=1)
        plain = ControllerConfig(svgd=SvgdConfig(iterations=0), **common)
        refined = ControllerConfig(
            svgd=SvgdConfig(iterations=3, bandwidth=1.0), **common)
        x0 = np.array([2.0, 0.0])
        a = soppi_step(di, di_cost, plain, x0, np.zeros((5, 1)))
        b = soppi_step(di, di_cost, refined, x0, np.zeros((5, 1)))
        assert not np.array_equal(a.refined_batch.controls,
                                  b.refined_batch.controls)

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

    def test_mostly_diverged_step_stays_finite(self):
        # The default cart-pole at K=128, sigma=2000, seed 0 diverges most
        # samples during refinement; what is refined must stay finite.
        raw = copy.deepcopy(DEFAULT_CARTPOLE_CONFIG)
        raw["controller"].update(K=128, sigma=2000.0, seed=0)
        c = parse_config(raw)
        U = np.zeros((c.controller.horizon, 1))
        res = soppi_step(c.system, c.cost_spec, c.controller, c.x0, U)
        diverged = np.isinf(res.costs)
        assert diverged.any() and not diverged.all()
        assert np.all(np.isfinite(res.refined_batch.controls))
        assert np.all(np.isfinite(res.u_star))
        np.testing.assert_array_equal(res.weights[diverged], 0.0)

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
        bad = ~np.isfinite(res.refined_batch.controls).all(axis=(1, 2))
        assert bad[0] and not bad.all()
        np.testing.assert_array_equal(res.weights[bad], 0.0)
        assert np.all(np.isfinite(res.refined_batch.noises.values))
        assert np.all(np.isfinite(res.u_star))

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
        refined = _refine_controls(di, di_cost, cfg, x0, controls)
        keep = np.arange(8) != 3
        np.testing.assert_array_equal(refined[3], controls[3])
        np.testing.assert_array_equal(
            refined[keep],
            _refine_controls(di, di_cost, cfg, x0, controls[keep]))


class TestRunEpisode:
    def test_record_shapes_and_time_grid(self, di, di_cost):
        cfg = ControllerConfig(K=16, horizon=6, lambda_=1.0, sigma=1.0)
        rec = run_episode(di, di_cost, cfg, np.array([1.0, 0.0]), "mppi", 10)
        assert rec.states.shape == (11, 2)
        assert rec.controls.shape == (10, 1)
        assert rec.step_wall_times.shape == (10,)
        np.testing.assert_allclose(rec.times, 0.1 * np.arange(11), rtol=1e-12)
        assert np.all(rec.step_wall_times > 0)

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

    def test_terminal_hook_is_used(self, di, di_cost):
        calls = []

        def hook(state):
            calls.append(np.asarray(state).copy())
            return np.array([0.123])

        cfg = ControllerConfig(K=8, horizon=4, lambda_=1.0, sigma=1.0,
                               terminal_init_fn=hook)
        run_episode(di, di_cost, cfg, np.zeros(2), "mppi", 3)
        assert len(calls) == 3
        assert all(c.shape == (2,) for c in calls)


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(K=0)
    with pytest.raises(ValueError):
        ControllerConfig(horizon=0)
    with pytest.raises(ValueError):
        ControllerConfig(lambda_=0.0)
