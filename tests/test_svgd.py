import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soppi import ParticleSet, SvgdConfig, apply_update, kernel, \
    kernel_grad_wrt_first, median_bandwidth, stein_direction


def naive_stein_reference(particles, grads, sigma_k, alpha,
                          use_squared_norm=True):
    """Direct double-loop transcription of the update direction."""
    K, m = particles.shape
    out = np.zeros((K, m))
    for i in range(K):
        for j in range(K):
            k = kernel(particles[j], particles[i], sigma_k, use_squared_norm)
            kg = kernel_grad_wrt_first(particles[j], particles[i], sigma_k,
                                       use_squared_norm)
            out[i] += k * (-alpha * grads[j]) + kg
    return out / K


class TestKernel:
    def test_self_kernel_is_one(self):
        v = np.array([1.0, -2.0, 3.0])
        assert kernel(v, v, 0.7) == 1.0

    def test_symmetry(self):
        a, b = np.array([1.0, 2.0]), np.array([-0.5, 0.3])
        assert kernel(a, b, 1.3) == kernel(b, a, 1.3)

    def test_hand_value_squared_mode(self):
        # 1-D, a=0, b=2, sigma=1: exp(-4/2) = exp(-2)
        got = kernel(np.array([0.0]), np.array([2.0]), 1.0)
        assert got == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_unsquared_mode(self):
        got = kernel(np.array([0.0]), np.array([2.0]), 1.0,
                     use_squared_norm=False)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 3))
            v = kernel(a, b, 0.5)
            assert 0.0 < v <= 1.0

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            kernel(np.zeros(2), np.zeros(2), 0.0)


class TestKernelGradient:
    def test_zero_at_coincident_points(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(kernel_grad_wrt_first(v, v, 1.0),
                                      np.zeros(2))

    def test_closed_form_1d(self):
        # -(a-b)/sigma^2 * k = 2*exp(-2) at a=0, b=2, sigma=1
        got = kernel_grad_wrt_first(np.array([0.0]), np.array([2.0]), 1.0)
        assert got[0] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("squared", [True, False])
    def test_matches_finite_differences(self, seed, squared):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        sigma_k = rng.uniform(0.5, 2.0)
        grad = kernel_grad_wrt_first(a, b, sigma_k, squared)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (kernel(a + e, b, sigma_k, squared)
                  - kernel(a - e, b, sigma_k, squared)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_unsquared_coincident_warns_and_returns_zero(self, caplog):
        v = np.array([1.0])
        with caplog.at_level(logging.WARNING, logger="soppi.svgd"):
            got = kernel_grad_wrt_first(v, v, 1.0, use_squared_norm=False)
        np.testing.assert_array_equal(got, np.zeros(1))
        assert any("coincident" in r.message for r in caplog.records)


class TestSteinDirection:
    def test_single_particle_zero_gradient(self):
        pset = ParticleSet(np.array([[0.3]]), np.zeros((1, 1)))
        out = stein_direction(pset, SvgdConfig(bandwidth=1.0))
        np.testing.assert_array_equal(out, np.zeros((1, 1)))

    def test_coincident_particles_zero_gradients(self):
        pset = ParticleSet(np.full((5, 2), 1.5), np.zeros((5, 2)))
        out = stein_direction(pset, SvgdConfig(bandwidth=1.0))
        np.testing.assert_allclose(out, np.zeros((5, 2)), atol=1e-15)

    def test_two_particle_repulsion_oracle(self):
        # K=2, 1-D at {0, 1}, zero gradients, sigma=1: equal and opposite
        # repulsion of magnitude (1/2) e^{-1/2}.
        pset = ParticleSet(np.array([[0.0], [1.0]]), np.zeros((2, 1)))
        out = stein_direction(pset, SvgdConfig(bandwidth=1.0))
        mag = 0.5 * math.exp(-0.5)
        assert out[0, 0] == pytest.approx(-mag, abs=1e-12)
        assert out[1, 0] == pytest.approx(mag, abs=1e-12)

    def test_single_particle_is_scaled_gradient_descent(self):
        grad = np.array([[2.0, -3.0]])
        pset = ParticleSet(np.array([[0.0, 0.0]]), grad)
        cfg = SvgdConfig(bandwidth=1.0, alpha=1.7)
        np.testing.assert_allclose(stein_direction(pset, cfg),
                                   -1.7 * grad, rtol=1e-12)

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_naive_reference(self, m):
        rng = np.random.default_rng(4)
        p = rng.normal(size=(6, m))
        g = rng.normal(size=(6, m))
        cfg = SvgdConfig(bandwidth=0.8, alpha=2.0)
        got = stein_direction(ParticleSet(p, g), cfg)
        np.testing.assert_allclose(
            got, naive_stein_reference(p, g, 0.8, 2.0), rtol=1e-10,
            atol=1e-12)

    def test_fast_1d_path_agrees_with_general(self):
        rng = np.random.default_rng(7)
        p = rng.normal(size=(200, 1))
        g = rng.normal(size=(200, 1))
        cfg = SvgdConfig(bandwidth=1.2, alpha=1.5)
        from soppi.svgd import _direction_general
        fast = stein_direction(ParticleSet(p, g), cfg)
        general = _direction_general(p, g, 1.2, 1.5, True)
        np.testing.assert_allclose(fast, general, rtol=1e-12, atol=1e-14)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        p = rng.normal(size=(8, 2))
        g = rng.normal(size=(8, 2))
        cfg = SvgdConfig(bandwidth=1.0)
        out = stein_direction(ParticleSet(p, g), cfg)
        perm = rng.permutation(8)
        out_perm = stein_direction(ParticleSet(p[perm], g[perm]), cfg)
        np.testing.assert_allclose(out_perm, out[perm], rtol=1e-10,
                                   atol=1e-12)

    def test_pure_repulsion_sums_to_zero_1d(self):
        # alpha -> 0 limit realized with zero gradients: kernel-gradient
        # antisymmetry makes total displacement vanish.
        rng = np.random.default_rng(9)
        p = rng.normal(size=(20, 1))
        out = stein_direction(ParticleSet(p, np.zeros((20, 1))),
                              SvgdConfig(bandwidth=1.0))
        assert out.sum() == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_gradient_names_sample(self):
        g = np.zeros((3, 1))
        g[2, 0] = np.nan
        with pytest.raises(ValueError, match="sample index 2"):
            stein_direction(ParticleSet(np.zeros((3, 1)), g),
                            SvgdConfig(bandwidth=1.0))

    def test_grad_clip_limits_norm(self):
        p = np.array([[0.0], [0.1]])
        g = np.array([[100.0], [100.0]])
        cfg = SvgdConfig(bandwidth=1.0, alpha=1.0, grad_clip=0.5)
        out = stein_direction(ParticleSet(p, g), cfg)
        assert np.all(np.linalg.norm(out, axis=1) <= 0.5 + 1e-12)


class TestApplyUpdate:
    def test_zero_direction_unchanged(self):
        pset = ParticleSet(np.array([[1.0], [2.0]]))
        out = apply_update(pset, np.zeros((2, 1)), 0.05)
        np.testing.assert_array_equal(out.particles, pset.particles)

    def test_unit_direction_shifts_by_step(self):
        pset = ParticleSet(np.zeros((3, 2)))
        out = apply_update(pset, np.ones((3, 2)), 0.05)
        np.testing.assert_allclose(out.particles, 0.05 * np.ones((3, 2)))

    def test_composition_linearity(self):
        rng = np.random.default_rng(1)
        pset = ParticleSet(rng.normal(size=(4, 1)))
        d1 = rng.normal(size=(4, 1))
        d2 = rng.normal(size=(4, 1))
        twice = apply_update(apply_update(pset, d1, 0.1), d2, 0.1)
        once = apply_update(pset, d1 + d2, 0.1)
        np.testing.assert_allclose(twice.particles, once.particles,
                                   rtol=1e-12)

    def test_input_not_modified(self):
        p = np.ones((2, 1))
        pset = ParticleSet(p.copy())
        apply_update(pset, np.ones((2, 1)), 1.0)
        np.testing.assert_array_equal(pset.particles, p)


class TestRepulsionProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(0.5, 2.0))
    def test_distinct_particles_move_apart(self, gap, sigma_k):
        # Squared-norm mode, zero cost gradients, step < sigma^2.
        p = np.array([[0.0], [gap]])
        cfg = SvgdConfig(bandwidth=sigma_k, step_size=0.4 * sigma_k ** 2,
                         iterations=1)
        direction = stein_direction(ParticleSet(p, np.zeros((2, 1))), cfg)
        moved = apply_update(ParticleSet(p), direction, cfg.step_size)
        assert moved.particles[1, 0] - moved.particles[0, 0] > gap


def _median_bandwidth_reference(p):
    """The definition: np.median over the upper triangle of pair d^2."""
    K = p.shape[0]
    d2 = [np.sum((p[i] - p[j]) ** 2)
          for i in range(K) for j in range(i + 1, K)]
    med = float(np.median(d2))
    return 1.0 if med <= 0.0 else math.sqrt(med / (2.0 * math.log(K)))


def test_median_bandwidth_matches_definition():
    # K = 2, 3 give odd pair counts, K = 4, 5, 64, 128 even ones.
    rng = np.random.default_rng(0)
    for K, m in itertools.product([2, 3, 4, 5, 64, 128], [1, 2, 3]):
        cases = {
            "normal": rng.normal(size=(K, m)),
            "coincident": np.repeat(rng.normal(size=((K + 1) // 2, m)),
                                    2, axis=0)[:K],
            "integer": rng.integers(-2, 3, size=(K, m)).astype(float),
        }
        for name, p in cases.items():
            assert median_bandwidth(p) == _median_bandwidth_reference(p), \
                (K, m, name)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("K", [2, 5, 64])
def test_median_bandwidth_non_finite_particle_gives_nan(K, bad):
    p = np.random.default_rng(K).normal(size=(K, 2))
    p[K // 2, 1] = bad
    assert math.isnan(median_bandwidth(p))


def test_median_bandwidth_degenerate_cases():
    assert median_bandwidth(np.zeros((1, 2))) == 1.0
    assert median_bandwidth(np.zeros((5, 2))) == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        SvgdConfig(iterations=-1)
    with pytest.raises(ValueError):
        SvgdConfig(iterations=1, step_size=0.0)
    with pytest.raises(ValueError):
        SvgdConfig(bandwidth="geometric")
    with pytest.raises(ValueError):
        SvgdConfig(bandwidth=-1.0)
    with pytest.raises(ValueError):
        SvgdConfig(alpha=0.0)
