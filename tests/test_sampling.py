import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soppi import draw_noise, perturb
from soppi.sampling import derive_step_seed


class TestDrawNoise:
    def test_same_seed_is_bit_identical(self):
        a = draw_noise(1234, 16, 8, 2, 1.5)
        b = draw_noise(1234, 16, 8, 2, 1.5)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = draw_noise(1, 8, 4, 1, 1.0)
        b = draw_noise(2, 8, 4, 1, 1.0)
        assert not np.array_equal(a, b)

    def test_entry_depends_only_on_indices(self):
        # Growing K or N must not change previously generated entries:
        # generation is counter-based per (seed, k, t, j).
        small = draw_noise(7, 4, 3, 2, 1.0)
        big = draw_noise(7, 9, 5, 2, 1.0)
        np.testing.assert_array_equal(big[:4, :3, :], small)

    def test_tiny_sigma_gives_tiny_noise(self):
        values = draw_noise(0, 100, 10, 1, 1e-12)
        assert np.abs(values).max() < 1e-9

    def test_moments_converge(self):
        # Law of large numbers at K=100000, sigma=2.
        values = draw_noise(99, 100000, 1, 1, 2.0).ravel()
        assert abs(values.mean()) < 3 * 2.0 / np.sqrt(100000)
        assert abs(values.std() - 2.0) < 0.04

    def test_per_dimension_sigma(self):
        values = draw_noise(5, 50000, 1, 2, [1.0, 10.0])
        assert abs(values[:, 0, 0].std() - 1.0) < 0.05
        assert abs(values[:, 0, 1].std() - 10.0) < 0.5

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            draw_noise(0, 4, 4, 1, sigma)

    @pytest.mark.parametrize("k,n,m", [(0, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_empty_shapes(self, k, n, m):
        with pytest.raises(ValueError):
            draw_noise(0, k, n, m, 1.0)

    def test_negative_seed_accepted(self):
        values = draw_noise(-17, 4, 4, 1, 1.0)
        assert np.all(np.isfinite(values))


class TestPerturb:
    def test_zero_noise_returns_base(self):
        noise = draw_noise(0, 3, 4, 1, 1e-12)
        base = np.arange(4.0)[:, None]
        np.testing.assert_allclose(perturb(base, noise),
                                   np.broadcast_to(base, (3, 4, 1)),
                                   atol=1e-9)

    def test_zero_base_returns_noise(self):
        noise = draw_noise(0, 3, 4, 2, 1.0)
        np.testing.assert_array_equal(perturb(np.zeros((4, 2)), noise), noise)

    def test_elementwise_addition(self):
        noise = draw_noise(11, 5, 3, 2, 2.0)
        base = np.random.default_rng(0).normal(size=(3, 2))
        np.testing.assert_array_equal(perturb(base, noise), base + noise)

    def test_base_not_modified(self):
        noise = draw_noise(0, 2, 2, 1, 1.0)
        base = np.zeros((2, 1))
        perturb(base, noise)
        np.testing.assert_array_equal(base, np.zeros((2, 1)))

    def test_returns_new_array(self):
        noise = draw_noise(4, 3, 5, 2, 1.0)
        assert isinstance(noise, np.ndarray)
        assert noise.dtype == np.float64 and noise.shape == (3, 5, 2)
        base = np.zeros((5, 2))
        out = perturb(base, noise)
        assert not np.shares_memory(out, base)
        assert not np.shares_memory(out, noise)
        out += 1.0
        np.testing.assert_array_equal(base, 0.0)

    def test_shape_mismatch(self):
        noise = draw_noise(0, 2, 2, 1, 1.0)
        with pytest.raises(ValueError, match="shape"):
            perturb(np.zeros((3, 1)), noise)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(-2 ** 62, 2 ** 62), k=st.integers(1, 8),
       n=st.integers(1, 8), m=st.integers(1, 3))
def test_reproducibility_property(seed, k, n, m):
    a = draw_noise(seed, k, n, m, 1.0)
    b = draw_noise(seed, k, n, m, 1.0)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (k, n, m)


def test_step_seed_derivation_is_stable():
    assert derive_step_seed(42, 0) == derive_step_seed(42, 0)
    seeds = {derive_step_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
