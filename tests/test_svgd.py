import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soppi import ParticleSet, SvgdConfig, median_bandwidth, \
    stein_direction, svgd
from oracles import kernel, kernel_grad_wrt_first


def naive_stein_reference(particles, grads, sigma_k, alpha):
    """Direct double-loop transcription of the update direction."""
    K, m = particles.shape
    out = np.zeros((K, m))
    for i in range(K):
        for j in range(K):
            k = kernel(particles[j], particles[i], sigma_k)
            kg = kernel_grad_wrt_first(particles[j], particles[i], sigma_k)
            out[i] += k * (-alpha * grads[j]) + kg
    return out / K


def blocked_1d_reference(p, g, sigma_k, alpha):
    """The former scalar-control (m == 1) fast path, kept as a bitwise oracle.

    p and g are (K,) vectors; returns (K, 1).
    """
    K = p.shape[0]
    inv2s2 = 1.0 / (2.0 * sigma_k ** 2)
    invs2 = 1.0 / sigma_k ** 2
    neg_ag = -alpha * g
    out = np.empty(K)
    for start in range(0, K, 64):
        stop = min(start + 64, K)
        diff = np.subtract(p[None, :], p[start:stop, None])  # [i, j] = p_j - p_i
        kmat = diff * diff
        kmat *= -inv2s2
        np.exp(kmat, out=kmat)
        attract = kmat @ neg_ag
        np.multiply(kmat, diff, out=diff)
        out[start:stop] = attract - invs2 * diff.sum(axis=1)
    return (out / K)[:, None]


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

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.normal(size=(2, 3))
            v = kernel(a, b, 0.5)
            assert 0.0 < v <= 1.0


class TestKernelGradient:
    def test_zero_at_coincident_points(self):
        v = np.array([1.0, 2.0])
        np.testing.assert_array_equal(kernel_grad_wrt_first(v, v, 1.0),
                                      np.zeros(2))

    def test_closed_form_1d(self):
        # -(a-b)/sigma^2 * k = 2*exp(-2) at a=0, b=2, sigma=1
        got = kernel_grad_wrt_first(np.array([0.0]), np.array([2.0]), 1.0)
        assert got[0] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    # The ids keep their earlier "True-" prefix (squared norm), from when an
    # unsquared variant was checked beside it, so results stay comparable.
    @pytest.mark.parametrize("seed", range(10),
                             ids=[f"True-{s}" for s in range(10)])
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        sigma_k = rng.uniform(0.5, 2.0)
        grad = kernel_grad_wrt_first(a, b, sigma_k)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (kernel(a + e, b, sigma_k)
                  - kernel(a - e, b, sigma_k)) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_matches_naive_reference(self, m):
        # K = 70 spans two 64-row blocks.
        rng = np.random.default_rng(4)
        cfg = SvgdConfig(bandwidth=0.8, alpha=2.0)
        for K in (6, 70):
            p = rng.normal(size=(K, m))
            g = rng.normal(size=(K, m))
            got = stein_direction(ParticleSet(p, g), cfg)
            np.testing.assert_allclose(
                got, naive_stein_reference(p, g, 0.8, 2.0), rtol=1e-10,
                atol=1e-12, err_msg=f"K={K}")

    @pytest.mark.parametrize("K", [1, 2, 63, 64, 65, 128, 129, 500, 777])
    def test_scalar_controls_match_blocked_1d_loop_bitwise(self, K):
        # The blocked routine itself: stein_direction may take the low-rank
        # route for these sets.
        rng = np.random.default_rng(K)
        p = rng.normal(size=(K, 1)) * 3.0
        g = rng.normal(size=(K, 1)) * 10.0
        np.testing.assert_array_equal(
            svgd._direction_blocked(p, g, 1.2, 1.5),
            blocked_1d_reference(p[:, 0], g[:, 0], 1.2, 1.5))

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

    @pytest.mark.parametrize("bandwidth", [1.0, "median"])
    def test_nonfinite_gradient_names_first_bad_sample(self, bandwidth):
        # Rows 4 and 12 are non-finite, each in one dimension only: the
        # error names the first.
        g = np.ones((16, 2))
        g[12, 0] = np.nan
        g[4, 1] = -np.inf
        with pytest.raises(ValueError, match=r"sample index 4$"):
            stein_direction(ParticleSet(np.zeros((16, 2)), g),
                            SvgdConfig(bandwidth=bandwidth))


@pytest.fixture
def low_rank_calls(monkeypatch):
    """Node count of every call that takes the low-rank route."""
    calls = []
    real = svgd._direction_low_rank

    def spy(u, g, sigma_k, alpha, r, lo, hi):
        calls.append(r)
        return real(u, g, sigma_k, alpha, r, lo, hi)

    monkeypatch.setattr(svgd, "_direction_low_rank", spy)
    return calls


def _blocked(p, g, cfg):
    sigma_k = (svgd.median_bandwidth(p) if cfg.bandwidth == "median"
               else cfg.bandwidth)
    return svgd._direction_blocked(p, g, sigma_k, cfg.alpha)


def _rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestLowRankScalarKernel:
    """The Chebyshev route against the blocked loop: 1e-12 norm-wise where
    it is taken, bitwise where it is not."""

    @pytest.mark.parametrize("K", [64, 128, 500, 2000])
    def test_matches_blocked_loop(self, K, low_rank_calls):
        rng = np.random.default_rng(K)
        taken = skipped = 0
        for bandwidth in [0.5, 1.0, 2.0, 5.0, 10.0, "median"]:
            # particle std as a multiple of the fixed bandwidth (of 5 for
            # the median one): spans from about 0.3 to past _MAX_SPAN
            scale = 5.0 if bandwidth == "median" else bandwidth
            for spread in [0.05, 0.5, 1.0, 3.0, 6.0]:
                p = rng.normal(size=(K, 1)) * spread * scale
                g = rng.normal(size=(K, 1)) * 10.0
                cfg = SvgdConfig(bandwidth=bandwidth, alpha=1.5)
                n_calls = len(low_rank_calls)
                got = stein_direction(ParticleSet(p, g), cfg)
                want = _blocked(p, g, cfg)
                if len(low_rank_calls) > n_calls:
                    taken += 1
                    assert _rel_err(got, want) <= 1e-12, (bandwidth, spread)
                else:
                    skipped += 1
                    np.testing.assert_array_equal(got, want)
        assert skipped > 0
        if K > 64:  # at K = 64 only a coincident set qualifies
            assert taken > 0

    @pytest.mark.parametrize("K,span,low_rank", [
        (128, 4.4, True), (128, 4.5, False),   # 4 r <= K with r = 32 / 33
        (500, 29.9, True), (500, 30.1, False),  # _MAX_SPAN
        (2000, 29.9, True), (2000, 30.1, False),
    ])
    def test_route_switches_on_span(self, K, span, low_rank, low_rank_calls):
        rng = np.random.default_rng(3)
        p = np.linspace(0.0, 2.0 * span, K)[rng.permutation(K), None]
        g = rng.normal(size=(K, 1))
        cfg = SvgdConfig(bandwidth=2.0, alpha=10.0)
        got = stein_direction(ParticleSet(p, g), cfg)
        want = _blocked(p, g, cfg)
        assert bool(low_rank_calls) == low_rank
        if low_rank:
            assert low_rank_calls == [svgd._node_count(span)]
            assert _rel_err(got, want) <= 1e-12
        else:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("span", [0.3, 6.0, 29.9])
    def test_interpolated_kernel_within_documented_error(self, span):
        # With one-hot weights the attraction is one column of the route's
        # interpolated kernel.  A huge bandwidth shrinks the repulsion, and
        # the difference against zero weights removes it.
        K = 200
        rng = np.random.default_rng(int(10 * span))
        u = np.concatenate([[0.0, span], rng.uniform(0.0, span, K - 2)])
        r = svgd._node_count(span)

        def attraction(g):
            out = svgd._direction_low_rank(u, g, 1e8, 1.0, r, 0.0, span)
            return out[:, 0] * K

        base = attraction(np.zeros(K))
        got = np.column_stack([attraction(-e) - base for e in np.eye(K)])
        want = np.exp(-0.5 * np.subtract.outer(u, u) ** 2)
        assert np.abs(got - want).max() <= 1e-14

    def test_particles_exactly_on_chebyshev_nodes(self, low_rank_calls):
        # With bandwidth 1 and the particles spanning [-1, 1], the node
        # interval is [-1, 1] and particle i sits on node x_i exactly.
        r = svgd._node_count(2.0)
        x, _ = svgd._chebyshev_nodes(r)
        rng = np.random.default_rng(5)
        p = np.concatenate([x, [-1.0, 1.0], rng.uniform(-1, 1, 128 - r - 2)])
        p = p[:, None]
        g = rng.normal(size=(128, 1))
        cfg = SvgdConfig(bandwidth=1.0, alpha=2.0)
        got = stein_direction(ParticleSet(p, g), cfg)
        assert low_rank_calls == [r]
        assert np.isfinite(got).all()
        assert _rel_err(got, _blocked(p, g, cfg)) <= 1e-12

    @pytest.mark.parametrize("K", [64, 500])
    def test_coincident_particles(self, K, low_rank_calls):
        p = np.full((K, 1), -2.5)
        cfg = SvgdConfig(bandwidth=0.5, alpha=3.0)
        zero = stein_direction(ParticleSet(p, np.zeros((K, 1))), cfg)
        np.testing.assert_array_equal(zero, np.zeros((K, 1)))
        g = np.random.default_rng(K).normal(size=(K, 1))
        got = stein_direction(ParticleSet(p, g), cfg)
        assert low_rank_calls == [16, 16]
        assert _rel_err(got, _blocked(p, g, cfg)) <= 1e-12

    @pytest.mark.parametrize("case", ["median-K128", "outlier", "overflow",
                                      "two-dims"])
    def test_blocked_cases_stay_bitwise(self, case, low_rank_calls):
        rng = np.random.default_rng(11)
        K, m, bandwidth = 128, 1, 1.0
        p = rng.normal(size=(K, 1)) * 0.2
        if case == "median-K128":
            bandwidth = "median"
            p = rng.normal(size=(K, 1)) * 5.0
        elif case == "outlier":
            p[7, 0] = 1e200           # finite, but a span far past the cap
        elif case == "overflow":
            bandwidth = 0.5
            p[7, 0] = 1e308           # p / sigma_k overflows: span is inf
        else:
            m = 2
            p = rng.normal(size=(K, m)) * 0.2
        g = rng.normal(size=(K, m))
        cfg = SvgdConfig(bandwidth=bandwidth, alpha=10.0)
        # The outliers overflow the squared distances on either route; the
        # controller runs its sweeps under the same errstate.
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_array_equal(
                stein_direction(ParticleSet(p, g), cfg), _blocked(p, g, cfg))
        assert low_rank_calls == []

    def test_fewer_than_two_particles(self, low_rank_calls):
        cfg = SvgdConfig(bandwidth=1.0, alpha=2.0)
        empty = stein_direction(ParticleSet(np.zeros((0, 1)),
                                            np.zeros((0, 1))), cfg)
        assert empty.shape == (0, 1)
        one = stein_direction(ParticleSet(np.array([[0.4]]),
                                          np.array([[3.0]])), cfg)
        np.testing.assert_array_equal(one, [[-6.0]])
        assert low_rank_calls == []


class TestRepulsionProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.1, 3.0), st.floats(0.5, 2.0))
    def test_distinct_particles_move_apart(self, gap, sigma_k):
        # Zero cost gradients, step < sigma^2.
        p = np.array([[0.0], [gap]])
        cfg = SvgdConfig(bandwidth=sigma_k, step_size=0.4 * sigma_k ** 2,
                         iterations=1)
        direction = stein_direction(ParticleSet(p, np.zeros((2, 1))), cfg)
        moved = p + cfg.step_size * direction
        assert moved[1, 0] - moved[0, 0] > gap


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


def median_bandwidth_before_shared_pass(particles):
    """``median_bandwidth`` before the pair differences were shared with the
    Stein direction, kept verbatim as a bitwise oracle."""
    particles = np.ascontiguousarray(particles, dtype=float)
    K = particles.shape[0]
    if K < 2:
        return 1.0
    if not np.isfinite(particles).all():
        return math.nan
    d2 = np.sum((particles[:, None, :] - particles[None, :, :]) ** 2,
                axis=-1).ravel()
    n = K * (K - 1) // 2
    kth = K + 2 * (n // 2)
    d2.partition(kth)
    med = float(d2[kth])
    if n % 2 == 0:
        med = (float(d2[:kth].max()) + med) / 2.0
    if med <= 0.0:
        return 1.0
    return math.sqrt(med / (2.0 * math.log(K)))


def direction_blocked_before_shared_pass(p, g, sigma_k, alpha):
    """``_direction_blocked`` computing every block's differences itself,
    kept verbatim as a bitwise oracle."""
    K, m = p.shape
    inv2s2 = 1.0 / (2.0 * sigma_k ** 2)
    invs2 = 1.0 / sigma_k ** 2
    pt = np.ascontiguousarray(p.T)
    neg_ag = -alpha * g
    out = np.empty((K, m))
    for start in range(0, K, 64):
        stop = min(start + 64, K)
        diff = np.subtract(pt[:, None, :], pt[:, start:stop, None])
        kmat = diff[0] * diff[0]
        for d in range(1, m):
            kmat += diff[d] * diff[d]
        kmat *= -inv2s2
        np.exp(kmat, out=kmat)
        attract = kmat @ neg_ag
        for d in range(m):
            diff[d] *= kmat
        out[start:stop] = attract - invs2 * diff.sum(axis=2).T
    return out / K


def _shared_pass_cases(K, m, rng):
    cases = {
        "normal": rng.normal(size=(K, m)) * 3.0,
        # Heavy tails give scalar sets spans past _MAX_SPAN: blocked loop.
        "cauchy": rng.standard_cauchy(size=(K, m)),
        "pairs": np.repeat(rng.normal(size=((K + 1) // 2, m)), 2,
                           axis=0)[:K],
        "equal": np.full((K, m), -1.25),
    }
    for name, bad in [("nan", math.nan), ("inf", math.inf)]:
        p = rng.normal(size=(K, m))
        p[K // 2, m - 1] = bad
        cases[name] = p
    return cases


class TestSharedPairwisePass:
    """The median path reads one set of pair differences and stays bitwise
    equal to the median and blocked loop that each computed their own."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("K", [2, 3, 63, 64, 65, 128, 500])
    def test_median_path_bitwise(self, K, m, low_rank_calls):
        rng = np.random.default_rng(1000 * K + m)
        blocked = 0
        for name, p in _shared_pass_cases(K, m, rng).items():
            g = rng.normal(size=(K, m)) * 10.0
            sigma_k = median_bandwidth_before_shared_pass(p)
            got_sigma = median_bandwidth(p)
            assert (math.isnan(sigma_k) if name in ("nan", "inf")
                    else got_sigma == sigma_k), name
            assert np.array(got_sigma).tobytes() == \
                np.array(sigma_k).tobytes(), name
            n_calls = len(low_rank_calls)
            # A non-finite particle overflows or makes NaN on every route;
            # the controller runs its sweeps under the same errstate.
            with np.errstate(invalid="ignore", over="ignore"):
                got = stein_direction(ParticleSet(p, g),
                                      SvgdConfig(bandwidth="median",
                                                 alpha=1.5))
                if len(low_rank_calls) > n_calls:
                    # The low-rank route reads no pair differences; it is
                    # the fixed-bandwidth call at the same bandwidth.
                    want = stein_direction(ParticleSet(p, g),
                                           SvgdConfig(bandwidth=sigma_k,
                                                      alpha=1.5))
                else:
                    blocked += 1
                    want = direction_blocked_before_shared_pass(
                        p, g, sigma_k, 1.5)
            assert got.tobytes() == want.tobytes(), name
        assert blocked >= 3

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("K", [2, 63, 64, 65, 130, 500])
    def test_fixed_bandwidth_blocks_bitwise(self, K, m):
        rng = np.random.default_rng(K + m)
        p = rng.normal(size=(K, m)) * 2.0
        g = rng.normal(size=(K, m))
        assert svgd._direction_blocked(p, g, 0.7, 2.0).tobytes() == \
            direction_blocked_before_shared_pass(p, g, 0.7, 2.0).tobytes()

    @pytest.mark.parametrize("bandwidth,K", [
        ("median", 128), ("median", 500), ("median", 2), (0.5, 128),
        (0.5, 130)])
    def test_one_pairwise_pass_per_call(self, monkeypatch, bandwidth, K):
        # The median and the blocked loop share one pass over all
        # particles; a fixed bandwidth makes one pass too.
        calls = []
        real = svgd._pairwise

        def spy(p):
            calls.append(p.shape)
            return real(p)

        monkeypatch.setattr(svgd, "_pairwise", spy)
        rng = np.random.default_rng(K)
        p = rng.standard_cauchy(size=(K, 2))
        g = rng.normal(size=(K, 2))
        cfg = SvgdConfig(bandwidth=bandwidth)
        stein_direction(ParticleSet(p, g), cfg)
        assert calls == [(K, 2)]
        calls.clear()
        median_bandwidth(p)
        assert calls == [(K, 2)]

    @pytest.mark.parametrize("bandwidth,K,m", [
        ("median", 128, 1), ("median", 500, 1), ("median", 64, 2),
        ("median", 2, 1), (0.5, 128, 1), (0.5, 64, 2)])
    def test_median_read_once_from_the_shared_pass(self, monkeypatch,
                                                   bandwidth, K, m):
        # The median path resolves its bandwidth through the public
        # median_bandwidth, once per call, on the _pairwise distances.
        passes, medians = [], []
        real_pairwise, real_median = svgd._pairwise, svgd.median_bandwidth

        def pairwise_spy(p):
            passes.append(real_pairwise(p))
            return passes[-1]

        def median_spy(particles, d2=None):
            medians.append(d2)
            return real_median(particles, d2)

        monkeypatch.setattr(svgd, "_pairwise", pairwise_spy)
        monkeypatch.setattr(svgd, "median_bandwidth", median_spy)
        rng = np.random.default_rng(K + m)
        p = rng.normal(size=(K, m))
        g = rng.normal(size=(K, m))
        for call in range(1, 3):
            stein_direction(ParticleSet(p, g), SvgdConfig(bandwidth=bandwidth))
            if bandwidth == "median":
                assert len(medians) == len(passes) == call
                assert all(d2 is d for d2, (_, d) in zip(medians, passes))
            else:
                assert medians == []


def pairwise_before_products(p):
    """``_pairwise`` with broadcast subtraction, kept verbatim as a bitwise
    oracle for its rank-2 products."""
    pt = np.ascontiguousarray(p.T)                  # (m, K)
    diff = np.subtract(pt[:, None, :], pt[:, :, None])
    d2 = diff[0] * diff[0]
    for d in range(1, pt.shape[0]):
        d2 += diff[d] * diff[d]
    return diff, d2


def direction_low_rank_before_products(u, g, sigma_k, alpha, r, lo, hi):
    """``_direction_low_rank`` with ``np.subtract.outer`` node-particle
    differences, kept verbatim (bar unpacking the grown node cache) as a
    bitwise oracle."""
    K = u.shape[0]
    mid = 0.5 * (lo + hi)
    half = max(0.5 * (hi - lo), 0.5)
    t = u - mid
    x, w = svgd._chebyshev_nodes(r)
    inv = np.subtract.outer(x, t / half)            # (r, K)
    with np.errstate(divide="ignore"):
        np.reciprocal(inv, out=inv)
    norm = w @ inv
    on_node = ~np.isfinite(norm)
    if on_node.any():
        inv[:, on_node] = np.isinf(inv[:, on_node])
        norm[on_node] = w @ inv[:, on_node]
    f = np.empty((3, K))
    np.multiply(g, -alpha, out=f[0])
    f[1] = t
    f[2] = 1.0
    f /= norm
    gram, weights = svgd._node_products(r)[:2]
    node_k = np.multiply(gram, half * half)
    np.exp(node_k, out=node_k)
    node_k *= weights
    acc = (f @ inv.T) @ node_k @ inv
    out = acc[0] - (acc[1] - t * acc[2]) / sigma_k
    out /= norm * K
    return out[:, None]


def _product_cases(K, m, rng):
    signed_zeros = rng.normal(size=(K, m))
    signed_zeros[rng.uniform(size=(K, m)) < 0.5] = 0.0
    signed_zeros[rng.uniform(size=(K, m)) < 0.25] = -0.0
    return {
        "normal": rng.normal(size=(K, m)) * 3.0,
        "duplicates": np.repeat(rng.normal(size=((K + 1) // 2, m)), 2,
                                axis=0)[rng.permutation(K)],
        "signed zeros": signed_zeros,
        # Squares of up to (2e150)^2, summed over three dimensions, stay
        # finite.
        "magnitudes": rng.normal(size=(K, m))
        * 10.0 ** rng.uniform(-150.0, 150.0, size=(K, m)),
        "extremes": rng.choice([-1e150, -1.0, -0.0, 0.0, 1e-300, 1e150],
                               size=(K, m)),
    }


class TestRank2Differences:
    """The rank-2 products that form the Stein kernel's differences against
    the subtractions they replaced.  Each entry rounds x_a - s_i once, so
    the bits match; only an exact zero's sign may differ, as the BLAS may
    start its sums from +0."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("K", [2, 3, 64, 65, 128, 500])
    def test_pairwise_matches_subtraction(self, K, m):
        rng = np.random.default_rng(7 * K + m)
        for name, p in _product_cases(K, m, rng).items():
            diff, d2 = svgd._pairwise(p)
            want_diff, want_d2 = pairwise_before_products(p)
            assert diff.shape == want_diff.shape and diff.flags.c_contiguous
            assert d2.tobytes() == want_d2.tobytes(), name
            # Adding +0 turns -0 into +0 and keeps every other value's bits.
            assert (diff + 0.0).tobytes() == (want_diff + 0.0).tobytes(), name

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("K", [2, 3, 64, 65, 128])
    def test_zero_signs_do_not_reach_the_direction(self, K, m):
        # Every row of the differences holds its own +0 diagonal, so a
        # signed zero elsewhere cannot change a row sum's bits.
        rng = np.random.default_rng(K + 10 * m)
        for name, p in _product_cases(K, m, rng).items():
            g = rng.normal(size=(K, m))
            for sigma_k in (0.7, svgd.median_bandwidth(p)):
                got = svgd._direction_blocked(p, g, sigma_k, 2.0)
                want = direction_blocked_before_shared_pass(p, g, sigma_k,
                                                            2.0)
                assert got.tobytes() == want.tobytes(), (name, sigma_k)

    @pytest.mark.parametrize("span", [0.0, 0.3, 1.0, 4.4, 12.5, 29.9, 30.0])
    def test_low_rank_matches_subtraction(self, span):
        K = 500
        rng = np.random.default_rng(int(100 * span))
        r = svgd._node_count(span)
        assert 4 * r <= K
        for lo in (-7.3, 0.0, 2.5):
            u = lo + span * rng.uniform(size=K)
            u[:2] = lo, lo + span
            u = u[rng.permutation(K)]
            g = rng.normal(size=K) * 10.0
            args = (u, g, 1.7, 1.5, r, u.min(), u.max())
            assert svgd._direction_low_rank(*args).tobytes() == \
                direction_low_rank_before_products(*args).tobytes()

    def test_low_rank_on_node_matches_subtraction(self):
        # Particles on [-1, 1] give mid 0 and half 1, so t / half is each
        # particle itself and the first r sit exactly on the nodes.
        r = svgd._node_count(2.0)
        x, _ = svgd._chebyshev_nodes(r)
        rng = np.random.default_rng(9)
        u = np.concatenate([x, [-1.0, 1.0], rng.uniform(-1, 1, 500 - r - 2)])
        u = u[rng.permutation(500)]
        assert (np.subtract.outer(x, u) == 0.0).sum() == r
        g = rng.normal(size=500)
        args = (u, g, 1.0, 2.0, r, -1.0, 1.0)
        got = svgd._direction_low_rank(*args)
        assert np.isfinite(got).all()
        assert got.tobytes() == \
            direction_low_rank_before_products(*args).tobytes()

    def test_node_cache_is_read_only(self):
        r = svgd._node_count(3.0)
        gram, weights, lhs = svgd._node_products(r)
        x, _ = svgd._chebyshev_nodes(r)
        assert lhs.shape == (r, 2)
        assert lhs[:, 0].tobytes() == x.tobytes()
        assert (lhs[:, 1] == -1.0).all()
        for a in (gram, weights, lhs):
            assert not a.flags.writeable
        assert svgd._node_products(r)[2] is lhs
