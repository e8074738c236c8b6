import itertools

import numpy as np
import pytest

from mvstab.metrics import (TimeSeries, WeightedNormConfig, empirical_cdf,
                            ramp_dictionary, w1_density, w1_empirical,
                            weighted_dual_norm_lb)


def brute_force_w1(xs, ys):
    """Minimum mean matching cost over all permutations (n = m <= 8)."""
    n = len(xs)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        cost = sum(abs(xs[i] - ys[perm[i]]) for i in range(n)) / n
        best = min(best, cost)
    return best


class TestW1Empirical:
    def test_identical(self):
        xs = np.array([0.3, -1.2, 5.0])
        assert w1_empirical(xs, xs.copy()) == 0.0

    def test_singletons(self):
        assert w1_empirical([2.0], [-1.5]) == pytest.approx(3.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            w1_empirical([], [1.0])

    def test_matches_brute_force_assignment(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            xs = rng.standard_normal(n)
            ys = rng.standard_normal(n)
            assert w1_empirical(xs, ys) == pytest.approx(
                brute_force_w1(xs, ys), abs=1e-12)

    def test_unequal_sizes_against_scipy(self):
        from scipy.stats import wasserstein_distance
        rng = np.random.default_rng(12)
        for _ in range(10):
            xs = rng.standard_normal(int(rng.integers(2, 40)))
            ys = rng.standard_normal(int(rng.integers(2, 40)))
            assert w1_empirical(xs, ys) == pytest.approx(
                wasserstein_distance(xs, ys), abs=1e-12)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(13)
        xs, ys = rng.standard_normal(9), rng.standard_normal(9)
        assert w1_empirical(xs, ys) == w1_empirical(ys, xs)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            xs, ys, zs = (rng.standard_normal(8) for _ in range(3))
            assert w1_empirical(xs, zs) <= (w1_empirical(xs, ys)
                                            + w1_empirical(ys, zs) + 1e-12)


def gaussian_cdf(x, mean=0.0, std=1.0):
    from scipy.special import erf
    return 0.5 * (1 + erf((x - mean) / (std * np.sqrt(2))))


class TestW1Density:
    def test_equal_cdfs(self):
        x = np.linspace(-5, 5, 500)
        F = gaussian_cdf(x)
        assert w1_density(x, F, F) == 0.0

    def test_translation_identity(self):
        x = np.linspace(-10, 10, 4001)
        F = gaussian_cdf(x)
        G = gaussian_cdf(x, mean=0.7)
        assert w1_density(x, F, G) == pytest.approx(0.7, abs=1e-8)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="common grid"):
            w1_density(np.linspace(0, 1, 5), np.zeros(5), np.zeros(4))

    def test_sampling_consistency(self):
        # 1e6 inverse-CDF samples must reproduce the density distance
        x = np.linspace(-10, 10, 4001)
        F = gaussian_cdf(x)
        G = gaussian_cdf(x, mean=0.4, std=1.2)
        ref = w1_density(x, F, G)
        rng1 = np.random.default_rng(100)
        rng2 = np.random.default_rng(200)
        xs = np.interp(rng1.random(1_000_000), F, x)
        ys = np.interp(rng2.random(1_000_000), G, x)
        assert w1_empirical(xs, ys) == pytest.approx(ref, abs=3e-3)

    def test_empirical_cdf_helper(self):
        grid = np.array([0.0, 1.0, 2.0])
        F = empirical_cdf([0.5, 1.5, 1.5, 3.0], grid)
        assert np.allclose(F, [0.0, 0.25, 0.75])


def discrete_gaussian(x, mean):
    w = np.exp(-(x - mean) ** 2 / 2)
    return w / w.sum()


class TestWeightedDualNormLB:
    def test_zero_for_equal_measures(self):
        x = np.linspace(-8, 8, 400)
        cfg = WeightedNormConfig(p0=0.0, phi0="r").prepare(x)
        mu = discrete_gaussian(x, 0.0)
        assert weighted_dual_norm_lb(mu, mu, cfg) == 0.0

    def test_identity_dictionary_gives_mean_gap(self):
        x = np.linspace(-8, 8.3, 501)
        cfg = WeightedNormConfig(p0=0.0, phi0="r",
                                 dictionary=[lambda t: t]).prepare(x)
        mu = discrete_gaussian(x, 0.0)
        nu = discrete_gaussian(x, 0.3)
        got = weighted_dual_norm_lb(mu, nu, cfg)
        mean_gap = abs(x @ mu - x @ nu)
        assert got == pytest.approx(mean_gap, rel=1e-12)
        F, G = np.cumsum(mu), np.cumsum(nu)
        assert got <= w1_density(x, F, G) + 1e-10

    def test_rich_dictionary_recovers_transport_distance(self):
        # random 1-Lipschitz ramps; wide ones align with the optimal
        # potential of a pure shift, so the best of 64 recovers >= 0.9 W1
        x = np.linspace(-8, 8.3, 501)
        rng = np.random.default_rng(21)
        funcs = []
        for _ in range(64):
            a, b = np.sort(rng.uniform(-8, 8.3, size=2))
            funcs.append(lambda t, a=a, b=b: np.clip(t - a, 0.0, b - a))
        cfg = WeightedNormConfig(p0=0.0, phi0="r", dictionary=funcs).prepare(x)
        mu = discrete_gaussian(x, 0.0)
        nu = discrete_gaussian(x, 0.3)
        w1 = w1_density(x, np.cumsum(mu), np.cumsum(nu))
        got = weighted_dual_norm_lb(mu, nu, cfg)
        assert got >= 0.9 * w1
        assert got <= w1 + 1e-10

    def test_dictionary_monotonicity(self):
        x = np.linspace(-8, 8.3, 301)
        mu = discrete_gaussian(x, 0.0)
        nu = discrete_gaussian(x, 0.5)
        small = ramp_dictionary(-8, 8.3, 8)
        large = small + ramp_dictionary(-8, 8.3, 32) + [lambda t: t]
        v_small = weighted_dual_norm_lb(
            mu, nu, WeightedNormConfig(dictionary=small).prepare(x))
        v_large = weighted_dual_norm_lb(
            mu, nu, WeightedNormConfig(dictionary=large).prepare(x))
        assert v_large >= v_small

    def test_mass_mismatch_rejected(self):
        x = np.linspace(-8, 8, 301)
        cfg = WeightedNormConfig().prepare(x)
        mu = discrete_gaussian(x, 0.0)
        with pytest.raises(ValueError, match="masses differ"):
            weighted_dual_norm_lb(mu, 1.01 * mu, cfg)

    def test_requires_prepare(self):
        with pytest.raises(ValueError, match="prepare"):
            weighted_dual_norm_lb(np.ones(3) / 3, np.ones(3) / 3,
                                  WeightedNormConfig())

    def test_bounded_gauge_with_weight(self):
        # p0 > 0 with the bounded gauge still yields a valid lower bound
        x = np.linspace(-8, 8.3, 301)
        cfg = WeightedNormConfig(p0=2.0, phi0="r_wedge_1").prepare(x)
        mu = discrete_gaussian(x, 0.0)
        nu = discrete_gaussian(x, 0.4)
        assert weighted_dual_norm_lb(mu, nu, cfg) > 0


class TestTimeSeries:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(times=np.array([0.0, 0.0, 1.0]),
                       channels={"m": np.zeros(3)})

    def test_channel_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            TimeSeries(times=np.array([0.0, 1.0]),
                       channels={"m": np.zeros(3)})
