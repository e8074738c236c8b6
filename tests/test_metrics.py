import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from mvstab.metrics import (TimeSeries, empirical_cdf, record_run, w1_density,
                            w1_empirical)


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
        # W1 dominates the mean gap, the pairing with g(x) = x; the
        # variances differ, so the CDFs cross and the bound is strict
        assert ref > 0.4 + 1e-3
        rng1 = np.random.default_rng(100)
        rng2 = np.random.default_rng(200)
        xs = np.interp(rng1.random(1_000_000), F, x)
        ys = np.interp(rng2.random(1_000_000), G, x)
        assert w1_empirical(xs, ys) == pytest.approx(ref, abs=3e-3)

    def test_empirical_cdf_helper(self):
        grid = np.array([0.0, 1.0, 2.0])
        F = empirical_cdf([0.5, 1.5, 1.5, 3.0], grid)
        assert np.allclose(F, [0.0, 0.25, 0.75])


class TestTimeSeries:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TimeSeries(times=np.array([0.0, 0.0, 1.0]),
                       channels={"m": np.zeros(3)})

    def test_channel_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            TimeSeries(times=np.array([0.0, 1.0]),
                       channels={"m": np.zeros(3)})


def count_run(t_end, dt=0.5, **kw):
    """record_run on a trivial state whose m counts the steps taken."""
    return record_run(SimpleNamespace(t=0.0, m=0),
                      lambda c: SimpleNamespace(t=c.t + dt, m=c.m + 1),
                      t_end=t_end, dt=dt, **kw)


class TestRecordRun:
    def test_records_every_stride_and_the_last_step(self):
        ts = count_run(5.0, stride=3,
                       observe=lambda c: {"twice": np.array([2 * c.m])})
        assert ts["m"].tolist() == [0, 3, 6, 9, 10]
        assert ts.times.tolist() == [0.0, 1.5, 3.0, 4.5, 5.0]
        # each key of the observation is a channel holding whatever
        # the observation gave at that record
        assert ts["twice"].tolist() == [[0], [6], [12], [18], [20]]

    def test_stop_condition_asked_at_records_only(self):
        asked = []

        def stop(t, m):
            asked.append(m)
            return m >= 4
        ts = count_run(5.0, stride=3, stop_condition=stop)
        assert asked == [3, 6]
        assert ts["m"].tolist() == [0, 3, 6]

    @pytest.mark.parametrize("kw, match", [
        (dict(stride=0), "stride"), (dict(stride=-3), "stride"),
        (dict(dt=0.0), "dt"), (dict(dt=-0.5), "dt")])
    def test_bad_stride_or_dt_rejected(self, kw, match):
        with pytest.raises(ValueError, match=match):
            count_run(5.0, **kw)
