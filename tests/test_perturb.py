import re

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator
from scipy.stats import norm

from mvstab.metrics import w1_density
from mvstab.model import cosine_model
from mvstab.perturb import (make_perturbation, perturbed_measure,
                            quantile_function, read_direction,
                            sample_measure, truncate_center)
from mvstab.spectrum import analyze_branch
from mvstab.stationary import GridSpec, build_gibbs


DELTA = 1e-2


@pytest.fixture(scope="module")
def setup(dawson_sub):
    pert = make_perturbation(dawson_sub, delta=DELTA)
    return dawson_sub, pert, pert.law


class TestTruncateCenter:
    def test_bounded_direction_only_recentered(self, dawson_sub):
        g = dawson_sub.gibbs
        h = np.sin(g.rule.nodes)
        g_M, center, gamma = truncate_center(g, h, M=5.0)
        assert np.allclose(g_M, h - g.moment(h), atol=1e-14)
        assert center == g.moment(h)
        assert gamma == pytest.approx(0.0, abs=1e-13)

    def test_centering_exact(self, setup):
        s, pert, _ = setup
        g_M, _, _ = truncate_center(s.gibbs, pert.h(s.gibbs.rule.nodes),
                                    pert.M)
        assert s.gibbs.moment(g_M) == pytest.approx(0.0, abs=1e-12)

    def test_gamma_nonincreasing_in_M(self, dawson_sub):
        g = dawson_sub.gibbs
        h = g.rule.nodes ** 3        # unbounded direction
        gammas = [truncate_center(g, h, M)[2] for M in (0.5, 1, 2, 4, 8, 16)]
        assert all(a >= b - 1e-15 for a, b in zip(gammas, gammas[1:]))

    def test_default_level_keeps_gamma_small(self, dawson_sub, tmp_path):
        # for the direction classes used by the pipeline (adjoint
        # eigenvectors, low-degree observables) eight L2 norms clamp
        # only far-tail values; heavier-tailed directions need an
        # explicit M through the config.  The directions enter as CSV
        # files on the nodes, read back exactly there by interpolation
        g = dawson_sub.gibbs
        x = g.rule.nodes
        for i, h in enumerate((x, np.sin(x) + 0.5 * x)):
            path = tmp_path / f"h{i}.csv"
            np.savetxt(path, np.column_stack([x, h]), delimiter=",",
                       header="x,h", comments="", fmt="%.17g")
            pert = make_perturbation(dawson_sub, delta=1e-3,
                                     h=read_direction(str(path)))
            norm = np.sqrt(g.moment(h * h))
            assert pert.M == pytest.approx(8 * norm)
            assert pert.gamma < 0.01 * norm

    def test_rejects_nonpositive_M(self, dawson_sub):
        with pytest.raises(ValueError, match="positive"):
            truncate_center(dawson_sub.gibbs,
                            dawson_sub.gibbs.rule.nodes, 0.0)


class TestPerturbedMeasure:
    def test_zero_amplitude_is_identity(self, dawson_sub):
        g = dawson_sub.gibbs
        g_M, _, _ = truncate_center(g, np.sin(g.rule.nodes), 2.0)
        mu = perturbed_measure(g, g_M, 0.0)
        assert np.array_equal(mu.density, g.density)

    def test_mass_one(self, setup):
        _, _, mu_d = setup
        assert mu_d.moment(lambda x: np.ones_like(x)) == pytest.approx(
            1.0, abs=1e-12)

    def test_ratio_bounds(self, setup):
        s, pert, mu_d = setup
        bound = DELTA * pert.M
        assert bound < 1.0
        ratio = 1.0 + DELTA * pert.g_M
        assert np.array_equal(mu_d.density, ratio * s.gibbs.density)
        assert ratio.min() > 1.0 - bound - 1e-12
        assert ratio.max() < 1.0 + bound + 1e-12
        assert ratio.min() > 0.0
        assert ratio.max() < 2.0

    def test_observable_shift_identity(self, setup):
        # mu_delta(f) - mu(f) = delta * mu(g_M f) exactly, checked by
        # quadrature for polynomial observables
        s, pert, mu_d = setup
        x = s.gibbs.rule.nodes
        g_M = pert.g_M_at(x)
        for f in (x, x ** 2, x ** 3 - x):
            got = mu_d.moment(f) - s.gibbs.moment(f)
            assert got == pytest.approx(DELTA * s.gibbs.moment(g_M * f),
                                        abs=1e-10)

    def test_linearity_in_delta(self, dawson_sub):
        g = dawson_sub.gibbs
        g_M, _, _ = truncate_center(g, np.sin(g.rule.nodes), 2.0)
        f = g.rule.nodes ** 2
        shifts = [perturbed_measure(g, g_M, d).moment(f) - g.moment(f)
                  for d in (1e-4, 1e-3, 1e-2)]
        assert shifts[1] == pytest.approx(10 * shifts[0], rel=1e-9)
        assert shifts[2] == pytest.approx(100 * shifts[0], rel=1e-9)

    def test_cdf_matches_closed_form(self):
        # cosine law N(mu0, s^2) reweighted by 1 + delta (x - mu0): since
        # int_{-inf}^x (y - mu0) phi(y) dy = -s^2 phi(x), the CDF is
        # Phi(x) - delta s^2 phi(x) exactly
        beta, m, delta = 2.0, 0.3, 1e-2
        mdl = cosine_model(beta=beta)
        g = build_gibbs(mdl, m, GridSpec(panel_degree=60))
        x = g.rule.nodes
        mu0, s = beta * m, mdl.sigma / np.sqrt(2)
        mu_d = perturbed_measure(g, x - mu0, delta)
        ref = norm.cdf(x, mu0, s) - delta * s ** 2 * norm.pdf(x, mu0, s)
        assert np.abs(mu_d.cdf - ref).max() < 1e-4

    def test_nonfinite_observable_names_node(self, setup):
        # the perturbed law shares the base law's checked moment
        _, _, mu_d = setup
        vals = np.zeros(mu_d.rule.nodes.size)
        vals[3] = -np.inf
        with pytest.raises(ValueError, match=re.escape(
                f"not finite at node x={mu_d.rule.nodes[3]!r}")):
            mu_d.moment(vals)

    def test_amplitude_bound_cites_delta0(self, dawson_sub):
        g = dawson_sub.gibbs
        g_M, _, _ = truncate_center(g, g.rule.nodes ** 3, 4.0)
        delta0 = 1.0 / np.abs(g_M).max()
        with pytest.raises(ValueError, match="Delta_0"):
            perturbed_measure(g, g_M, 1.01 * delta0)


class TestMakePerturbation:
    def test_gamma_check_small_for_adjoint(self, setup):
        s, pert, _ = setup
        # direction is normalized in L2, so the target is 1 percent of 1
        assert pert.gamma < 0.01

    def test_custom_direction_read_one_way(self, dawson_sub, tmp_path):
        # the CSV direction is interpolated everywhere, not projected on
        # the basis, so g_M_at reads at the nodes the g_M the law is
        # built from
        x = np.linspace(-3.0, 3.0, 121)
        h = x + 0.3 * x ** 2
        path = tmp_path / "dir.csv"
        np.savetxt(path, np.column_stack([x, h]), delimiter=",",
                   header="x,h", comments="")
        pert = make_perturbation(dawson_sub, delta=1e-3,
                                 h=read_direction(str(path)))
        nodes = dawson_sub.gibbs.rule.nodes
        assert np.array_equal(pert.h(nodes), np.interp(nodes, x, h))
        assert np.array_equal(pert.g_M_at(nodes), pert.g_M)
        assert np.array_equal(pert.law.density, (1.0 + 1e-3 * pert.g_M)
                              * dawson_sub.gibbs.density)


class TestSampleMeasure:
    def test_empty(self, setup):
        _, _, mu_d = setup
        assert sample_measure(mu_d, 0, seed=1).size == 0

    def test_deterministic(self, setup):
        _, _, mu_d = setup
        a = sample_measure(mu_d, 1000, seed=42)
        b = sample_measure(mu_d, 1000, seed=42)
        assert np.array_equal(a, b)
        c = sample_measure(mu_d, 1000, seed=43)
        assert not np.array_equal(a, c)

    def test_empirical_mean_within_band(self, setup):
        s, _, mu_d = setup
        n = 100_000
        xs = sample_measure(mu_d, n, seed=7)
        gvals = s.gibbs.model.g(xs)
        target = mu_d.moment(s.gibbs.model.g)
        var = mu_d.moment(lambda x: s.gibbs.model.g(x) ** 2) - target ** 2
        se = np.sqrt(var / n)
        assert abs(gvals.mean() - target) < 3 * se

    def test_kolmogorov_smirnov_band(self, setup):
        s, _, mu_d = setup
        n = 100_000
        xs = np.sort(sample_measure(mu_d, n, seed=8))
        F = np.interp(xs, mu_d.rule.nodes, mu_d.cdf)
        i = np.arange(1, n + 1)
        ks = max(np.abs(i / n - F).max(), np.abs((i - 1) / n - F).max())
        assert ks < 1.63 / np.sqrt(n)    # 99 percent band

    @pytest.mark.parametrize("law", ["gibbs_m05", "mu_delta"])
    def test_quantile_law_reproduces_mean(self, dawson_sub, law):
        # noise-free: a fine uniform grid of probabilities pushed through
        # the sampler's knots must reproduce the tabulated mean.  The two
        # laws are the particle start laws of the engine-agreement and
        # particle-escape criteria; a half-node CDF offset shifts both
        # means by -1.4e-3
        if law == "gibbs_m05":
            meas = build_gibbs(dawson_sub.gibbs.model, 0.5)
        else:
            meas = make_perturbation(analyze_branch(dawson_sub.gibbs, 120),
                                     delta=1e-3).law
        k = 2 ** 22
        xq = quantile_function(meas)((np.arange(k) + 0.5) / k)
        assert abs(xq.mean() - meas.moment(lambda x: x)) < 1e-8

    def test_negative_count_rejected(self, setup):
        _, _, mu_d = setup
        with pytest.raises(ValueError, match="nonnegative"):
            sample_measure(mu_d, -1, seed=0)


class TestQuantileFunctionMatchesPchip:
    """The numpy monotone cubic is scipy's PchipInterpolator, bit for bit."""

    @staticmethod
    def pchip_quantile(meas):
        cdf = meas.cdf
        keep = np.nonzero(np.diff(cdf, prepend=-1.0) > 1e-15)[0]
        knots = cdf[keep]
        inv = PchipInterpolator(knots, meas.rule.nodes[keep],
                                extrapolate=False)
        return (lambda u: inv(np.clip(u, knots[0], knots[-1]))), knots

    @pytest.mark.parametrize("law", ["gibbs", "mu_delta"])
    def test_equal_on_knots_ends_and_between(self, setup, law):
        s, _, mu_d = setup
        meas = s.gibbs if law == "gibbs" else mu_d
        ref, knots = self.pchip_quantile(meas)
        u = np.concatenate([knots, [knots[0], knots[-1], 0.0, 1.0],
                            0.5 * (knots[1:] + knots[:-1]),
                            np.random.default_rng(0).random(10_000)])
        assert np.array_equal(quantile_function(meas)(u), ref(u))

    def test_samples_equal_pchip_reference(self, setup):
        _, _, mu_d = setup
        ref, _ = self.pchip_quantile(mu_d)
        gen = np.random.Generator(np.random.Philox(key=0))
        assert np.array_equal(sample_measure(mu_d, 10_000, seed=0),
                              ref(gen.random(10_000)))


class TestDualNormScaling:
    def test_linear_in_delta(self, dawson_sub):
        # the W1 distance of the perturbation (the dual norm at weight
        # exponent 0) must scale linearly with the amplitude; the node
        # CDFs are linear in delta, so only rounding breaks the ratio
        g = dawson_sub.gibbs
        g_M, _, _ = truncate_center(g, np.sin(g.rule.nodes), 2.0)
        vals = [w1_density(g.rule.nodes, perturbed_measure(g, g_M, d).cdf,
                           g.cdf) for d in (1e-4, 1e-3, 1e-2)]
        assert vals[1] / vals[0] == pytest.approx(10.0, rel=1e-9)
        assert vals[2] / vals[1] == pytest.approx(10.0, rel=1e-9)
