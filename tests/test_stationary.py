import numpy as np
import pytest
from scipy.stats import norm

from mvstab.model import cosine_model, dawson_model, rescaled_double_well_model
from mvstab.numerics import find_roots
from mvstab.stationary import (GridSpec, TruncationError, auto_half_width,
                               build_gibbs, critical_sigma, psi,
                               self_consistent_roots, stability_indicator)

# bisection value, cross-checked against the closed form
# 2 sqrt(2) Gamma(3/4) / Gamma(1/4) in test_critical_sigma_closed_form
SIGMA_C_DAWSON_BETA1 = 0.9559775949676983


def trapezoid_moment(model, m, f, L=4.0, n=100_001):
    """Independent brute-force quadrature oracle on a dense uniform grid."""
    xs = np.linspace(-L, L, n)
    logw = model.log_gibbs(xs, m)
    w = np.exp(logw - logw.max())
    return np.trapezoid(f(xs) * w, xs) / np.trapezoid(w, xs)


class TestBuildGibbs:
    def test_cosine_density_is_gaussian(self):
        mdl = cosine_model(beta=2.0)
        g = build_gibbs(mdl, 0.3)
        x = g.rule.nodes
        ref = np.exp(-(x - 0.6) ** 2 / 2) / np.sqrt(2 * np.pi)
        assert np.abs(g.density - ref).max() < 1e-10

    def test_total_mass(self):
        for mdl in (dawson_model(1.0, 0.6), cosine_model(1.5),
                    rescaled_double_well_model(1.0, 0.7)):
            g = build_gibbs(mdl, 0.1)
            assert g.moment(lambda x: np.ones_like(x)) == pytest.approx(
                1.0, abs=1e-12)

    def test_second_moment_against_trapezoid_oracle(self):
        mdl = dawson_model(beta=1.0, sigma=0.6)
        g = build_gibbs(mdl, 0.0)
        oracle = trapezoid_moment(mdl, 0.0, lambda x: x ** 2)
        assert g.moment(lambda x: x ** 2) == pytest.approx(oracle, abs=1e-8)

    def test_cdf_is_mass_left_of_node(self):
        # the cosine law is N(beta m, sigma^2/2): the tabulated CDF must be
        # the Gaussian CDF at each node, not the running sum that also
        # counts half of the node's own cell (off by 5e-3 on this grid)
        mdl = cosine_model(beta=2.0)
        g = build_gibbs(mdl, 0.3, GridSpec(panel_degree=60))
        ref = norm.cdf(g.rule.nodes, 0.6, mdl.sigma / np.sqrt(2))
        assert np.abs(g.cdf - ref).max() < 1e-4

    def test_cdf_monotone_normalized(self):
        g = build_gibbs(dawson_model(1.0, 0.6), 0.2)
        # increments underflow in the far tail, so only weak monotonicity
        # holds in float64; the bulk must increase strictly
        assert np.all(np.diff(g.cdf) >= 0)
        bulk = g.density > 1e-10
        assert np.all(np.diff(g.cdf[bulk]) > 0)
        assert g.cdf[-1] == pytest.approx(1.0, abs=1e-12)
        assert g.cdf[0] < 1e-10

    def test_density_nonnegative(self):
        g = build_gibbs(rescaled_double_well_model(1.0, 0.6), 0.0)
        assert np.all(g.density >= 0)

    def test_truncation_error_advises_larger_L(self):
        with pytest.raises(TruncationError, match="enlarge"):
            build_gibbs(dawson_model(1.0, 0.9), 0.0, GridSpec(L=1.0))

    def test_minimum_resolution(self):
        with pytest.raises(ValueError, match="256"):
            build_gibbs(dawson_model(1.0, 0.6), 0.0,
                        GridSpec(n_panels=4, panel_degree=8))

    def test_auto_half_width_covers_heavy_tails(self):
        # the rescaled family decays like exp(-x^(4/3)), so its automatic
        # truncation must be much wider than the dawson one
        Lr = auto_half_width(rescaled_double_well_model(1.0, 0.7))
        Ld = auto_half_width(dawson_model(1.0, 0.7))
        assert Lr > Ld > 1.0


class TestMoment:
    def test_odd_integrand_vanishes(self):
        g = build_gibbs(dawson_model(1.0, 0.6), 0.0)
        assert g.moment(lambda x: x) == pytest.approx(0.0, abs=1e-12)

    def test_cos_moment_at_self_consistent_root(self):
        mdl = cosine_model(beta=2.0)
        roots = find_roots(lambda m: psi(mdl, m), (-1, 1), 801, 1e-12)
        assert roots  # the fixed-point map has at least one root
        for r in roots:
            g = build_gibbs(mdl, r)
            assert g.moment(np.cos) == pytest.approx(r, abs=1e-10)


class TestPsi:
    def test_zero_at_origin_for_symmetric(self):
        for mdl in (dawson_model(1.0, 0.6),
                    rescaled_double_well_model(1.0, 0.7)):
            assert psi(mdl, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_beta_zero_is_minus_m(self):
        mdl = dawson_model(beta=0.0, sigma=0.6)
        for m in (-0.5, 0.2, 0.8):
            assert psi(mdl, m) == pytest.approx(-m, abs=1e-12)

    def test_rescaled_equals_dawson(self):
        md = dawson_model(beta=1.0, sigma=0.7)
        mr = rescaled_double_well_model(beta=1.0, sigma=0.7)
        for m in np.linspace(-0.8, 0.8, 9):
            assert psi(mr, m) == pytest.approx(psi(md, m), abs=1e-8)

    def test_oddness_on_grid(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        for m in np.linspace(0.05, 1.0, 8):
            assert abs(psi(mdl, m) + psi(mdl, -m)) < 1e-10


class TestSelfConsistentRoots:
    def test_three_branches_below_critical(self):
        mdl = dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1)
        rep = self_consistent_roots(mdl)
        assert rep.branch_count == 3
        assert rep.roots[0] == pytest.approx(-rep.roots[2], abs=1e-9)
        assert rep.roots[1] == pytest.approx(0.0, abs=1e-9)
        assert rep.s0_per_root[1] > 1.0
        assert rep.s0_per_root[0] < 1.0 and rep.s0_per_root[2] < 1.0

    def test_single_branch_above_critical(self):
        mdl = dawson_model(beta=1.0, sigma=1.2 * SIGMA_C_DAWSON_BETA1)
        rep = self_consistent_roots(mdl)
        assert rep.branch_count == 1
        assert rep.roots[0] == pytest.approx(0.0, abs=1e-9)
        assert rep.s0_per_root[0] < 1.0

    def test_beta_zero_single_root(self):
        rep = self_consistent_roots(dawson_model(beta=0.0, sigma=0.6))
        assert rep.branch_count == 1
        assert rep.roots[0] == pytest.approx(0.0, abs=1e-9)

    def test_roots_survive_doubled_resolution(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        rep = self_consistent_roots(mdl)
        fine = GridSpec(n_panels=48, panel_degree=130)
        for r in rep.roots:
            assert abs(psi(mdl, r, grid_spec=fine)) < 1e-10

    def test_scan_range_must_contain_zero(self):
        with pytest.raises(ValueError, match="contain 0"):
            self_consistent_roots(dawson_model(1.0, 0.6), scan_range=(0.5, 2.0))

    def test_outer_branch_decreases_with_sigma(self):
        mdl = dawson_model(beta=1.0, sigma=0.5)
        mplus = []
        for s in np.linspace(0.4, 0.9, 6):
            rep = self_consistent_roots(mdl.with_params(sigma=s))
            mplus.append(rep.roots[-1])
        assert np.all(np.diff(mplus) < 0)


class TestStabilityIndicator:
    def test_beta_zero(self):
        assert stability_indicator(dawson_model(0.0, 0.6), 0.0) == pytest.approx(
            0.0, abs=1e-14)

    def test_supercritical_symmetric_root(self):
        mdl = dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1)
        assert stability_indicator(mdl, 0.0) > 1.0

    def test_requires_self_consistency(self):
        with pytest.raises(ValueError, match="not self-consistent"):
            stability_indicator(dawson_model(1.0, 0.6), 0.4)

    @pytest.mark.parametrize("mdl", [dawson_model(1.0, 0.7),
                                     rescaled_double_well_model(1.0, 0.7)],
                             ids=lambda m: m.name)
    def test_matches_one_plus_psi_prime(self, mdl):
        # finite-difference oracle for the identity S0 = 1 + psi'(root)
        rep = self_consistent_roots(mdl)
        h = 1e-5
        for r, s0 in zip(rep.roots, rep.s0_per_root):
            dpsi = (psi(mdl, r + h) - psi(mdl, r - h)) / (2 * h)
            assert s0 == pytest.approx(1.0 + dpsi, abs=1e-6)


class TestCriticalSigma:
    def test_exists_for_dawson(self):
        mdl = dawson_model(beta=1.0, sigma=0.6)
        cs = critical_sigma(mdl, (0.1, 3.0))
        assert cs.sigma_c is not None
        assert cs.sigma_c == pytest.approx(SIGMA_C_DAWSON_BETA1, abs=1e-9)
        lo, hi = cs.bracket
        assert lo <= cs.sigma_c <= hi
        assert stability_indicator(mdl.with_params(sigma=0.8 * cs.sigma_c), 0.0) > 1
        assert stability_indicator(mdl.with_params(sigma=1.2 * cs.sigma_c), 0.0) < 1

    def test_closed_form(self):
        # for the quartic well at beta=1 the crossing solves
        # (2/sigma^2) E[x^2] = 1 with E[x^2] = sigma * sqrt(2) G(3/4)/G(1/4)
        from math import gamma, sqrt
        closed = 2 * sqrt(2.0) * gamma(0.75) / gamma(0.25)
        assert SIGMA_C_DAWSON_BETA1 == pytest.approx(closed, abs=1e-10)

    def test_absent_for_beta_zero(self):
        cs = critical_sigma(dawson_model(beta=0.0, sigma=0.6), (0.1, 3.0))
        assert cs.sigma_c is None
        assert np.allclose(cs.indicator_curve[:, 1], 0.0)

    def test_absent_for_subthreshold_cosine(self):
        # at m = 0 the cosine covariance indicator vanishes identically
        cs = critical_sigma(cosine_model(beta=0.5), (0.5, 2.5))
        assert cs.sigma_c is None
