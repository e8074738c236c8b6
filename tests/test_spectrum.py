import dataclasses

import numpy as np
import pytest

from mvstab.model import (build_model, dawson_model,
                          rescaled_double_well_model)
from mvstab.numerics import EigenSystem, dense_spectrum, find_roots
from mvstab.spectrum import (RankOneCoupling, analyze_branch, base_spectrum,
                             build_basis, coupling_vectors, dirichlet_matrix,
                             secular_function, solve_secular, unstable_mode)
from mvstab.stationary import (GibbsFamily, GridSpec, build_gibbs,
                               make_rule, self_consistent_roots)

from conftest import SIGMA_C_DAWSON_BETA1
from reference import full_generator_matrix, linearized_propagate


def hermite_normalized(k, z):
    """Probabilists' Hermite polynomial He_k(z)/sqrt(k!)."""
    import math
    c = np.zeros(k + 1)
    c[k] = 1.0
    return np.polynomial.hermite_e.hermeval(z, c) / math.sqrt(math.factorial(k))


def cosine_basis(cosine_unstable, degree):
    """The cosine branch's basis at the fixture's degree 40, or at the
    production degree 120 on its GridSpec(panel_degree=124) grid."""
    if degree == cosine_unstable.basis.degree:
        return cosine_unstable.basis
    g = cosine_unstable.gibbs
    return build_basis(build_gibbs(g.model, g.m, GridSpec(panel_degree=124)),
                       degree)


@pytest.fixture(scope="module")
def rescaled_sub():
    """rescaled_double_well below the critical noise, at the symmetric
    root; its coupling u0 ~ x^(1/3) is not a polynomial."""
    mdl = rescaled_double_well_model(1.0, 0.8 * SIGMA_C_DAWSON_BETA1)
    return analyze_branch(build_gibbs(mdl, 0.0), 80)


class TestBuildBasis:
    def test_p0_is_one(self, cosine_unstable):
        assert np.allclose(cosine_unstable.basis.node_values[0], 1.0)

    @pytest.mark.parametrize("degree", [40, 120])
    def test_gram_identity(self, cosine_unstable, degree):
        b = cosine_basis(cosine_unstable, degree)
        mu = b.gibbs.rule.weights * b.gibbs.density
        gram = (b.node_values * mu) @ b.node_values.T
        assert np.abs(gram - np.eye(b.degree + 1)).max() < 1e-10

    @pytest.mark.parametrize("degree", [40, 120])
    def test_gaussian_weight_gives_hermite(self, cosine_unstable, degree):
        # closed-form oracle: the orthonormal polynomials of N(mu0, 1)
        # are shifted normalized probabilists' Hermite polynomials,
        # with recurrence alpha_k = mu0 and beta_k = k
        b = cosine_basis(cosine_unstable, degree)
        mu0 = b.gibbs.model.beta * b.gibbs.m
        assert np.abs(b.alpha[:20] - mu0).max() < 1e-10
        assert np.abs(b.beta_sq[1:20] - np.arange(1, 20)).max() < 1e-9
        x = b.gibbs.rule.nodes
        for k in (1, 2, 5, 9, 12):
            ref = hermite_normalized(k, x - mu0)
            sgn = np.sign(ref[np.argmax(np.abs(ref))]
                          * b.node_values[k][np.argmax(np.abs(ref))])
            dev = np.abs(sgn * b.node_values[k] - ref)
            assert dev.max() < 1e-10 * max(1.0, np.abs(ref).max())

    def test_derivative_values(self, cosine_unstable):
        # d/dx He_k = k He_{k-1}, so normalized rows obey
        # p_k' = sqrt(k) p_{k-1} for a unit Gaussian weight: D has
        # sqrt(k) on its first subdiagonal and nothing else.  Truncation
        # pollutes the top degrees, so the check covers the lower half.
        D = cosine_unstable.basis.derivative_matrix()[:21, :21]
        assert np.abs(np.diag(D, -1) - np.sqrt(np.arange(1, 21))).max() < 1e-8
        assert np.abs(D - np.diag(np.diag(D, -1), -1)).max() < 1e-8

    def test_eval_at_matches_node_values(self, dawson_sub):
        b = dawson_sub.basis
        P = b.eval_at(b.gibbs.rule.nodes)
        scale = np.abs(b.node_values).max(axis=1, keepdims=True)
        assert (np.abs(P - b.node_values) / scale).max() < 1e-9

    def test_eval_series_zero_beyond_the_nodes(self, dawson_sub):
        # the series is fitted to the law on the nodes: between them it
        # is the polynomial, beyond them 0, not an extrapolation
        b = dawson_sub.basis
        x = b.gibbs.rule.nodes
        c = dawson_sub.spectrum.vectors[:, 1]
        inside = np.concatenate([x, 0.5 * (x[1:] + x[:-1])])
        assert np.array_equal(b.eval_series(c, inside),
                              c @ b.eval_at(inside))
        beyond = np.array([x[0] - 5.0, np.nextafter(x[0], -np.inf),
                           np.nextafter(x[-1], np.inf), x[-1] + 5.0])
        assert np.array_equal(b.eval_series(c, beyond), np.zeros(4))

    def test_degree_beyond_quadrature_rejected(self):
        g = build_gibbs(dawson_model(1.0, 0.6), 0.0,
                        GridSpec(panel_degree=40))
        with pytest.raises(ValueError, match="exactness"):
            build_basis(g, 60)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_nan_basis_rejected(self):
        # a law with sd 0.003 puts mass on about 24 nodes; the recurrence
        # overflows to NaN at degree 60, which a plain `dev > 1e-8` or
        # `beta_sq <= 0` comparison lets through
        g = build_gibbs(dawson_model(1.0, 0.7), 0.0, GridSpec(panel_degree=64))
        x = g.rule.nodes
        rho = np.exp(-0.5 * (x / 0.003) ** 2)
        narrow = dataclasses.replace(g, density=rho / np.dot(g.rule.weights,
                                                             rho))
        with pytest.raises(ValueError):
            build_basis(narrow, 60)


class TestDirichletMatrix:
    def test_row_zero_vanishes(self, dawson_sub):
        K = dirichlet_matrix(dawson_sub.basis)
        assert np.all(K[0] == 0.0)
        assert np.all(K[:, 0] == 0.0)

    def test_symmetric_psd(self, dawson_sub):
        K = dirichlet_matrix(dawson_sub.basis)
        assert np.abs(K - K.T).max() == 0.0
        assert np.linalg.eigvalsh(K).min() > -1e-10

    def test_cosine_diagonal_integers(self, cosine_unstable):
        # Hermite eigenrelation oracle: the energy form of the unit
        # Gaussian is diagonal with entries 0, 1, 2, ...  The domain
        # truncation (tail mass ~1e-14) pollutes degrees near the top of
        # the basis, so the comparison covers the converged lower half.
        K = dirichlet_matrix(cosine_unstable.basis)[:21, :21]
        assert np.abs(np.diag(K) - np.arange(21)).max() < 1e-8
        off = K - np.diag(np.diag(K))
        assert np.abs(off).max() < 1e-8


class TestBaseSpectrum:
    def test_zero_mode(self, dawson_sub):
        assert dawson_sub.spectrum.values[0] == 0.0
        assert dawson_sub.spectrum.values[1] > 0

    def test_cosine_gap_is_one(self, cosine_unstable):
        assert cosine_unstable.spectrum.values[1] == pytest.approx(1.0, abs=1e-8)

    def test_cosine_integer_ladder(self, cosine_unstable):
        vals = cosine_unstable.spectrum.values[:11]
        assert np.abs(vals - np.arange(11)).max() < 1e-8


class TestCouplingVectors:
    def test_cosine_pairing_closed_form(self, cosine_unstable):
        # the only surviving secular product is <e_1, cos - m> =
        # -e^{-1/2} sin(beta m)
        cu = cosine_unstable
        beta, m0 = cu.gibbs.model.beta, cu.gibbs.m
        got = cu.coupling.phi_hat[1] * cu.coupling.v_hat[1]
        assert got == pytest.approx(-np.exp(-0.5) * np.sin(beta * m0), abs=1e-8)

    def test_phi_centered(self, dawson_sub):
        assert dawson_sub.coupling.phi_hat[0] == 0.0

    def test_ell_kills_constants(self, dawson_sub):
        assert dawson_sub.coupling.ell[0] == 0.0

    def test_ell_against_direct_quadrature(self, dawson_sub):
        # two-route oracle: ell_j = mu(v' e_j') by direct quadrature, with
        # p_k' tabulated at the nodes by the differentiated recurrence
        s = dawson_sub
        b = s.basis
        mu = s.gibbs.rule.weights * s.gibbs.density
        x = s.gibbs.rule.nodes
        P = b.node_values
        dP = np.zeros_like(P)
        for k in range(b.degree):
            dq = (x - b.alpha[k]) * dP[k] + P[k]
            if k > 0:
                dq -= np.sqrt(b.beta_sq[k]) * dP[k - 1]
            dP[k + 1] = dq / np.sqrt(b.beta_sq[k + 1])
        dE = s.spectrum.vectors.T @ dP
        direct = dE @ (mu * s.gibbs.model.c(x))
        assert np.abs(direct - s.coupling.ell).max() < 1e-8

    def test_parseval_covariance(self, dawson_sub):
        s = dawson_sub
        x = s.gibbs.rule.nodes
        phi = s.gibbs.model.g(x) - s.gibbs.m
        v = s.gibbs.model.coupling_v(x)
        cov = s.gibbs.moment(phi * v) - s.gibbs.moment(phi) * s.gibbs.moment(v)
        assert np.dot(s.coupling.phi_hat[1:], s.coupling.v_hat[1:]) == \
            pytest.approx(cov, abs=1e-8)

    def test_requires_self_consistent_measure(self):
        mdl = dawson_model(1.0, 0.6)
        g = build_gibbs(mdl, 0.4)
        b = build_basis(g, 30)
        spec = base_spectrum(dirichlet_matrix(b))
        with pytest.raises(ValueError, match="not centered"):
            coupling_vectors(b, spec)


class TestSecular:
    def test_decay_at_infinity(self, dawson_sub):
        s = dawson_sub
        s_inf = secular_function(s.spectrum, s.coupling, 1e6)
        s_zero = secular_function(s.spectrum, s.coupling, 0.0)
        assert abs(s_inf) < 1e-4 * abs(s_zero)

    def test_matches_stability_indicator(self, dawson_sub):
        s = dawson_sub
        s0 = GibbsFamily(s.gibbs.model, s.gibbs.rule).indicator(s.gibbs.m)
        assert secular_function(s.spectrum, s.coupling, 0.0) == pytest.approx(
            s0, abs=1e-6)

    def test_cosine_closed_form_curve(self, cosine_unstable):
        cu = cosine_unstable
        beta, m0 = cu.gibbs.model.beta, cu.gibbs.m
        num = -beta * np.exp(-0.5) * np.sin(beta * m0)
        for lam in (0.0, 0.5, 2.0, 7.3):
            assert secular_function(cu.spectrum, cu.coupling, lam) == \
                pytest.approx(num / (1 + lam), abs=1e-8)

    def test_rejects_negative_argument(self, dawson_sub):
        with pytest.raises(ValueError):
            secular_function(dawson_sub.spectrum, dawson_sub.coupling, -0.5)

    def test_terms_positive_for_gradient_coupling(self, dawson_sub):
        # with v = phi every secular term is a square, so S decreases
        s = dawson_sub
        terms = s.spectrum.values[1:] * s.coupling.v_hat[1:] * s.coupling.phi_hat[1:]
        assert terms.min() > -1e-14
        lams = np.linspace(0, 2, 30)
        vals = [secular_function(s.spectrum, s.coupling, l) for l in lams]
        assert np.all(np.diff(vals) < 0)

    def test_solve_closed_form(self, cosine_unstable):
        cu = cosine_unstable
        beta, m0 = cu.gibbs.model.beta, cu.gibbs.m
        closed = -1.0 - np.exp(-0.5) * beta * np.sin(beta * m0)
        assert cu.mode.lambda_star == pytest.approx(closed, abs=1e-6)

    def test_absent_above_critical(self, dawson_super):
        assert dawson_super.mode.lambda_star is None

    def test_bracket_without_root_rejected(self, dawson_sub):
        # S - 1 keeps one sign on [40, 60], so the safeguarded Newton
        # iteration shrinks the bracket onto its end without converging
        sp, cp = dawson_sub.spectrum, dawson_sub.coupling
        a = cp.beta * cp.ell[1:] * cp.phi_hat[1:]
        with pytest.raises(ValueError, match="stalled"):
            solve_secular(sp.values[1:], a, (40.0, 60.0))

    @pytest.mark.parametrize("branch", ["dawson_sub", "dawson_super",
                                        "cosine_unstable", "rescaled_sub"])
    def test_root_matches_scan(self, branch, request):
        # independent oracle: the 4001-point scan with bisection to 1e-13
        # that located the root before it came from the dense spectrum
        br = request.getfixturevalue(branch)
        sp, cp = br.spectrum, br.coupling
        bound = cp.beta * np.abs(cp.ell * cp.phi_hat).sum()
        scan = [r for r in find_roots(
            lambda z: secular_function(sp, cp, z) - 1.0, (1e-12, bound + 1.0),
            n_scan=4001, tol=1e-13) if r > 1e-9]
        lam = br.mode.lambda_star
        assert (lam is None) == (not scan)
        if scan:
            assert abs(lam - scan[-1]) <= 1e-12
            assert abs(secular_function(sp, cp, lam) - 1.0) <= 1e-12

    @pytest.mark.slow
    @pytest.mark.parametrize("mdl,m0", [
        (dawson_model(1.0, 0.8 * SIGMA_C_DAWSON_BETA1), 0.0),
        (rescaled_double_well_model(1.0, 0.8 * SIGMA_C_DAWSON_BETA1), 0.0),
    ], ids=["dawson", "rescaled"])
    def test_refinement_stability(self, mdl, m0):
        out = {}
        for n in (100, 200):
            br = analyze_branch(
                build_gibbs(mdl, m0, GridSpec(panel_degree=n + 4)), n)
            out[n] = (br.spectrum.values[1],
                      secular_function(br.spectrum, br.coupling, 0.0),
                      br.mode.lambda_star)
        for a, b_ in zip(out[100], out[200]):
            assert a == pytest.approx(b_, abs=1e-6)

    def test_refinement_stability_cosine(self, cosine_unstable):
        cu = cosine_unstable
        br = analyze_branch(build_gibbs(cu.gibbs.model, cu.gibbs.m,
                                        GridSpec(panel_degree=100)), 80)
        assert br.spectrum.values[1] == pytest.approx(cu.spectrum.values[1],
                                                      abs=1e-6)
        assert br.mode.lambda_star == pytest.approx(cu.mode.lambda_star,
                                                    abs=1e-6)


class TestFullGeneratorMatrix:
    def test_beta_zero_spectrum_unchanged(self):
        mdl = dawson_model(beta=0.0, sigma=0.7)
        br = analyze_branch(build_gibbs(mdl, 0.0), 30)
        M = full_generator_matrix(br.spectrum, br.coupling)
        vals = np.sort(dense_spectrum(M).values.real)
        assert np.abs(vals - np.sort(-br.spectrum.values)).max() < 1e-10

    def test_constant_mode_annihilated(self, dawson_sub):
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        e0 = np.zeros(M.shape[0])
        e0[0] = 1.0
        assert np.all(M @ e0 == 0.0)

    def test_dominant_eigenvalue_matches_secular_root(self, dawson_sub):
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        lam = dawson_sub.mode.lambda_star
        assert dense_spectrum(M).abscissa == pytest.approx(lam, abs=1e-9)

    def test_dimension_mismatch(self, dawson_sub, cosine_unstable):
        with pytest.raises(ValueError, match="mismatch"):
            full_generator_matrix(dawson_sub.spectrum, cosine_unstable.coupling)


class TestUnstableMode:
    def test_pairing_normalization(self, dawson_sub):
        m = dawson_sub.mode
        assert np.dot(dawson_sub.coupling.ell, m.f_star) == pytest.approx(
            1.0, abs=1e-8)

    def test_eigen_residual(self, dawson_sub):
        m = dawson_sub.mode
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        r = np.linalg.norm(M @ m.f_star - m.lambda_star * m.f_star)
        assert r <= 1e-8 * np.linalg.norm(m.f_star)

    def test_cosine_fstar_hermite_pattern(self, cosine_unstable):
        # Hermite expansion oracle: the coefficients of cos in the
        # shifted basis are Re(i^k e^{i beta m}) e^{-1/2} / sqrt(k!),
        # so f*_k = beta phi_k / (k + lambda*) follows in closed form
        cu = cosine_unstable
        beta, m0 = cu.gibbs.model.beta, cu.gibbs.m
        lam = cu.mode.lambda_star
        ks = np.arange(1, 13)
        fact = np.array([float(np.prod(np.arange(1, k + 1))) for k in ks])
        phi = (np.exp(-0.5) / np.sqrt(fact)
               * np.real(1j ** ks * np.exp(1j * beta * m0)))
        expected = beta * phi / (ks + lam)
        got = cu.mode.f_star[1:13]
        sgn = np.sign(got[0] * expected[0])
        assert np.abs(sgn * got - expected).max() < 1e-8

    def test_verdicts(self, dawson_sub, dawson_super):
        assert dawson_sub.mode.verdict == "unstable"
        assert dawson_sub.mode.lambda_star is not None
        assert secular_function(dawson_sub.spectrum, dawson_sub.coupling,
                                0.0) > 1
        assert dawson_super.mode.verdict == "stable-indicator"
        assert dawson_super.mode.lambda_star is None
        assert dawson_super.mode.f_star is None

    def test_dominant_eigenvalue_at_least_secular_root(self, dawson_sub):
        m = dawson_sub.mode
        assert m.lambda0 >= m.lambda_star - 1e-6
        assert m.lambda0 == pytest.approx(m.lambda_star, abs=1e-9)

    def test_simple_dominant_eigenvalue(self, dawson_sub, cosine_unstable):
        for s in (dawson_sub, cosine_unstable):
            assert s.mode.k0 == 1

    def test_adjoint_pairing_nonzero(self, dawson_sub):
        # left/right eigenvectors of a simple eigenvalue cannot be
        # orthogonal
        m = dawson_sub.mode
        pairing = np.vdot(m.adjoint_vec, m.f_star)
        assert abs(pairing) > 1e-6 * np.linalg.norm(m.f_star)

    def test_adjoint_is_left_eigenvector(self, dawson_sub):
        m = dawson_sub.mode
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        u = m.adjoint_vec
        assert np.linalg.norm(u @ M - m.lambda0 * u) < 1e-8

    def test_mixed_sign_weights_rejected(self):
        # a_j = beta ell_j phi_j = (1, -1, 1): the rank-one update is no
        # longer similar to a symmetric matrix and may have complex roots
        spectrum = EigenSystem(values=np.arange(4.0), vectors=np.eye(4))
        coupling = RankOneCoupling(phi_hat=np.array([0.0, 1.0, 1.0, 1.0]),
                                   v_hat=np.zeros(4),
                                   ell=np.array([0.0, 1.0, -1.0, 1.0]),
                                   beta=1.0)
        with pytest.raises(ValueError, match="change sign"):
            unstable_mode(spectrum, coupling)


STRUCTURED_CASES = [
    ("dawson", 1.0, 0.8 * SIGMA_C_DAWSON_BETA1),
    ("dawson", -1.0, 0.8 * SIGMA_C_DAWSON_BETA1),
    ("rescaled_double_well", 1.0, 0.8 * SIGMA_C_DAWSON_BETA1),
] + [("cosine", beta, sigma) for beta in (1.0, 4.0, 12.8, -6.0)
     for sigma in (0.5, 1.0, np.sqrt(2.0))]


@pytest.mark.parametrize("name,beta,sigma", STRUCTURED_CASES)
def test_structured_mode_matches_dense_spectrum(name, beta, sigma):
    # independent oracle: numpy's nonsymmetric eigensolve of the
    # mass-zero Galerkin block, on every branch of the setting; stable
    # cosine branches have the deflated -lambda_2 = -2 as dominant value
    mdl = build_model(name, beta=beta, sigma=sigma)
    for m0 in self_consistent_roots(mdl, n_scan=401).roots:
        br = analyze_branch(build_gibbs(mdl, m0), 120)
        M = full_generator_matrix(br.spectrum, br.coupling)
        vals = dense_spectrum(M[1:, 1:]).values
        lam0 = vals[np.argmax(vals.real)]
        mode = br.mode
        assert abs(lam0.imag) < 1e-12
        assert abs(mode.lambda0 - lam0.real) <= 1e-11
        assert mode.k0 == np.sum(np.abs(vals - lam0) < 1e-8)
        assert mode.verdict == ("unstable" if lam0.real > 1e-7
                                else "stable-indicator")
        u = mode.adjoint_vec
        assert np.linalg.norm(u @ M - mode.lambda0 * u) <= 1e-8


@pytest.fixture(scope="module")
def dawson_pitchfork():
    """Normal-form coefficients of the dawson pitchfork at sigma_c, beta = 1:
    the slope -d_sigma S0 / d_lambda S(0) of lambda_star in sigma - sigma_c,
    with d_lambda S(0) = -sum a_j / lambda_j^2, and psi'''(0), which the
    tilt makes exactly kappa^3 times the fourth cumulant of x under mu_0."""
    sc = SIGMA_C_DAWSON_BETA1

    def s0(sig):
        mdl = dawson_model(beta=1.0, sigma=sig)
        return GibbsFamily(mdl, make_rule(mdl, GridSpec(), (0.0,))
                           ).indicator(0.0)

    mdl = dawson_model(beta=1.0, sigma=sc)
    gibbs = build_gibbs(mdl, 0.0)
    br = analyze_branch(gibbs, 60)
    a = br.coupling.beta * br.coupling.ell[1:] * br.coupling.phi_hat[1:]
    dS_dlam = -np.sum(a / br.spectrum.values[1:] ** 2)
    h = 1e-4
    dS0_dsig = (s0(sc + h) - s0(sc - h)) / (2 * h)
    var = gibbs.moment(lambda x: x ** 2)
    kappa4 = gibbs.moment(lambda x: x ** 4) - 3.0 * var ** 2
    return s0, -dS0_dsig / dS_dlam, mdl.kappa ** 3 * kappa4


class TestPitchforkNormalForm:
    @pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5])
    def test_rate_and_outer_root(self, dawson_pitchfork, eps):
        # critical slowing-down at sigma = sigma_c (1 - eps): lambda_star ~
        # slope (sigma - sigma_c) and m_plus ~ sqrt(-6 (S0 - 1) / psi'''(0))
        # are leading terms in eps.  The next order is a relative O(eps),
        # measured at 0.011 eps on lambda_star and 1.15 eps on m_plus, so
        # both ratios are held to 2 eps.  The frozen sigma_c sits 5e-12 off
        # the closed form, 5e-7 of sigma_c - sigma at eps = 1e-5, which
        # that bound also covers.
        s0, slope, psi3 = dawson_pitchfork
        sig = SIGMA_C_DAWSON_BETA1 * (1.0 - eps)
        mdl = dawson_model(beta=1.0, sigma=sig)
        lam = analyze_branch(build_gibbs(mdl, 0.0), 60).mode.lambda_star
        assert lam == pytest.approx(slope * (sig - SIGMA_C_DAWSON_BETA1),
                                    rel=2 * eps)
        m_plus = max(self_consistent_roots(mdl).roots)
        assert m_plus == pytest.approx(np.sqrt(-6.0 * (s0(sig) - 1.0) / psi3),
                                       rel=2 * eps)


class TestLinearizedPropagate:
    def test_time_zero_identity(self, dawson_sub):
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        c = np.sin(np.arange(M.shape[0]))
        assert np.allclose(linearized_propagate(M, c, 0.0), c, atol=1e-14)

    def test_constant_mode_exact(self, dawson_sub):
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        e0 = np.zeros(M.shape[0])
        e0[0] = 1.0
        for t in (0.5, 1.0, 5.0):
            assert np.array_equal(linearized_propagate(M, e0, t), e0)

    def test_unstable_mode_growth(self, dawson_sub):
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        f = dawson_sub.mode.f_star
        lam = dawson_sub.mode.lambda_star
        for t in (0.5, 1.0, 2.0, 10.0):
            out = linearized_propagate(M, f, t)
            ref = np.exp(lam * t) * f
            assert np.linalg.norm(out - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_overflow_guard(self, cosine_unstable):
        M = full_generator_matrix(cosine_unstable.spectrum,
                                  cosine_unstable.coupling)
        f = cosine_unstable.mode.f_star
        with pytest.raises(OverflowError, match="700"):
            linearized_propagate(M, f, 200.0)

    def test_negative_time_rejected(self, dawson_sub):
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        with pytest.raises(ValueError, match="nonnegative"):
            linearized_propagate(M, np.zeros(M.shape[0]), -1.0)
