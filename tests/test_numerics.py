import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mvstab.numerics import (QuadratureRule, composite_gauss_legendre,
                             dense_spectrum, find_roots, sym_eig)

from reference import full_generator_matrix


def gaussian_rule(mean=0.0, L=9.0):
    rule = composite_gauss_legendre(L + abs(mean), n_panels=24, panel_degree=40)
    dens = np.exp(-(rule.nodes - mean) ** 2 / 2) / np.sqrt(2 * np.pi)
    return rule, dens


class TestIntegrate:
    def test_normalized_gaussian_mass(self):
        rule, dens = gaussian_rule()
        assert rule.weights @ dens == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_second_moment(self):
        rule, dens = gaussian_rule()
        assert rule.weights @ (rule.nodes ** 2 * dens) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("beta,m", [(1.0, 0.3), (2.0, -0.7), (12.8, 0.43)])
    def test_cos_against_shifted_gaussian(self, beta, m):
        # characteristic-function oracle: E cos(X) = e^{-1/2} cos(beta m)
        # for X ~ N(beta m, 1)
        rule, dens = gaussian_rule(mean=beta * m)
        got = rule.weights @ (np.cos(rule.nodes) * dens)
        assert got == pytest.approx(np.exp(-0.5) * np.cos(beta * m), abs=1e-12)

    def test_polynomial_exactness(self):
        rule = composite_gauss_legendre(2.0, n_panels=3, panel_degree=8)
        rng = np.random.default_rng(7)
        for _ in range(20):
            deg = rng.integers(0, rule.exact_degree + 1)
            coeffs = rng.standard_normal(deg + 1)
            p = np.polynomial.Polynomial(coeffs)
            exact = p.integ()(2.0) - p.integ()(-2.0)
            got = rule.weights @ p(rule.nodes)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_rule_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="positive"):
            QuadratureRule(nodes=np.array([0.0, 1.0]),
                           weights=np.array([1.0, -1.0]))


class TestFindRoots:
    def test_linear(self):
        assert find_roots(lambda x: x, (-1, 1)) == pytest.approx([0.0], abs=1e-10)

    def test_no_real_root(self):
        assert find_roots(lambda x: x * x + 1.0, (-2, 2)) == []

    def test_degenerate_interval(self):
        with pytest.raises(ValueError, match="degenerate"):
            find_roots(lambda x: x, (1.0, 1.0))

    def test_dawson_psi_three_roots(self):
        # independent oracle: 1e5-node trapezoid quadrature of the
        # self-consistency residual for the double-well drift at
        # beta=1, sigma=0.4, refined by plain bisection
        beta, sigma = 1.0, 0.4
        xs = np.linspace(-3.0, 3.0, 100_001)

        def psi_trap(m):
            logw = -(2 / sigma ** 2) * (xs ** 4 / 4 - xs ** 2 / 2
                                        + beta / 2 * (xs - m) ** 2)
            w = np.exp(logw - logw.max())
            return np.trapezoid((xs - m) * w, xs) / np.trapezoid(w, xs)

        roots = find_roots(psi_trap, (-2.0, 2.0), n_scan=801, tol=1e-10)
        assert len(roots) == 3
        assert roots[1] == pytest.approx(0.0, abs=1e-9)
        assert roots[0] == pytest.approx(-roots[2], abs=1e-9)
        # oracle sign pattern: psi > 0 between 0 and m_plus, < 0 beyond
        mp = roots[2]
        assert psi_trap(0.5 * mp) > 0
        assert psi_trap(1.5 * mp) < 0

    @given(st.lists(st.integers(min_value=-8, max_value=8), min_size=1,
                    max_size=4, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_finds_all_separated_polynomial_roots(self, int_roots):
        int_roots = sorted(int_roots)
        poly = np.polynomial.Polynomial.fromroots(int_roots)
        found = find_roots(poly, (-9.0, 9.0), n_scan=4001, tol=1e-11)
        assert len(found) == len(int_roots)
        assert np.allclose(found, int_roots, atol=1e-9)


class TestSymEig:
    def test_identity(self):
        es = sym_eig(np.eye(4))
        assert np.allclose(es.values, 1.0)

    def test_diagonal(self):
        es = sym_eig(np.diag([0.0, 1.0, 2.0]))
        assert np.allclose(es.values, [0, 1, 2])

    def test_two_by_two(self):
        es = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(es.values, [1.0, 3.0])

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((12, 12))
        K = A + A.T
        es = sym_eig(K)
        for lam, v in zip(es.values, es.vectors.T):
            assert np.linalg.norm(K @ v - lam * v) <= 1e-10 * np.linalg.norm(K)
        gram = es.vectors.T @ es.vectors
        assert np.abs(gram - np.eye(12)).max() < 1e-10

    def test_orthogonal_similarity_invariance(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((10, 10))
        K = A + A.T
        vals0 = sym_eig(K).values
        for _ in range(5):
            Q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
            vals = sym_eig(Q @ K @ Q.T).values
            assert np.abs(vals - vals0).max() < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eig(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestDenseSpectrum:
    def test_diagonal(self):
        ds = dense_spectrum(np.diag([-1.0, -2.0]))
        assert sorted(ds.values.real) == pytest.approx([-2.0, -1.0])
        assert ds.abscissa == pytest.approx(-1.0)

    def test_rotation(self):
        ds = dense_spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert sorted(ds.values.imag) == pytest.approx([-1.0, 1.0])
        assert ds.abscissa == pytest.approx(0.0, abs=1e-14)

    def test_left_right_biorthogonal(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6))
        ds = dense_spectrum(M)
        for k in range(6):
            u = ds.left_vectors[:, k]
            lam = ds.values[k]
            assert np.linalg.norm(u.conj() @ M - lam * u.conj()) < 1e-10 * np.linalg.norm(M)

    def test_abscissa_transpose_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            M = rng.standard_normal((7, 7))
            assert dense_spectrum(M).abscissa == pytest.approx(
                dense_spectrum(M.T).abscissa, abs=1e-10)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dense_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("case", ["dawson", "cosine", "random"])
    def test_matches_scipy_left_eig(self, request, case):
        # against scipy's left eigensolve, on the mass-zero Galerkin
        # blocks unstable_mode reads and on random matrices, which carry
        # complex-conjugate pairs
        if case == "random":
            rng = np.random.default_rng(5)
            mats = [rng.standard_normal((n, n)) for n in (5, 12, 40)]
        else:
            br = request.getfixturevalue(
                "dawson_sub" if case == "dawson" else "cosine_unstable")
            mats = [full_generator_matrix(br.spectrum, br.coupling)[1:, 1:]]
        for M in mats:
            ds = dense_spectrum(M)
            ref = scipy.linalg.eig(M, left=True, right=False)[0]
            if case == "random":
                assert np.any(ref.imag != 0)
            # each eigenvalue against its nearest counterpart, both ways,
            # relative to the spectral radius: a backward-stable solver
            # errs by about eps * |M| on every eigenvalue alike
            gap = np.abs(ds.values[:, None] - ref[None, :])
            tol = 1e-12 * np.abs(ref).max()
            assert gap.min(axis=1).max() <= tol
            assert gap.min(axis=0).max() <= tol
            scale = np.linalg.norm(M)
            for lam, u in zip(ds.values, ds.left_vectors.T):
                assert np.linalg.norm(u.conj() @ M - lam * u.conj()) \
                    <= 1e-12 * scale

