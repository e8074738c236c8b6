"""Spectral analysis of the linearized mean-field generator.

The generator of the frozen dynamics, L f = (sigma^2/2) f'' + b(x, m) f',
is self-adjoint in L^2(mu_m) through the energy form
mu(g L f) = -(sigma^2/2) mu(g' f').  We discretize it by Galerkin
projection on mu_m-orthonormal polynomials, which turns the form into a
dense symmetric matrix computable by quadrature.  The law-dependence of
the drift adds the rank-one operator

    A f = beta * phi(.) * integral(c f' dmu),   phi = g - m,

so in the eigenbasis of L the full linearization is diag(-lambda_j) plus
a rank-one update.  Its eigenvalues solve the scalar secular equation
S(lambda) = 1; a positive root lambda_star is the instability rate and
the associated mode f_star has coefficients beta*phi_j/(lambda_j +
lambda_star).
The Gibbs law enters once, through ``build_basis``; the energy matrix
and the coupling read it from the basis its polynomials belong to.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# find_roots stays bound: bench/tests/test_bench_tracer.py looks it up here
from .numerics import (DenseSpectrum, EigenSystem, dense_spectrum,  # noqa
                       find_roots, sym_eig)
from .stationary import GibbsMeasure


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal polynomials of the Gibbs measure, tabulated on its grid.

    ``alpha`` and ``beta_sq`` are the three-term recurrence coefficients

        sqrt(beta_sq[k+1]) p_{k+1} = (x - alpha[k]) p_k
                                     - sqrt(beta_sq[k]) p_{k-1},

    ``node_values``/``node_derivs`` hold p_k and p_k' at the quadrature
    nodes (rows indexed by degree), and ``gibbs`` is the law they are
    orthonormal under.  Construction runs the plain recurrence and checks
    the Gram matrix in the discrete inner product against the identity.
    """

    gibbs: GibbsMeasure
    degree: int
    alpha: np.ndarray
    beta_sq: np.ndarray
    node_values: np.ndarray
    node_derivs: np.ndarray

    def eval_at(self, x) -> np.ndarray:
        """Evaluate all basis polynomials at arbitrary points via recurrence."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        n = self.degree
        P = np.empty((n + 1, x.size))
        P[0] = 1.0
        if n >= 1:
            P[1] = (x - self.alpha[0]) / np.sqrt(self.beta_sq[1])
        for k in range(1, n):
            P[k + 1] = ((x - self.alpha[k]) * P[k]
                        - np.sqrt(self.beta_sq[k]) * P[k - 1]) \
                / np.sqrt(self.beta_sq[k + 1])
        return P

    def eval_series(self, coeffs, x) -> np.ndarray:
        """Evaluate sum_k coeffs[k] p_k at arbitrary points."""
        coeffs = np.asarray(coeffs)
        return coeffs @ self.eval_at(x)


def build_basis(gibbs: GibbsMeasure, n: int) -> SpectralBasis:
    """Orthonormal polynomial basis of degree n for L^2(mu_m).

    Runs the plain discretized Stieltjes recurrence (Gautschi 2004, 2.2)
    on the quadrature grid at O(N) per degree; the NaN-safe Gram check is
    its safeguard.  Requires the rule to integrate degree 2n+2
    polynomials exactly so the discrete inner product is faithful.
    """
    rule = gibbs.rule
    if 2 * n + 2 > rule.exact_degree:
        raise ValueError(
            f"basis degree {n} needs quadrature exactness >= {2 * n + 2}, "
            f"rule provides {rule.exact_degree}; increase panel_degree")
    x = rule.nodes
    mu = rule.weights * gibbs.density   # discrete measure, sums to 1

    P = np.zeros((n + 1, x.size))
    dP = np.zeros((n + 1, x.size))
    alpha = np.zeros(n + 1)
    beta_sq = np.zeros(n + 1)
    P[0] = 1.0
    for k in range(n):
        alpha[k] = np.dot(mu, x * P[k] * P[k])
        q = (x - alpha[k]) * P[k]
        dq = (x - alpha[k]) * dP[k] + P[k]
        if k > 0:
            sb = np.sqrt(beta_sq[k])
            q -= sb * P[k - 1]
            dq -= sb * dP[k - 1]
        beta_sq[k + 1] = np.dot(mu, q * q)
        if not beta_sq[k + 1] > 0:
            raise ValueError(
                f"basis construction broke down at degree {k + 1}; "
                "the quadrature grid cannot resolve this degree")
        sb = np.sqrt(beta_sq[k + 1])
        P[k + 1] = q / sb
        dP[k + 1] = dq / sb

    gram = (P * mu) @ P.T
    dev = np.abs(gram - np.eye(n + 1)).max()
    if not dev <= 1e-8:
        raise ValueError(
            f"orthogonality loss {dev:.2e} in the basis Gram matrix; "
            "increase the quadrature resolution")
    return SpectralBasis(gibbs=gibbs, degree=n, alpha=alpha, beta_sq=beta_sq,
                         node_values=P, node_derivs=dP)


def dirichlet_matrix(basis: SpectralBasis) -> np.ndarray:
    """Energy matrix K_ij = (sigma^2/2) mu(p_i' p_j'), mu = basis.gibbs."""
    gibbs = basis.gibbs
    mu = gibbs.rule.weights * gibbs.density
    sig2 = gibbs.model.sigma ** 2
    K = 0.5 * sig2 * ((basis.node_derivs * mu) @ basis.node_derivs.T)
    asym = np.abs(K - K.T).max()
    if asym > 1e-10 * max(1.0, np.abs(K).max()):
        raise ValueError(f"energy-form matrix asymmetry {asym:.2e}")
    return 0.5 * (K + K.T)


def base_spectrum(K: np.ndarray) -> EigenSystem:
    """Eigenpairs (lambda_i, e_i) of the negated frozen generator -L.

    The values ascend from lambda_0 = 0, the pinned zero mode: the kernel
    of K is the constant function, and its numerically tiny eigenvalue is
    clamped to exactly 0 so downstream rank-one algebra treats constants
    exactly.  The vector columns are coefficients in the SpectralBasis,
    orthonormal in L^2(mu).
    """
    es = sym_eig(K)
    vals = es.values.copy()
    vecs = es.vectors.copy()
    scale = max(abs(vals[-1]), 1.0)
    if abs(vals[0]) > 1e-10 * scale:
        raise ValueError(
            f"lowest energy eigenvalue {vals[0]:.3e} is not numerically zero")
    vals[0] = 0.0
    if vals.size > 1 and vals[1] <= 0:
        raise ValueError("spectral gap is not positive")
    # deterministic sign: largest-magnitude coefficient positive
    flips = np.sign(vecs[np.argmax(np.abs(vecs), axis=0),
                         np.arange(vecs.shape[1])])
    vecs *= np.where(flips == 0, 1.0, flips)
    return EigenSystem(values=vals, vectors=vecs)


@dataclass(frozen=True)
class RankOneCoupling:
    """Coefficients of the rank-one law-linearization in the eigenbasis.

    ``phi_hat``: output shape phi = g - m projected on the eigenfunctions
    (exactly centered, so phi_hat[0] = 0).
    ``v_hat``: the pairing antiderivative v (with v' = c) projected the
    same way.  ``ell`` realizes the pairing functional f -> mu(c f')
    through the energy-form identity mu(v' e_j') = (2/sigma^2) lambda_j
    <v, e_j>, hence ell[0] = 0: constants are killed.
    """

    phi_hat: np.ndarray
    v_hat: np.ndarray
    ell: np.ndarray
    beta: float


def coupling_vectors(basis: SpectralBasis,
                     spectrum: EigenSystem) -> RankOneCoupling:
    """Project the coupling functions on the eigenbasis of -L, under the
    law mu = basis.gibbs."""
    gibbs = basis.gibbs
    model = gibbs.model
    x = gibbs.rule.nodes
    mu = gibbs.rule.weights * gibbs.density
    E = spectrum.vectors.T @ basis.node_values   # eigenfunction node values

    phi = model.g(x) - gibbs.m
    v = model.coupling_v(x)
    phi_hat = E @ (mu * phi)
    v_hat = E @ (mu * v)
    # the mean of phi equals the self-consistency residual at the root,
    # so allow for the root-refinement tolerance before zeroing exactly
    if abs(phi_hat[0]) > 1e-8:
        raise ValueError(
            f"coupling shape is not centered: <phi, 1> = {phi_hat[0]:.2e}; "
            "the measure is not at a self-consistent root")
    phi_hat[0] = 0.0
    ell = (2.0 / model.sigma ** 2) * spectrum.values * v_hat
    return RankOneCoupling(phi_hat=phi_hat, v_hat=v_hat, ell=ell,
                           beta=model.beta)


def secular_function(spectrum: EigenSystem, coupling: RankOneCoupling,
                     lam: float) -> float:
    """S(lambda) = (2 beta/sigma^2) sum_j lambda_j v_j phi_j/(lambda_j+lambda).

    Eigenvalues of the rank-one-updated generator that are not eigenvalues
    of the base generator solve S(lambda) = 1.
    """
    if lam < 0:
        raise ValueError("secular function is defined for lambda >= 0")
    lj = spectrum.values[1:]
    terms = coupling.ell[1:] * coupling.phi_hat[1:] / (lj + lam)
    return float(coupling.beta * np.sum(terms))


def solve_secular(spectrum: EigenSystem, coupling: RankOneCoupling,
                  eigenvalues: np.ndarray) -> float | None:
    """Largest positive root of S(lambda) = 1, or None.

    The positive real ``eigenvalues`` of the Galerkin mass-zero block are
    the secular roots.  The largest (|Im| <= 1e-8 max(1, |lambda|), real
    part > 1e-9) starts Newton on S' = -beta sum ell_j phi_j/(lambda_j +
    lambda)^2, kept in a sign-change bracket of half-width 1e-6.
    """
    vals = np.asarray(eigenvalues)
    real = vals[np.abs(vals.imag) <= 1e-8 * np.maximum(1.0, np.abs(vals))].real
    if not np.any(real > 1e-9):
        return None
    lam = float(real.max())
    lj = spectrum.values[1:]
    a = coupling.beta * coupling.ell[1:] * coupling.phi_hat[1:]
    tol = 1e-14 * max(1.0, float(np.abs(a / (lj + lam)).sum()))
    lo, hi = max(lam - 1e-6, 0.0), lam + 1e-6
    if ((secular_function(spectrum, coupling, lo) - 1.0)
            * (secular_function(spectrum, coupling, hi) - 1.0) > 0):
        raise ValueError(f"S - 1 keeps its sign within 1e-6 of the "
                         f"eigenvalue {lam:.6e}; inconsistent discretization")
    for _ in range(20):
        res = secular_function(spectrum, coupling, lam) - 1.0
        if abs(res) <= tol:
            return float(lam)
        lam = min(max(lam + res / np.sum(a / (lj + lam) ** 2), lo), hi)
    raise ValueError(f"Newton iteration for the secular root stalled at "
                     f"|S - 1| = {abs(res):.2e}; inconsistent discretization")


def full_generator_matrix(spectrum: EigenSystem,
                          coupling: RankOneCoupling) -> np.ndarray:
    """Matrix of L + A in the eigenbasis: diag(-lambda) + beta phi ell^T."""
    if coupling.phi_hat.size != spectrum.values.size:
        raise ValueError("spectrum and coupling have mismatched dimensions")
    return (np.diag(-spectrum.values)
            + coupling.beta * np.outer(coupling.phi_hat, coupling.ell))


@dataclass(frozen=True)
class UnstableMode:
    """Dominant spectral data of the linearized generator.

    ``lambda_star`` is the positive secular root when one exists;
    ``lambda0`` the dominant (largest real part) eigenvalue of the
    Galerkin matrix with its cluster multiplicity ``k0`` (the number of
    eigenvalues within 1e-8 of it).  ``f_star``
    holds eigenbasis coefficients of the unstable observable (None when
    no secular root), ``adjoint_vec`` the left eigenvector at lambda0,
    used as the perturbation direction.  ``verdict`` is "unstable" when
    the spectral abscissa exceeds 1e-7, else "stable-indicator".
    """

    lambda_star: float | None
    lambda0: complex
    k0: int
    f_star: np.ndarray | None
    adjoint_vec: np.ndarray
    verdict: str
    abscissa: float


def unstable_mode(spectrum: EigenSystem,
                  coupling: RankOneCoupling) -> UnstableMode:
    """Secular root, dominant eigenvalue, unstable observable and adjoint.

    The Galerkin matrix splits exactly into the conserved constant mode
    and the mass-zero block; the dominant eigenvalue, its multiplicity
    and the adjoint direction are taken on the mass-zero block, which is
    where signed perturbations of a probability law live.
    """
    M = full_generator_matrix(spectrum, coupling)
    ds: DenseSpectrum = dense_spectrum(M[1:, 1:])
    vals = ds.values
    re_max = ds.abscissa
    top = np.nonzero(vals.real >= re_max - 1e-14 * max(1.0, abs(re_max)))[0]
    # prefer nonnegative imaginary part for determinism
    idx = int(top[np.argmax(vals[top].imag)])
    lam0 = complex(vals[idx])
    k0 = int(np.sum(np.abs(vals - lam0) < 1e-8))

    lam_star = solve_secular(spectrum, coupling, vals)
    f_star = None
    if lam_star is not None:
        f_star = np.zeros_like(coupling.phi_hat)
        f_star[1:] = (coupling.beta * coupling.phi_hat[1:]
                      / (spectrum.values[1:] + lam_star))

    u = np.zeros(M.shape[0], dtype=ds.left_vectors.dtype)
    u[1:] = ds.left_vectors[:, idx]
    j = int(np.argmax(np.abs(u)))
    u = u * (np.conj(u[j]) / abs(u[j]))    # rotate largest entry to real+
    if abs(lam0.imag) < 1e-9:
        u = u.real
    u = u / np.linalg.norm(u)

    verdict = "unstable" if re_max > 1e-7 else "stable-indicator"
    return UnstableMode(lambda_star=lam_star, lambda0=lam0, k0=k0,
                        f_star=f_star, adjoint_vec=u, verdict=verdict,
                        abscissa=re_max)


@dataclass(frozen=True)
class BranchAnalysis:
    """The spectral chain of one stationary branch, from its Gibbs law
    through the Galerkin basis and spectrum of -L to the rank-one
    coupling and the unstable mode.  The law is stored once, in the
    basis; ``gibbs`` reads it from there."""

    basis: SpectralBasis
    spectrum: EigenSystem
    coupling: RankOneCoupling
    mode: UnstableMode

    @property
    def gibbs(self) -> GibbsMeasure:
        return self.basis.gibbs

    def fstar_at(self, x) -> np.ndarray:
        """The unstable observable f_star at arbitrary points."""
        return self.basis.eval_series(self.spectrum.vectors @ self.mode.f_star,
                                      x)


def analyze_branch(gibbs: GibbsMeasure, degree: int) -> BranchAnalysis:
    """Run the spectral chain on the branch whose Gibbs law is given."""
    basis = build_basis(gibbs, degree)
    spectrum = base_spectrum(dirichlet_matrix(basis))
    coupling = coupling_vectors(basis, spectrum)
    return BranchAnalysis(basis=basis, spectrum=spectrum, coupling=coupling,
                          mode=unstable_mode(spectrum, coupling))


def linearized_propagate(M: np.ndarray, coeffs: np.ndarray,
                         t: float) -> np.ndarray:
    """Apply exp(t M) to a coefficient vector (scaling and squaring).

    When M carries the exact zero row and column of the constant mode the
    propagation is done on the complementary block, which preserves that
    mode exactly.  Only tests call it, so scipy is imported here rather
    than on the start-up path of every command.
    """
    import scipy.linalg

    M = np.asarray(M, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    if t < 0:
        raise ValueError("propagation time must be nonnegative")
    if M.shape[0] != coeffs.shape[0]:
        raise ValueError("matrix and coefficient sizes do not match")
    absc = float(np.linalg.eigvals(M).real.max())
    if t * absc > 700.0:
        raise OverflowError(
            f"t * abscissa = {t * absc:.1f} exceeds 700; the propagated "
            "amplitude overflows double precision")
    if np.all(M[0] == 0.0) and np.all(M[:, 0] == 0.0):
        out = coeffs.copy().astype(float)
        out[1:] = scipy.linalg.expm(t * M[1:, 1:]) @ coeffs[1:]
        return out
    return scipy.linalg.expm(t * M) @ coeffs
