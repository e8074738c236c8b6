"""Spectral analysis of the linearized mean-field generator.

The generator of the frozen dynamics, L f = (sigma^2/2) f'' + b(x, m) f',
is self-adjoint in L^2(mu_m) through the energy form
mu(g L f) = -(sigma^2/2) mu(g' f').  We discretize it by Galerkin
projection on mu_m-orthonormal polynomials.  Differentiating their
three-term recurrence expands each p_k' exactly in the basis, so the
form is the dense symmetric matrix (sigma^2/2) D D^T with no quadrature
of derivatives.  The law-dependence of the drift adds the rank-one
operator

    A f = beta * phi(.) * integral(c f' dmu),   phi = g - m,

so in the eigenbasis of L the full linearization is diag(-lambda_j) plus
the rank-one update beta phi ell^T.  Its eigenvalues are the roots of
the secular equation S(lambda) = sum_j a_j/(lambda_j + lambda) = 1, with
weights a_j = beta ell_j phi_j, and each -lambda_j whose weight vanishes
(Golub 1973; Bunch, Nielsen & Sorensen 1978).  With weights of one sign
the dominant root lies alone between known poles, so no nonsymmetric
eigensolve is needed; a positive root lambda_star is the instability
rate and the associated mode f_star has coefficients
beta*phi_j/(lambda_j + lambda_star).
The Gibbs law enters once, through ``build_basis``; the energy matrix
and the coupling read it from the basis its polynomials belong to.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# find_roots stays bound: bench/tests/test_bench_tracer.py looks it up here
from .numerics import EigenSystem, find_roots, sym_eig  # noqa: F401
from .stationary import GibbsMeasure


@dataclass(frozen=True)
class SpectralBasis:
    """Orthonormal polynomials of the Gibbs measure, tabulated on its grid.

    ``alpha`` and ``beta_sq`` are the three-term recurrence coefficients

        sqrt(beta_sq[k+1]) p_{k+1} = (x - alpha[k]) p_k
                                     - sqrt(beta_sq[k]) p_{k-1},

    ``node_values`` holds p_k at the quadrature nodes (rows indexed by
    degree), and ``gibbs`` is the law they are orthonormal under.
    Construction runs the plain recurrence and checks the Gram matrix in
    the discrete inner product against the identity.  Derivatives are
    not tabulated: ``derivative_matrix`` expands them in the basis.
    """

    gibbs: GibbsMeasure
    degree: int
    alpha: np.ndarray
    beta_sq: np.ndarray
    node_values: np.ndarray

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
        """Evaluate sum_k coeffs[k] p_k at arbitrary points; 0 beyond the
        quadrature nodes, where it would be an extrapolated polynomial
        (up to 2e32 on rescaled_double_well's FP grid) over no mass."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        nodes = self.gibbs.rule.nodes
        inside = (x >= nodes[0]) & (x <= nodes[-1])
        out = np.zeros(x.shape)
        out[inside] = np.asarray(coeffs) @ self.eval_at(x[inside])
        return out

    def derivative_matrix(self) -> np.ndarray:
        """D with p_k' = sum_l D[k, l] p_l, so D[k, l] = <p_k', p_l>_mu.

        p_k' has degree k - 1, so D is strictly lower triangular.  Its
        rows follow from differentiating the recurrence,

            sqrt(beta_sq[k+1]) p_{k+1}' = p_k + (x - alpha[k]) p_k'
                                          - sqrt(beta_sq[k]) p_{k-1}',

        with x acting on coefficients as the Jacobi matrix of
        ``alpha`` and ``beta_sq``: O(degree^2) work, no quadrature.
        """
        n = self.degree
        a = self.alpha
        b = np.sqrt(self.beta_sq)
        D = np.zeros((n + 1, n + 1))
        for k in range(n):
            c = D[k]
            row = (a - a[k]) * c          # (x - alpha[k]) p_k', diagonal
            row[1:] += b[1:] * c[:-1]     # ... and its two off-diagonals
            row[:-1] += b[1:] * c[1:]
            row[k] += 1.0
            if k > 0:
                row -= b[k] * D[k - 1]
            D[k + 1] = row / b[k + 1]
        return D


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
    alpha = np.zeros(n + 1)
    beta_sq = np.zeros(n + 1)
    P[0] = 1.0
    for k in range(n):
        alpha[k] = np.dot(mu, x * P[k] * P[k])
        q = (x - alpha[k]) * P[k]
        if k > 0:
            q -= np.sqrt(beta_sq[k]) * P[k - 1]
        beta_sq[k + 1] = np.dot(mu, q * q)
        if not beta_sq[k + 1] > 0:
            raise ValueError(
                f"basis construction broke down at degree {k + 1}; "
                "the quadrature grid cannot resolve this degree")
        P[k + 1] = q / np.sqrt(beta_sq[k + 1])

    Q = P * np.sqrt(mu)
    gram = Q @ Q.T      # numpy runs a Q Q^T product as one syrk call
    dev = np.abs(gram - np.eye(n + 1)).max()
    if not dev <= 1e-8:
        raise ValueError(
            f"orthogonality loss {dev:.2e} in the basis Gram matrix; "
            "increase the quadrature resolution")
    return SpectralBasis(gibbs=gibbs, degree=n, alpha=alpha, beta_sq=beta_sq,
                         node_values=P)


def dirichlet_matrix(basis: SpectralBasis) -> np.ndarray:
    """Energy matrix K_ij = (sigma^2/2) mu(p_i' p_j'), mu = basis.gibbs.

    With p_i' = sum_l D[i, l] p_l and the basis orthonormal under mu,
    K = (sigma^2/2) D D^T, symmetric up to the rounding of the product;
    ``sym_eig`` checks and symmetrizes it.
    """
    D = basis.derivative_matrix()
    return 0.5 * basis.gibbs.model.sigma ** 2 * (D @ D.T)


def base_spectrum(K: np.ndarray) -> EigenSystem:
    """Eigenpairs (lambda_i, e_i) of the negated frozen generator -L.

    The values ascend from lambda_0 = 0, the pinned zero mode: the kernel
    of K is the constant function, and its numerically tiny eigenvalue is
    clamped to exactly 0 so downstream rank-one algebra treats constants
    exactly.  The vector columns are coefficients in the SpectralBasis,
    orthonormal in L^2(mu).
    """
    es = sym_eig(K)
    vals, vecs = es.values, es.vectors
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
    law mu = basis.gibbs: first on the polynomial basis, then rotated
    by the eigenvector columns."""
    gibbs = basis.gibbs
    model = gibbs.model
    x = gibbs.rule.nodes
    mu = gibbs.rule.weights * gibbs.density

    phi = model.g(x) - gibbs.m
    v = model.coupling_v(x)
    phi_hat, v_hat = (spectrum.vectors.T @ (
        basis.node_values @ np.stack([mu * phi, mu * v], axis=1))).T
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


def solve_secular(lj: np.ndarray, a: np.ndarray,
                  bracket: tuple[float, float]) -> float:
    """The root of S(lambda) = sum_j a_j/(lambda_j + lambda) = 1 inside
    ``bracket``, whose ends are poles of S or points where S - 1 has the
    sign of the pole at the other end.

    Newton on S' = -sum a_j/(lambda_j + lambda)^2 runs inside the bracket
    that the signs of S - 1 keep shrinking, with a bisection step
    wherever Newton would leave it, until |S - 1| <= 1e-14 times the
    scale of the terms.
    """
    lo, hi = bracket
    rising = a.sum() < 0      # S - 1 runs from -inf or < 0 at lo to + at hi
    lam = 0.5 * (lo + hi)
    for _ in range(100):
        terms = a / (lj + lam)
        res = float(terms.sum()) - 1.0
        if abs(res) <= 1e-14 * max(1.0, float(np.abs(terms).sum())):
            return lam
        if (res < 0) == rising:
            lo = lam
        else:
            hi = lam
        step = lam + res / float(np.sum(terms / (lj + lam)))
        lam = step if lo < step < hi else 0.5 * (lo + hi)
    raise ValueError(f"Newton iteration for the secular root stalled at "
                     f"|S - 1| = {abs(res):.2e} in [{lo:.6e}, {hi:.6e}]")


@dataclass(frozen=True)
class UnstableMode:
    """Dominant spectral data of the linearized generator.

    ``lambda_star`` is the positive secular root when one exists;
    ``lambda0`` the dominant eigenvalue of the Galerkin mass-zero block,
    which is real, with its cluster multiplicity ``k0`` (the number of
    candidate eigenvalues within 1e-8 of it).  ``f_star`` holds
    eigenbasis coefficients of the unstable observable (None when no
    secular root), ``adjoint_vec`` the unit left eigenvector at lambda0,
    used as the perturbation direction.  ``verdict`` is "unstable" when
    lambda0 exceeds 1e-7, else "stable-indicator".
    """

    lambda_star: float | None
    lambda0: float
    k0: int
    f_star: np.ndarray | None
    adjoint_vec: np.ndarray
    verdict: str


def unstable_mode(spectrum: EigenSystem,
                  coupling: RankOneCoupling) -> UnstableMode:
    """Secular root, dominant eigenvalue, unstable observable and adjoint.

    The Galerkin matrix splits exactly into the conserved constant mode
    and the mass-zero block diag(-lambda_j) + beta phi ell^T, j >= 1,
    where signed perturbations of a probability law live.  Weights
    |a_j| <= 1e-10 max|a| are deflated: -lambda_j is then an eigenvalue.
    The others must share one sign, else the spectrum may be complex and
    the branch is refused.  For a > 0 the largest secular root is the
    one above the first pole -lambda_j1; for a < 0 it lies between the
    first two poles (or below the only one).  The dominant eigenvalue is
    the larger of that root and the largest deflated -lambda_j.
    """
    lj = spectrum.values[1:]
    a = coupling.beta * coupling.ell[1:] * coupling.phi_hat[1:]
    live = np.abs(a) > 1e-10 * np.abs(a).max()
    candidates = list(-lj[~live])
    root = None
    if live.any():
        if a[live].min() < 0 < a[live].max():
            raise ValueError(
                "secular weights beta ell_j phi_j change sign; the "
                "linearization may have complex eigenvalues")
        poles = -np.sort(lj[live])
        total = float(a[live].sum())
        if total > 0:
            bracket = (poles[0], poles[0] + 2.0 * total)
        else:
            bracket = (poles[1] if poles.size > 1
                       else poles[0] + 2.0 * total, poles[0])
        root = solve_secular(lj, a, bracket)
        candidates.append(root)
    lam0 = max(candidates)
    k0 = sum(abs(c - lam0) < 1e-8 for c in candidates)

    lam_star = root if root is not None and root > 1e-9 else None
    f_star = None
    if lam_star is not None:
        f_star = np.zeros_like(coupling.phi_hat)
        f_star[1:] = coupling.beta * coupling.phi_hat[1:] / (lj + lam_star)

    # left eigenvector: u_j (lambda_j + lam0) = beta ell_j (u . phi)
    u = np.zeros_like(coupling.ell)
    if lam0 == root:
        u[1:] = coupling.ell[1:] / (lj + lam0)
    else:
        # lam0 = -lambda_k, the first deflated pole (lj ascends).  Scaled
        # to u . phi = phi_k, the other entries follow and u . phi fixes
        # u_k; the residual left at k is a_k
        k = int(np.argmax(~live))
        gap = lj - lj[k]
        gap[k] = np.inf
        u[1:] = coupling.beta * coupling.phi_hat[1 + k] * coupling.ell[1:] / gap
        u[1 + k] = 1.0 - np.sum(a / gap)
    j = int(np.argmax(np.abs(u)))
    u *= np.sign(u[j]) / np.linalg.norm(u)

    verdict = "unstable" if lam0 > 1e-7 else "stable-indicator"
    return UnstableMode(lambda_star=lam_star, lambda0=float(lam0), k0=int(k0),
                        f_star=f_star, adjoint_vec=u, verdict=verdict)


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

