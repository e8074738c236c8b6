"""Shared numerical kernels.

Quadrature on a truncated real line, bracketed root finding and the
dense symmetric eigensolve.  ``dense_spectrum``,
the general (nonsymmetric) eigensolve, is off the pipeline's path: the
tests keep it as the independent reference for the spectral chain's
structured secular solve.  Everything operates on plain numpy arrays;
the only module state is a cache of Gauss-Legendre panel rules, so all
functions are safe to call concurrently.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class NumericalError(RuntimeError):
    """An eigensolver or linear solver failed to converge."""


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for integration on [-L, L].

    ``exact_degree`` is the largest polynomial degree the rule integrates
    exactly against the Lebesgue measure on its domain.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exact_degree: int = 0

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-D arrays of equal length")
        if not np.all(np.diff(nodes) > 0):
            raise ValueError("quadrature nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("quadrature weights must be strictly positive")


# leggauss takes ~8 ms at the default degree and every Gibbs law asks
# for a rule; the cached arrays are shared and only read below
_leggauss = functools.cache(np.polynomial.legendre.leggauss)


def composite_gauss_legendre(L: float, n_panels: int = 24,
                             panel_degree: int = 130) -> QuadratureRule:
    """Composite Gauss-Legendre rule on [-L, L].

    The domain is split into ``n_panels`` equal panels carrying a
    ``panel_degree``-point Gauss-Legendre rule each.  Any global
    polynomial of degree <= 2*panel_degree - 1 is integrated exactly.
    """
    if L <= 0:
        raise ValueError(f"truncation half-width must be positive, got {L}")
    if n_panels < 1 or panel_degree < 2:
        raise ValueError("need n_panels >= 1 and panel_degree >= 2")
    x01, w01 = _leggauss(panel_degree)
    edges = np.linspace(-L, L, n_panels + 1)
    half = np.diff(edges) / 2.0
    mid = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x01[None, :]).ravel()
    weights = (half[:, None] * w01[None, :]).ravel()
    return QuadratureRule(nodes=nodes, weights=weights,
                          exact_degree=2 * panel_degree - 1)


def find_roots(f, interval: tuple[float, float], n_scan: int = 2001,
               tol: float = 1e-10) -> list[float]:
    """All sign-change roots of a continuous scalar function.

    Scans ``n_scan`` uniform points on the interval and refines each
    bracket with a sign change by plain bisection down to ``tol``.
    Returned roots are ascending and deduplicated within ``tol``.
    Bisection is used instead of secant or Newton steps because the
    target functions here are cheap and may be nearly flat at folds.
    """
    a, b = float(interval[0]), float(interval[1])
    if not b > a:
        raise ValueError(f"degenerate interval [{a}, {b}]")
    if n_scan < 2:
        raise ValueError("n_scan must be at least 2")
    xs = np.linspace(a, b, n_scan)
    fs = np.array([float(f(x)) for x in xs])
    if np.any(~np.isfinite(fs)):
        i = int(np.argmax(~np.isfinite(fs)))
        raise ValueError(f"function is not finite at scan point x={xs[i]!r}")

    roots: list[float] = []
    for i in np.nonzero(fs == 0.0)[0]:
        roots.append(float(xs[i]))
    for i in np.nonzero(fs[:-1] * fs[1:] < 0.0)[0]:
        lo, hi = xs[i], xs[i + 1]
        flo = fs[i]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fmid = float(f(mid))
            if fmid == 0.0:
                lo = hi = mid
                break
            if flo * fmid < 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        roots.append(0.5 * (lo + hi))

    roots.sort()
    out: list[float] = []
    for r in roots:
        if not out or r - out[-1] > tol:
            out.append(r)
    return out


@dataclass(frozen=True)
class EigenSystem:
    """Ascending real eigenvalues and orthonormal eigenvectors (columns)."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(K: np.ndarray) -> EigenSystem:
    """Full spectrum of a symmetric matrix, ascending, orthonormal vectors."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(np.abs(K).max(), 1.0)
    asym = np.abs(K - K.T).max()
    if asym > 1e-12 * scale:
        raise ValueError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds 1e-12 relative")
    try:
        vals, vecs = np.linalg.eigh(0.5 * (K + K.T))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolve failed: {exc}") from exc
    return EigenSystem(values=vals, vectors=vecs)


@dataclass(frozen=True)
class DenseSpectrum:
    """Complex spectrum of a general square matrix.

    ``left_vectors`` holds the left eigenvectors u as columns, with
    u^H M = lambda u^H.  ``abscissa`` is the largest real part over the
    spectrum.
    """

    values: np.ndarray
    left_vectors: np.ndarray
    abscissa: float


def dense_spectrum(M: np.ndarray) -> DenseSpectrum:
    """Complex eigenvalues with unit left eigenvectors (a reference for
    tests; ``spectrum.unstable_mode`` does not call it).

    For real M the left eigenvectors are the conjugated right
    eigenvectors of M^T: M^T v = lambda v gives conj(v)^H M =
    lambda conj(v)^H.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    try:
        vals, vr = np.linalg.eig(M.T)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"QR iteration did not converge: {exc}") from exc
    order = np.argsort(vals.real, kind="stable")
    vals = vals[order]
    return DenseSpectrum(values=vals, left_vectors=np.conj(vr[:, order]),
                         abscissa=float(vals.real.max()))

