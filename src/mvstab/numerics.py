"""Shared numerical kernels.

Quadrature on a truncated real line, bracketed root finding, dense
eigensolves (symmetric and general), and exponential-rate fitting.
Everything operates on plain numpy arrays; the only module state is a
cache of Gauss-Legendre panel rules, so all functions are safe to call
concurrently.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


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
    domain: tuple[float, float]
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

    @property
    def n_nodes(self) -> int:
        return self.nodes.size


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
    return QuadratureRule(nodes=nodes, weights=weights, domain=(-L, L),
                          exact_degree=2 * panel_degree - 1)


def integrate(f, rule: QuadratureRule) -> float:
    """Integrate a callable or an array of node values against the rule.

    Raises ValueError naming the offending node if ``f`` evaluates to a
    non-finite value anywhere on the grid.
    """
    vals = f(rule.nodes) if callable(f) else np.asarray(f, dtype=float)
    if vals.shape != rule.nodes.shape:
        raise ValueError("integrand values do not match the quadrature grid")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"integrand is not finite at node x={rule.nodes[i]!r} (index {i})")
    return float(np.dot(rule.weights, vals))


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
    abscissa: float = field(default=0.0)


def dense_spectrum(M: np.ndarray) -> DenseSpectrum:
    """Complex eigenvalues with left eigenvectors."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    try:
        vals, vl = scipy.linalg.eig(M, left=True, right=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"QR iteration did not converge: {exc}") from exc
    order = np.argsort(vals.real, kind="stable")
    vals = vals[order]
    return DenseSpectrum(values=vals, left_vectors=vl[:, order],
                         abscissa=float(vals.real.max()))


def fit_exp_rate(times, values, window: tuple[float, float]) -> float:
    """Least-squares exponential growth rate of a positive series.

    Fits log(values) ~ rate * t + const over the sub-series with t in
    ``window`` and returns the slope.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-D arrays of equal length")
    mask = (t >= window[0]) & (t <= window[1])
    if np.count_nonzero(mask) < 3:
        raise ValueError(
            f"need at least 3 points in window {window}, "
            f"got {int(np.count_nonzero(mask))}")
    tw, yw = t[mask], y[mask]
    if np.any(yw <= 0):
        bad = tw[yw <= 0]
        raise ValueError(
            f"series must be positive in the fit window; non-positive at "
            f"t={np.array2string(bad, max_line_width=200)}")
    slope, _ = np.polyfit(tw, np.log(yw), 1)
    return float(slope)
