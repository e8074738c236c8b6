"""Stationary branches of the mean-field dynamics.

The frozen-coupling SDE at statistic value m has the normalized Gibbs
law mu_m ~ exp(log_gibbs(x, m)).  Stationary states of the full
nonlinear dynamics are the fixed points of m -> mu_m(g), i.e. the zeros
of the self-consistency residual psi(m) = mu_m(g) - m.  This module
builds mu_m on a quadrature grid, locates all branches, evaluates the
covariance stability indicator S0 per branch, and finds the critical
noise level where the symmetric branch changes character.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ScalarMeanFieldModel
from .numerics import QuadratureRule, composite_gauss_legendre, find_roots


class TruncationError(ValueError):
    """The quadrature domain truncates too much stationary mass."""


@dataclass(frozen=True)
class GridSpec:
    """Quadrature layout: truncation half-width and panel structure.

    ``L=None`` asks for automatic truncation from the log-density decay
    of the model at hand (tail mass below ~1e-14).
    """

    L: float | None = None
    n_panels: int = 24
    panel_degree: int = 130

    @property
    def n_nodes(self) -> int:
        return self.n_panels * self.panel_degree


def auto_half_width(model: ScalarMeanFieldModel, m_values=(0.0,),
                    drop: float = 46.0, x_max: float = 64.0,
                    x_cap: float = 2048.0) -> float:
    """Truncation half-width where the Gibbs log-density has decayed.

    Returns the smallest symmetric half-width beyond which log_gibbs
    sits ``drop`` nats below its maximum for every m in ``m_values``
    (e^-46 ~ 1e-20 pointwise, tail mass well under 1e-14).  The scan
    window doubles as needed for slowly decaying families.
    """
    L = 0.0
    for m in m_values:
        X = x_max
        while True:
            xs = np.linspace(-X, X, 8193)
            lg = model.log_gibbs(xs, float(m))
            rel = lg - lg.max()
            decayed = (np.abs(xs[np.argmax(rel)]) <= 0.8 * X
                       and rel[0] < -drop and rel[-1] < -drop)
            if decayed:
                break
            X *= 2.0
            if X > x_cap:
                raise ValueError(
                    f"log-density does not decay by {drop} nats within "
                    f"|x| <= {x_cap}")
        above = np.abs(xs[rel >= -drop])
        if above.size == 0:
            raise ValueError("log-density has no resolvable peak on the scan")
        L = max(L, above.max())
    return 1.15 * L + 0.5


def make_rule(model: ScalarMeanFieldModel, spec: GridSpec,
              m_values=(0.0,)) -> QuadratureRule:
    """Quadrature rule for the model, with automatic truncation if asked.

    Wide domains (heavy-tailed families) get extra panels so the panel
    width never exceeds 2.5 and the density bulk stays resolved.
    """
    L = spec.L if spec.L is not None else auto_half_width(model, m_values)
    n_panels = max(spec.n_panels, math.ceil(2.0 * L / 2.5))
    return composite_gauss_legendre(L, n_panels, spec.panel_degree)


@dataclass(frozen=True)
class GibbsMeasure:
    """Normalized Gibbs law of the frozen-coupling SDE on a grid.

    ``density`` holds the normalized density at the quadrature nodes and
    ``cdf`` the mass to the left of each node (see ``node_cdf``);
    ``log_z`` is the log of the normalizing constant relative to
    exp(log_gibbs).
    """

    model: ScalarMeanFieldModel
    m: float
    rule: QuadratureRule
    log_z: float
    density: np.ndarray
    cdf: np.ndarray

    def moment(self, f) -> float:
        """Quadrature integral of f against the measure."""
        vals = f(self.rule.nodes) if callable(f) else np.asarray(f, dtype=float)
        if np.any(~np.isfinite(vals)):
            i = int(np.argmax(~np.isfinite(vals)))
            raise ValueError(
                f"observable is not finite at node x={self.rule.nodes[i]!r}")
        return float(np.dot(self.rule.weights * self.density, vals))


def node_cdf(rule: QuadratureRule, density) -> np.ndarray:
    """Mass to the left of each quadrature node.

    A node carries the mass w_i rho_i of the cell around it, so the
    running sum of w rho overshoots the integral up to x_i by about half
    of that cell; subtracting the half-cell gives the CDF at the node
    itself, with an error of second order in the local node spacing.
    """
    mass = rule.weights * density
    return np.cumsum(mass) - 0.5 * mass


def build_gibbs(model: ScalarMeanFieldModel, m: float,
                grid_spec: GridSpec | None = None,
                rule: QuadratureRule | None = None) -> GibbsMeasure:
    """Normalize exp(log_gibbs(., m)) on a quadrature grid.

    Normalization goes through a log-sum-exp shift so very peaked
    densities do not underflow.  A pre-built rule can be passed to share
    one grid across many m values.
    """
    if rule is None:
        grid_spec = grid_spec or GridSpec()
        if grid_spec.n_nodes < 256:
            raise ValueError("grid resolution must be at least 256 nodes")
        rule = make_rule(model, grid_spec, m_values=(m,))
    x = rule.nodes
    lg = model.log_gibbs(x, float(m))
    shift = lg.max()
    w = np.exp(lg - shift)
    z = float(np.dot(rule.weights, w))
    density = w / z
    log_z = shift + math.log(z)

    # Exponential-tail estimate of the mass lost to truncation: density at
    # the boundary divided by the local log-density decay rate.
    for side in (0, -1):
        i2 = 1 if side == 0 else -2
        slope = abs((lg[i2] - lg[side]) / (x[i2] - x[side]))
        tail = density[side] / max(slope, 1e-3)
        if tail > 1e-10:
            raise TruncationError(
                f"estimated tail mass {tail:.2e} at x={x[side]:.3g} exceeds "
                f"1e-10; enlarge the truncation half-width")

    return GibbsMeasure(model=model, m=float(m), rule=rule,
                        log_z=log_z, density=density,
                        cdf=node_cdf(rule, density))


def psi(model: ScalarMeanFieldModel, m: float,
        grid_spec: GridSpec | None = None,
        rule: QuadratureRule | None = None) -> float:
    """Self-consistency residual psi(m) = mu_m(g) - m."""
    gm = build_gibbs(model, m, grid_spec=grid_spec, rule=rule)
    return gm.moment(model.g) - float(m)


def _raw_indicator(model: ScalarMeanFieldModel, gibbs: GibbsMeasure) -> float:
    """Covariance indicator (2 beta / sigma^2) Cov_mu(v, g) at any m."""
    v = gibbs.moment(model.coupling_v)
    g = gibbs.moment(model.g)
    vg = gibbs.moment(model.coupling_v(gibbs.rule.nodes)
                      * model.g(gibbs.rule.nodes))
    return (2.0 * model.beta / model.sigma ** 2) * (vg - v * g)


def stability_indicator(model: ScalarMeanFieldModel, m_root: float,
                        grid_spec: GridSpec | None = None,
                        rule: QuadratureRule | None = None,
                        root_tol: float = 1e-8) -> float:
    """Branch indicator S0 = (2 beta / sigma^2) Cov_mu(v, g) at a root.

    S0 > 1 signals a positive root of the secular equation, hence an
    unstable branch; S0 equals 1 + psi'(m_root) for the builtin models.
    """
    gibbs = build_gibbs(model, m_root, grid_spec=grid_spec, rule=rule)
    resid = gibbs.moment(model.g) - float(m_root)
    if abs(resid) > root_tol:
        raise ValueError(
            f"m={m_root!r} is not self-consistent: |psi| = {abs(resid):.2e} "
            f"> {root_tol:g}")
    return _raw_indicator(model, gibbs)


# Default psi scan ranges: the fixed-point map is bounded by ~1 for the
# double-well families at moderate noise and by e^(-1/2) for the cosine
# coupling, so these windows cover every branch with margin.
_SCAN_RANGES = {
    "dawson": (-3.0, 3.0),
    "rescaled_double_well": (-3.0, 3.0),
    "cosine": (-1.0, 1.0),
}


def default_scan_range(model: ScalarMeanFieldModel) -> tuple[float, float]:
    return _SCAN_RANGES.get(model.name, (-3.0, 3.0))


@dataclass(frozen=True)
class SelfConsistencyReport:
    """All located stationary branches with their stability indicators."""

    roots: list[float]
    psi_at_scan: np.ndarray        # columns (m, psi(m))
    s0_per_root: list[float]
    fold_flags: list[bool]

    @property
    def branch_count(self) -> int:
        return len(self.roots)


def self_consistent_roots(model: ScalarMeanFieldModel,
                          scan_range: tuple[float, float] | None = None,
                          n_scan: int = 2001,
                          grid_spec: GridSpec | None = None,
                          tol: float = 1e-10) -> SelfConsistencyReport:
    """Locate every zero of psi on the scan range and grade each branch.

    Roots where psi also has a vanishing slope (|psi'| < 1e-6) are
    tagged as folds: at a branch merger bisection cannot separate the
    coincident zeros, so the degenerate root is reported once.
    """
    scan_range = scan_range or default_scan_range(model)
    grid_spec = grid_spec or GridSpec()
    if model.symmetric and not (scan_range[0] < 0.0 < scan_range[1]):
        raise ValueError("scan range must contain 0 for a symmetric model")
    rule = make_rule(model, grid_spec,
                     m_values=(scan_range[0], 0.0, scan_range[1]))

    def f(m):
        return psi(model, m, rule=rule)

    roots = find_roots(f, scan_range, n_scan=n_scan, tol=tol)
    ms = np.linspace(scan_range[0], scan_range[1], min(n_scan, 401))
    curve = np.column_stack([ms, [f(m) for m in ms]])

    s0 = []
    folds = []
    h = 1e-5 * max(1.0, abs(scan_range[1] - scan_range[0]))
    for r in roots:
        gibbs = build_gibbs(model, r, rule=rule)
        s0.append(_raw_indicator(model, gibbs))
        dpsi = (f(r + h) - f(r - h)) / (2 * h)
        folds.append(abs(dpsi) < 1e-6)
    return SelfConsistencyReport(roots=roots, psi_at_scan=curve,
                                 s0_per_root=s0, fold_flags=folds)


@dataclass(frozen=True)
class CriticalSigma:
    """Noise level where the symmetric-branch indicator crosses 1."""

    sigma_c: float | None
    bracket: tuple[float, float] | None
    indicator_curve: np.ndarray     # columns (sigma, S0(sigma))


def critical_sigma(model: ScalarMeanFieldModel,
                   sigma_range: tuple[float, float] = (0.1, 3.0),
                   n_scan: int = 41,
                   grid_spec: GridSpec | None = None,
                   tol: float = 1e-10) -> CriticalSigma:
    """Bisection on sigma -> S0(sigma) - 1 at the symmetric point m = 0.

    Uses the raw covariance indicator at m = 0 (a genuine root only for
    symmetric models); absence of a sign change in the range is encoded
    as sigma_c = None rather than an error.
    """
    grid_spec = grid_spec or GridSpec()

    def s0(sig):
        mdl = model.with_params(sigma=sig)
        rule = make_rule(mdl, grid_spec, m_values=(0.0,))
        return _raw_indicator(mdl, build_gibbs(mdl, 0.0, rule=rule))

    sigs = np.linspace(sigma_range[0], sigma_range[1], n_scan)
    vals = np.array([s0(s) for s in sigs])
    curve = np.column_stack([sigs, vals])

    fs = vals - 1.0
    idx = np.nonzero(fs[:-1] * fs[1:] < 0.0)[0]
    if idx.size == 0:
        return CriticalSigma(sigma_c=None, bracket=None, indicator_curve=curve)
    i = int(idx[0])
    lo, hi = float(sigs[i]), float(sigs[i + 1])
    flo = fs[i]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = s0(mid) - 1.0
        if flo * fmid < 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return CriticalSigma(sigma_c=0.5 * (lo + hi), bracket=(lo, hi),
                         indicator_curve=curve)
