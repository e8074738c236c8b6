"""Stationary branches of the mean-field dynamics.

The frozen-coupling SDE at statistic value m has the Gibbs law mu_m ~
exp(log_gibbs0 + kappa m v), the m = 0 law tilted by the coupling v
(``ScalarMeanFieldModel.log_gibbs``).  Stationary states are the zeros
of psi(m) = mu_m(g) - m.  This module builds mu_m on a quadrature grid,
locates all branches, evaluates the covariance stability indicator S0
per branch, and finds the critical noise level where the symmetric
branch changes character.

A law on the grid is a ``GridMeasure`` (rule and density, one checked
``moment``, a ``cdf`` computed on read); ``GibbsMeasure`` adds model, m.
A ``GibbsFamily`` holds log_gibbs0, v and g at the nodes of one rule,
computed once; only the tilt, the normalization and the tail check run
per m, so a psi scan on one rule reuses the family.

Since m enters only through that tilt, psi'(m) = kappa Cov_m(v, g) - 1
= S0(m) - 1 at every m for any model, so S0 grades a branch and also
flags a fold (|S0 - 1| < 1e-6) without differentiating psi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import ScalarMeanFieldModel
from .numerics import QuadratureRule, composite_gauss_legendre, find_roots


class TruncationError(ValueError):
    """The quadrature domain truncates too much stationary mass."""


def _require_finite(vals: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Return the observable values, or name the first node where one is
    not finite."""
    if np.any(~np.isfinite(vals)):
        i = int(np.argmax(~np.isfinite(vals)))
        raise ValueError(f"observable is not finite at node x={nodes[i]!r}")
    return vals


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


def auto_half_width(model: ScalarMeanFieldModel, m_values=(0.0,)) -> float:
    """Truncation half-width where the Gibbs log-density has decayed.

    Returns the smallest symmetric half-width beyond which log_gibbs
    sits 46 nats below its maximum for every m in ``m_values``
    (e^-46 ~ 1e-20 pointwise, tail mass well under 1e-14).  The scan
    window starts at |x| <= 64 and doubles as needed for slowly decaying
    families, up to |x| <= 2048.
    """
    L = 0.0
    for m in m_values:
        X = 64.0
        while True:
            xs = np.linspace(-X, X, 8193)
            lg = model.log_gibbs(xs, float(m))
            rel = lg - lg.max()
            decayed = (np.abs(xs[np.argmax(rel)]) <= 0.8 * X
                       and rel[0] < -46.0 and rel[-1] < -46.0)
            if decayed:
                break
            X *= 2.0
            if X > 2048.0:
                raise ValueError(
                    "log-density does not decay by 46.0 nats within "
                    "|x| <= 2048.0")
        L = max(L, np.abs(xs[rel >= -46.0]).max())
    return 1.15 * L + 0.5


def make_rule(model: ScalarMeanFieldModel, spec: GridSpec,
              m_values=(0.0,)) -> QuadratureRule:
    """Quadrature rule for the model, with automatic truncation if asked.

    Wide domains (heavy-tailed families) get extra panels so the panel
    width never exceeds 2.5 and the density bulk stays resolved.  A spec
    of fewer than 256 nodes is refused.
    """
    if spec.n_nodes < 256:
        raise ValueError("grid resolution must be at least 256 nodes")
    L = spec.L if spec.L is not None else auto_half_width(model, m_values)
    n_panels = max(spec.n_panels, math.ceil(2.0 * L / 2.5))
    return composite_gauss_legendre(L, n_panels, spec.panel_degree)


@dataclass(frozen=True)
class GridMeasure:
    """A probability law as its normalized density at the nodes of a
    quadrature rule; no CDF is stored, ``cdf`` computes it on read."""

    rule: QuadratureRule
    density: np.ndarray

    def moment(self, f) -> float:
        """Quadrature integral of f against the measure."""
        vals = f(self.rule.nodes) if callable(f) else np.asarray(f, dtype=float)
        _require_finite(vals, self.rule.nodes)
        return float(np.dot(self.rule.weights * self.density, vals))

    @property
    def cdf(self) -> np.ndarray:
        """Mass to the left of each node: the running sum of w rho less
        half of the node's own cell mass w_i rho_i, which the sum counts
        whole (error of second order in the local node spacing)."""
        mass = self.rule.weights * self.density
        return np.cumsum(mass) - 0.5 * mass


@dataclass(frozen=True)
class GibbsMeasure(GridMeasure):
    """Normalized Gibbs law mu_m of the frozen-coupling SDE on a grid."""

    model: ScalarMeanFieldModel
    m: float


@dataclass(frozen=True)
class GibbsFamily:
    """The tilt family mu_m ~ exp(log_gibbs0 + kappa m v) on one rule.

    log_gibbs0, the coupling v and the observable g are evaluated at the
    nodes once, and g is checked finite once; ``wg`` caches the
    quadrature weights times g for psi.  ``at(m)`` forms the same
    log-density as ``model.log_gibbs``, float for float, then normalizes
    it and checks the truncated tail mass: the only steps that depend
    on m.
    """

    model: ScalarMeanFieldModel
    rule: QuadratureRule
    lg0: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)
    wg: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        x = self.rule.nodes
        object.__setattr__(self, "lg0", self.model.log_gibbs0(x))
        object.__setattr__(self, "v", self.model.coupling_v(x))
        object.__setattr__(self, "g", _require_finite(self.model.g(x), x))
        object.__setattr__(self, "wg", self.rule.weights * self.g)

    def _tilt(self, m: float) -> tuple[np.ndarray, float]:
        """Unnormalized density w at the nodes and its integral z.

        w is exp(log_gibbs(., m)) shifted by its maximum, so very peaked
        densities do not underflow.  A boundary density w/z whose
        estimated tail mass exceeds 1e-10 on either side raises
        TruncationError.
        """
        x = self.rule.nodes
        lg = self.lg0 + (self.model.kappa * float(m)) * self.v
        shift = lg.max()
        w = np.exp(lg - shift)
        z = float(np.dot(self.rule.weights, w))

        # Exponential-tail estimate of the mass lost to truncation: density
        # at the boundary divided by the local log-density decay rate.
        for side in (0, -1):
            i2 = 1 if side == 0 else -2
            slope = abs((lg[i2] - lg[side]) / (x[i2] - x[side]))
            tail = w[side] / z / max(slope, 1e-3)
            if tail > 1e-10:
                raise TruncationError(
                    f"estimated tail mass {tail:.2e} at x={x[side]:.3g} "
                    f"exceeds 1e-10; enlarge the truncation half-width")
        return w, z

    def at(self, m: float) -> GibbsMeasure:
        """Normalize exp(log_gibbs(., m)) on the rule (``_tilt``)."""
        w, z = self._tilt(m)
        return GibbsMeasure(rule=self.rule, density=w / z,
                            model=self.model, m=float(m))

    def indicator(self, m: float) -> float:
        """Covariance indicator S0 = kappa Cov_mu_m(v, g) at any m."""
        gibbs = self.at(m)
        return self.model.kappa * (gibbs.moment(self.v * self.g)
                                   - gibbs.moment(self.v)
                                   * gibbs.moment(self.g))


def _family(model: ScalarMeanFieldModel, m: float,
            grid_spec: GridSpec | None = None) -> GibbsFamily:
    """The family on the spec's rule fitted to m."""
    grid_spec = grid_spec or GridSpec()
    return GibbsFamily(model, make_rule(model, grid_spec, m_values=(m,)))


def build_gibbs(model: ScalarMeanFieldModel, m: float,
                grid_spec: GridSpec | None = None) -> GibbsMeasure:
    """Gibbs law mu_m on the grid spec's rule fitted to m
    (``GibbsFamily.at``)."""
    return _family(model, m, grid_spec).at(m)


def psi(model: ScalarMeanFieldModel | GibbsFamily, m: float,
        grid_spec: GridSpec | None = None) -> float:
    """Self-consistency residual psi(m) = mu_m(g) - m.

    Given a ``GibbsFamily`` in place of the model, psi reuses its node
    arrays and rule.  The law is not normalized node by node: psi
    divides the one sum by the tilt's integral.
    """
    family = (model if isinstance(model, GibbsFamily)
              else _family(model, m, grid_spec))
    w, z = family._tilt(m)
    return float(np.dot(family.wg, w)) / z - float(m)


# Default psi scan ranges: the fixed-point map is bounded by ~1 for the
# double-well families at moderate noise and by e^(-1/2) for the cosine
# coupling, so these windows cover every branch with margin.
_SCAN_RANGES = {
    "dawson": (-3.0, 3.0),
    "rescaled_double_well": (-3.0, 3.0),
    "cosine": (-1.0, 1.0),
}


@dataclass(frozen=True)
class SelfConsistencyReport:
    """Stationary branches with their indicators S0, the scan window the
    search used and the Gibbs family on its quadrature rule.  A root is
    a fold where |S0 - 1| < 1e-6, because psi' = S0 - 1 there."""

    roots: list[float]
    s0_per_root: list[float]
    scan_range: tuple[float, float]
    family: GibbsFamily

    @property
    def branch_count(self) -> int:
        return len(self.roots)

    @property
    def fold_flags(self) -> list[bool]:
        return [abs(s0 - 1.0) < 1e-6 for s0 in self.s0_per_root]


def self_consistent_roots(model: ScalarMeanFieldModel,
                          scan_range: tuple[float, float] | None = None,
                          n_scan: int = 2001,
                          grid_spec: GridSpec | None = None
                          ) -> SelfConsistencyReport:
    """Locate every zero of psi on the scan range and grade each branch.

    Roots are bisected to 1e-10 in m and graded by S0.  Since
    psi' = S0 - 1, a root with |S0 - 1| < 1e-6 is flagged as a fold: at
    a branch merger bisection cannot separate the coincident zeros, so
    the degenerate root is reported once.  One Gibbs family serves the
    scan, the bisection and the indicators.  The report carries the scan
    window (the model's default when none is given) and the family.
    """
    scan_range = scan_range or _SCAN_RANGES.get(model.name, (-3.0, 3.0))
    grid_spec = grid_spec or GridSpec()
    if model.symmetric and not (scan_range[0] < 0.0 < scan_range[1]):
        raise ValueError("scan range must contain 0 for a symmetric model")
    family = GibbsFamily(model, make_rule(
        model, grid_spec, m_values=(scan_range[0], 0.0, scan_range[1])))
    roots = find_roots(lambda m: psi(family, m), scan_range,
                       n_scan=n_scan, tol=1e-10)
    s0 = [family.indicator(r) for r in roots]
    return SelfConsistencyReport(roots=roots, s0_per_root=s0,
                                 scan_range=scan_range, family=family)


def critical_sigma(model: ScalarMeanFieldModel,
                   sigma_range: tuple[float, float] = (0.1, 3.0),
                   grid_spec: GridSpec | None = None) -> float | None:
    """Noise level where the symmetric-branch indicator S0 crosses 1.

    Finds the first root of sigma -> S0(sigma) - 1 at m = 0 with
    ``find_roots`` (41 scan points, bisection to 1e-10), using the raw
    covariance indicator at m = 0.  Returns None when the indicator does
    not cross 1 in the range, and without a scan for a model that is not
    symmetric (m = 0 need not be a branch) or has beta = 0 (S0 = 0).
    """
    if not model.symmetric or model.beta == 0.0:
        return None
    grid_spec = grid_spec or GridSpec()

    def s0(sig):
        mdl = model.with_params(sigma=sig)
        rule = make_rule(mdl, grid_spec, m_values=(0.0,))
        return GibbsFamily(mdl, rule).indicator(0.0)

    roots = find_roots(lambda s: s0(s) - 1.0, sigma_range, 41, 1e-10)
    return roots[0] if roots else None
