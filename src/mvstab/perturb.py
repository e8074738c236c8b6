"""Bounded-ratio perturbations of a stationary law and sampling from them.

A direction h (by default the real part of the adjoint eigenvector at
the dominant eigenvalue, expanded over the polynomial basis) is clamped
to [-M, M] and recentered so it integrates to zero:

    g_M = clip(h, -M, M) - mu(clip(h, -M, M)).

For any amplitude 0 < delta < 1/M the reweighted law

    mu_delta = (1 + delta * g_M) mu

is a probability measure with density ratio inside (0, 2).  The clamp
level controls the L2 truncation error gamma = ||g_M - (h - mu(h))||;
the default level of eight L2 norms keeps gamma below one percent for
the directions arising here.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator

from .spectrum import BranchAnalysis, SpectralBasis
from .stationary import GibbsMeasure, node_cdf


def truncate_center(gibbs: GibbsMeasure, h, M: float):
    """Clamp a direction at +-M and recenter it under the measure.

    Returns the centered truncated direction on the quadrature nodes and
    the achieved L2(mu) distance gamma to the centered original.
    """
    if M <= 0:
        raise ValueError("truncation level M must be positive")
    hv = h(gibbs.rule.nodes) if callable(h) else np.asarray(h, dtype=float)
    if hv.shape != gibbs.rule.nodes.shape:
        raise ValueError("direction values do not match the quadrature grid")
    clipped = np.clip(hv, -M, M)
    g_M = clipped - gibbs.moment(clipped)
    centered = hv - gibbs.moment(hv)
    gamma = float(np.sqrt(gibbs.moment((g_M - centered) ** 2)))
    return g_M, gamma


def default_truncation_level(gibbs: GibbsMeasure, h) -> float:
    """Clamp level of eight L2(mu) norms of the direction."""
    hv = h(gibbs.rule.nodes) if callable(h) else np.asarray(h, dtype=float)
    return 8.0 * float(np.sqrt(gibbs.moment(hv * hv)))


@dataclass(frozen=True)
class PerturbedMeasure:
    """The reweighted law (1 + delta g_M) mu on the quadrature grid.

    ``cdf`` is the mass to the left of each node, as for the base law.
    """

    base: GibbsMeasure
    delta: float
    ratio: np.ndarray
    density: np.ndarray
    cdf: np.ndarray

    @property
    def rule(self):
        return self.base.rule

    def moment(self, f) -> float:
        vals = f(self.rule.nodes) if callable(f) else np.asarray(f, dtype=float)
        return float(np.dot(self.rule.weights * self.density, vals))


def perturbed_measure(gibbs: GibbsMeasure, g_M, delta: float) -> PerturbedMeasure:
    """Reweight the base law by (1 + delta g_M).

    Requires delta below 1/max|g_M| (the amplitude bound Delta_0), which
    keeps the density ratio strictly positive.
    """
    g_M = np.asarray(g_M, dtype=float)
    delta = float(delta)
    if delta < 0:
        raise ValueError("amplitude must be nonnegative")
    sup = float(np.abs(g_M).max())
    if sup > 0:
        delta0 = 1.0 / sup
        if delta >= delta0:
            raise ValueError(
                f"amplitude delta={delta:g} is not below Delta_0="
                f"1/max|g_M|={delta0:g}")
    ratio = 1.0 + delta * g_M
    density = ratio * gibbs.density
    return PerturbedMeasure(base=gibbs, delta=delta, ratio=ratio,
                            density=density,
                            cdf=node_cdf(gibbs.rule, density))


@dataclass(frozen=True)
class PerturbationSpec:
    """Reusable description of one perturbation direction.

    Keeps the direction as polynomial-basis coefficients so it can be
    evaluated on any grid (particle positions, finite-volume cells) with
    the clamp level and quadrature centering constant frozen.
    """

    basis: SpectralBasis
    h_poly: np.ndarray
    M: float
    center: float
    delta: float
    gamma_check: float
    label: str = "custom"

    def g_M_at(self, x) -> np.ndarray:
        vals = self.basis.eval_series(self.h_poly, x)
        return np.clip(vals, -self.M, self.M) - self.center


def make_perturbation(branch: BranchAnalysis, delta: float,
                      direction: str = "adjoint-re", M: float | None = None,
                      custom_file: str | None = None):
    """Build the perturbation of a branch along one direction.

    Returns (PerturbationSpec, PerturbedMeasure).  "adjoint-re" and
    "adjoint-im" take the real or imaginary part of the dominant adjoint
    eigenvector; "adjoint-im" is only available when the dominant
    eigenvalue has a genuine imaginary part, since for a real simple
    eigenvalue that direction degenerates to the unperturbed law.
    "custom-file" reads h from a CSV file with columns x,h, interpolated
    linearly onto the quadrature nodes.  ``M=None`` selects
    ``default_truncation_level``.
    """
    gibbs, basis = branch.gibbs, branch.basis
    if direction == "custom-file":
        if not custom_file:
            raise ValueError("direction=custom-file needs custom_file=...")
        data = np.genfromtxt(custom_file, delimiter=",", names=True)
        h_vals = np.interp(gibbs.rule.nodes, data["x"], data["h"])
        mu = gibbs.rule.weights * gibbs.density
        h_poly = (basis.node_values * mu) @ h_vals
    else:
        u = np.asarray(branch.mode.adjoint_vec)
        if direction == "adjoint-re":
            coeff_eig = u.real.astype(float)
        elif direction == "adjoint-im":
            if not np.iscomplexobj(u) or np.abs(u.imag).max() < 1e-12:
                raise ValueError(
                    "the dominant eigenvalue is real, the imaginary-part "
                    "direction degenerates to the stationary law")
            coeff_eig = u.imag.astype(float)
        else:
            raise ValueError(f"unknown direction {direction!r}")
        # constants do not perturb a probability law
        coeff_eig[0] = 0.0
        nrm = np.linalg.norm(coeff_eig)
        if nrm == 0:
            raise ValueError("perturbation direction is identically constant")
        coeff_eig /= nrm
        h_poly = branch.spectrum.vectors @ coeff_eig
        h_vals = h_poly @ basis.node_values
    if M is None:
        M = default_truncation_level(gibbs, h_vals)
    g_M, gamma = truncate_center(gibbs, h_vals, M)
    center = float(gibbs.moment(np.clip(h_vals, -M, M)))
    spec = PerturbationSpec(basis=basis, h_poly=h_poly, M=float(M),
                            center=center, delta=float(delta),
                            gamma_check=gamma, label=direction)
    return spec, perturbed_measure(gibbs, g_M, delta)


def quantile_function(measure):
    """Inverse CDF of a tabulated measure, as a vectorized callable.

    Works for any measure exposing ``rule`` and ``cdf`` (the mass to the
    left of each node); the inverse is a monotone cubic interpolant
    through the strictly increasing CDF knots, and probabilities outside
    the tabulated range map to the outermost knots.
    """
    x = measure.rule.nodes
    cdf = np.asarray(measure.cdf, dtype=float)
    # drop knots below quantile resolution: denormal CDF increments give
    # the monotone interpolant effectively infinite slopes
    keep = np.nonzero(np.diff(cdf, prepend=-1.0) > 1e-15)[0]
    inv = PchipInterpolator(cdf[keep], x[keep], extrapolate=False)
    lo, hi = cdf[keep][0], cdf[keep][-1]
    return lambda u: np.asarray(inv(np.clip(u, lo, hi)), dtype=float)


def sample_measure(measure, n: int, seed: int) -> np.ndarray:
    """Inverse-CDF sampling on the tabulated grid.

    Pushes uniform variates through ``quantile_function(measure)``.  The
    generator is counter-based, so a fixed (n, seed) pair reproduces the
    same positions on any machine.
    """
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    if n == 0:
        return np.empty(0)
    gen = np.random.Generator(np.random.Philox(key=seed))
    return quantile_function(measure)(gen.random(n))


def dump_positions(path, positions, fmt: str = "f64le"):
    """Write sampled positions as little-endian float64 or one-column CSV."""
    positions = np.asarray(positions, dtype=float)
    if fmt == "f64le":
        positions.astype("<f8").tofile(path)
    elif fmt == "csv":
        np.savetxt(path, positions, delimiter=",", header="x", comments="",
                   fmt="%.17g")
    else:
        raise ValueError(f"unknown dump format {fmt!r}")
