"""Bounded-ratio perturbations of a stationary law and sampling from them.

A direction h (by default the adjoint eigenvector at the dominant
eigenvalue, which is real, expanded over the polynomial basis) is clamped
to [-M, M] and recentered so it integrates to zero:

    g_M = clip(h, -M, M) - mu(clip(h, -M, M)).

For any amplitude 0 < delta < 1/M the reweighted law

    mu_delta = (1 + delta * g_M) mu

is a probability measure with density ratio inside (0, 2).  The clamp
level controls the L2 truncation error gamma = ||g_M - (h - mu(h))||;
the default level of eight L2 norms keeps gamma below one percent for
the directions arising here.

One ``Perturbation`` holds h as a callable, M, the centering constant,
gamma, g_M at the nodes and mu_delta, a plain ``GridMeasure`` on the
rule of mu; ``g_M_at`` evaluates g_M one way at nodes, cells or samples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .spectrum import BranchAnalysis
from .stationary import GibbsMeasure, GridMeasure


def truncate_center(gibbs: GibbsMeasure, h, M: float):
    """Clamp a direction at +-M and recenter it under the measure.

    ``h`` holds the direction's values at the quadrature nodes.  Returns
    the centered truncated direction there, the centering constant
    mu(clip(h, -M, M)) and the achieved L2(mu) distance gamma to the
    centered original.
    """
    if M <= 0:
        raise ValueError("truncation level M must be positive")
    hv = np.asarray(h, dtype=float)
    if hv.shape != gibbs.rule.nodes.shape:
        raise ValueError("direction values do not match the quadrature grid")
    clipped = np.clip(hv, -M, M)
    center = gibbs.moment(clipped)
    g_M = clipped - center
    centered = hv - gibbs.moment(hv)
    gamma = float(np.sqrt(gibbs.moment((g_M - centered) ** 2)))
    return g_M, center, gamma


def perturbed_measure(gibbs: GibbsMeasure, g_M, delta: float) -> GridMeasure:
    """The law (1 + delta g_M) mu on the base law's rule.

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
    return GridMeasure(rule=gibbs.rule,
                       density=(1.0 + delta * g_M) * gibbs.density)


@dataclass(frozen=True)
class Perturbation:
    """The perturbed law mu_delta = (1 + delta g_M) mu of one branch.

    ``h`` is the direction at arbitrary points, ``M`` its clamp level,
    ``center`` = mu(clip(h, -M, M)), ``gamma`` the L2(mu) truncation
    error, ``g_M`` the centered clamped direction at the quadrature
    nodes and ``law`` mu_delta.
    """

    h: Callable[[np.ndarray], np.ndarray]
    M: float
    center: float
    gamma: float
    g_M: np.ndarray
    law: GridMeasure

    def g_M_at(self, x) -> np.ndarray:
        """clip(h, -M, M) - center at arbitrary points."""
        return np.clip(self.h(x), -self.M, self.M) - self.center


def read_direction(path: str) -> Callable[[np.ndarray], np.ndarray]:
    """h from a CSV file with columns x,h, interpolated linearly.  The
    file must exist and hold two or more rows of finite values, x
    strictly increasing."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"custom_file {path!r} cannot be read: "
                         f"{exc.strerror}") from None
    if not any(line.replace("#", "").strip() for line in lines):
        # genfromtxt would only warn on a file with no text beyond
        # comment marks, then fail on the missing header
        raise ValueError(f"custom_file {path!r} is empty")
    data = np.genfromtxt(lines, delimiter=",", names=True)
    if not {"x", "h"} <= set(data.dtype.names or ()):
        problem = "needs the columns x and h"
    elif data.size < 2:
        problem = "needs at least two rows"
    elif not (np.isfinite(data["x"]).all() and np.isfinite(data["h"]).all()):
        problem = "holds a value that is not finite"
    elif not (np.diff(data["x"]) > 0).all():
        problem = "needs x strictly increasing"
    else:
        return partial(np.interp, xp=data["x"], fp=data["h"])
    raise ValueError(f"custom_file {path!r} {problem}")


def make_perturbation(branch: BranchAnalysis, delta: float,
                      h: Callable[[np.ndarray], np.ndarray] | None = None,
                      M: float | None = None) -> Perturbation:
    """Build the perturbation of a branch along the direction h.

    ``h=None`` takes the dominant adjoint eigenvector, which is real, as
    a basis series; any other h is evaluated as given, at the nodes and
    everywhere else (``read_direction`` builds one from a CSV file).
    ``M=None`` clamps at eight L2(mu) norms of h.
    """
    gibbs = branch.gibbs
    if h is None:
        # the adjoint has no constant component (``unstable_mode``)
        coeff_eig = np.array(branch.mode.adjoint_vec, dtype=float)
        coeff_eig /= np.linalg.norm(coeff_eig)
        h = partial(branch.basis.eval_series,
                    branch.spectrum.vectors @ coeff_eig)
    h_vals = h(gibbs.rule.nodes)
    if M is None:
        M = 8.0 * float(np.sqrt(gibbs.moment(h_vals * h_vals)))
    g_M, center, gamma = truncate_center(gibbs, h_vals, M)
    return Perturbation(h=h, M=float(M), center=center, gamma=gamma, g_M=g_M,
                        law=perturbed_measure(gibbs, g_M, delta))


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson slopes of strictly increasing data (x, y).

    Interior slopes are the weighted harmonic mean of the neighbouring
    secants; each end takes the one-sided three-point estimate, set to
    zero when its sign disagrees with the end secant.  The arithmetic
    is that of scipy's PchipInterpolator, so the two agree bit for bit.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    d = np.empty_like(y)
    d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))

    def end(h0, h1, m0, m1):
        slope = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        return slope if slope > 0 else 0.0

    d[0] = end(h[0], h[1], m[0], m[1])
    d[-1] = end(h[-1], h[-2], m[-1], m[-2])
    return d


def quantile_function(measure: GridMeasure):
    """Inverse CDF of a tabulated measure, as a vectorized callable.

    Works for any ``GridMeasure``, whose ``cdf`` is the mass to the left
    of each node; the inverse is the monotone (PCHIP) cubic Hermite
    interpolant through the strictly increasing CDF knots, and
    probabilities outside the tabulated range map to the outermost
    knots.
    """
    x = measure.rule.nodes
    cdf = np.asarray(measure.cdf, dtype=float)
    # drop knots below quantile resolution: denormal CDF increments give
    # the monotone interpolant effectively infinite slopes
    keep = np.nonzero(np.diff(cdf, prepend=-1.0) > 1e-15)[0]
    knots, vals = cdf[keep], x[keep]
    d = _pchip_slopes(knots, vals)
    h = np.diff(knots)
    secant = np.diff(vals) / h
    t = (d[:-1] + d[1:] - 2 * secant) / h
    # power-basis coefficients on each interval, highest degree first
    c0, c1, c2, c3 = t / h, (secant - d[:-1]) / h - t, d[:-1], vals[:-1]

    def inv(u):
        u = np.clip(u, knots[0], knots[-1])
        # interval i holds knots[i] <= u < knots[i+1]; the last knot
        # closes the last interval
        i = np.minimum(np.searchsorted(knots, u, side="right") - 1,
                       knots.size - 2)
        s = u - knots[i]
        s2 = s * s
        return c3[i] + c2[i] * s + c1[i] * s2 + c0[i] * (s2 * s)

    return inv


def sample_measure(measure: GridMeasure, n: int, seed: int) -> np.ndarray:
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

