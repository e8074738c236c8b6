"""Distances between laws and the time-series container.

Ships the exact 1-D L1 transport distance (sorted quantile coupling for
samples, CDF-difference integral for tabulated densities) and a
dictionary-based lower-bound estimator for the weighted dual norm

    ||mu - nu|| = sup |(mu - nu)(g)|  over  |g(x) - g(y)| <=
                  phi0(|x - y|) (V0(x) + V0(y)) / 2,

with V0(x) = (1 + x^2)^(p0/2) and phi0 either r or min(r, 1).  The true
supremum over the whole test class is not computable; the estimator
maximizes over a fixed dictionary with pair-sampled norm estimates and
therefore reports a lower bound.  At p0 = 0, phi0 = r the class is the
1-Lipschitz ball, so the bound is dominated by the transport distance.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class TimeSeries:
    """Sampled observables: strictly increasing times plus named channels."""

    times: np.ndarray
    channels: dict[str, np.ndarray]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        if t.ndim != 1 or (t.size > 1 and not np.all(np.diff(t) > 0)):
            raise ValueError("times must be strictly increasing")
        for name, ch in self.channels.items():
            ch = np.asarray(ch)
            if ch.shape[0] != t.size:
                raise ValueError(f"channel {name!r} length mismatch")
            self.channels[name] = ch

    def __getitem__(self, name: str) -> np.ndarray:
        return self.channels[name]


def w1_empirical(xs, ys) -> float:
    """Exact 1-D transport distance between two samples.

    Equal sizes reduce to the mean absolute difference of the sorted
    samples; unequal sizes integrate the quantile difference over the
    merged probability breakpoints.
    """
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("samples must be nonempty")
    n, m = xs.size, ys.size
    if n == m:
        return float(np.mean(np.abs(xs - ys)))
    edges = np.union1d(np.arange(1, n) / n, np.arange(1, m) / m)
    edges = np.concatenate([[0.0], edges, [1.0]])
    mid = 0.5 * (edges[:-1] + edges[1:])
    qx = xs[np.minimum((mid * n).astype(int), n - 1)]
    qy = ys[np.minimum((mid * m).astype(int), m - 1)]
    return float(np.sum(np.abs(qx - qy) * np.diff(edges)))


def w1_density(x, F, G) -> float:
    """Transport distance between two CDFs tabulated on a common grid.

    Integrates |F - G| with the midpoint value of the linear
    interpolant on each grid segment.
    """
    x = np.asarray(x, dtype=float)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if x.shape != F.shape or x.shape != G.shape:
        raise ValueError("cdfs must share one common grid")
    d = np.abs(F - G)
    return float(np.sum(0.5 * (d[:-1] + d[1:]) * np.diff(x)))


def empirical_cdf(samples, grid_x) -> np.ndarray:
    """Fraction of samples at or below each grid point."""
    s = np.sort(np.asarray(samples, dtype=float))
    return np.searchsorted(s, np.asarray(grid_x, dtype=float),
                           side="right") / s.size


def ramp_dictionary(lo: float, hi: float, n_knots: int = 32) -> list:
    """1-Lipschitz ramps min(max(x - k, 0), width) at uniform knots."""
    knots = np.linspace(lo, hi, n_knots + 1)
    width = (hi - lo) / 4

    def make(k):
        return lambda x: np.clip(np.asarray(x, dtype=float) - k, 0.0, width)

    return [make(k) for k in knots[:-1]]


@dataclass
class WeightedNormConfig:
    """Weight exponent, gauge, and test-function dictionary.

    ``prepare`` tabulates every dictionary function on a grid and
    estimates its class norm as the maximum of the defining ratio over
    all grid node pairs; the estimates are cached for reuse.
    """

    p0: float = 0.0
    phi0: str = "r"          # "r" or "r_wedge_1"
    dictionary: Sequence[Callable] = field(default_factory=list)
    _grid: np.ndarray | None = None
    _tabulated: np.ndarray | None = None
    _norms: np.ndarray | None = None

    def gauge(self, r):
        if self.phi0 == "r":
            return r
        if self.phi0 == "r_wedge_1":
            return np.minimum(r, 1.0)
        raise ValueError(f"unknown gauge {self.phi0!r}")

    def weight(self, x):
        return (1.0 + np.asarray(x, dtype=float) ** 2) ** (self.p0 / 2)

    def prepare(self, grid_x: np.ndarray):
        grid_x = np.asarray(grid_x, dtype=float)
        funcs = list(self.dictionary)
        if not funcs:
            funcs = ramp_dictionary(grid_x[0], grid_x[-1])
            self.dictionary = funcs
        tab = np.array([np.asarray(f(grid_x), dtype=float) for f in funcs])
        V = self.weight(grid_x)
        norms = np.empty(len(funcs))
        # pair maximum in row blocks to bound memory
        block = max(1, 2_000_000 // grid_x.size)
        for k, g in enumerate(tab):
            best = 0.0
            for i0 in range(0, grid_x.size, block):
                i1 = min(i0 + block, grid_x.size)
                dg = np.abs(g[i0:i1, None] - g[None, :])
                dx = np.abs(grid_x[i0:i1, None] - grid_x[None, :])
                den = self.gauge(dx) * 0.5 * (V[i0:i1, None] + V[None, :])
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = np.where(dx > 0, dg / den, 0.0)
                best = max(best, float(ratio.max()))
            norms[k] = best
        self._grid = grid_x
        self._tabulated = tab
        self._norms = norms
        return self


def weighted_dual_norm_lb(mu_weights, nu_weights,
                          config: WeightedNormConfig) -> float:
    """Dictionary lower bound of the weighted dual norm.

    ``mu_weights``/``nu_weights`` are discrete masses on the grid the
    config was prepared with (they must carry equal total mass).  For
    each dictionary function g the value |(mu - nu)(g)| is divided by
    the pair-estimated class norm of g; the maximum over the dictionary
    is a lower bound of the supremum over the full class.
    """
    if config._grid is None:
        raise ValueError("config.prepare(grid) must be called first")
    mu = np.asarray(mu_weights, dtype=float)
    nu = np.asarray(nu_weights, dtype=float)
    if mu.shape != config._grid.shape or nu.shape != config._grid.shape:
        raise ValueError("measure weights do not match the prepared grid")
    if abs(mu.sum() - nu.sum()) > 1e-10:
        raise ValueError(
            f"total masses differ by {abs(mu.sum() - nu.sum()):.2e}; "
            "the dual norm needs equal-mass signed differences")
    diff = mu - nu
    vals = np.abs(config._tabulated @ diff)
    ok = config._norms > 0
    if not np.any(ok):
        return 0.0
    return float(np.max(vals[ok] / config._norms[ok]))
