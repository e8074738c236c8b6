"""Distances between laws, the time-series container and the record
loop both escape engines run through.

Ships the exact 1-D L1 transport distance W1 (sorted quantile coupling
for samples, CDF-difference integral for tabulated densities).  W1 is
the paper's weighted dual norm at weight exponent 0 with gauge r, where
the test class is the 1-Lipschitz ball.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


def record_run(state, advance: Callable, *, t_end: float, dt: float,
               observe: Callable[..., dict] | None = None, stride: int = 1,
               stop_condition: Callable[[float, float], bool] | None = None
               ) -> TimeSeries:
    """Step a state to t_end, recording its ``t``, ``m`` and one
    observation per record.

    ``advance(state)`` returns the state one step of ``dt`` later, and
    ``observe(state)`` returns a dict whose keys become the channels
    next to ``m``.  The first record is the initial state; afterwards
    one record lands every ``stride`` steps and at the last step.
    ``stop_condition(t, m)`` is asked at records only and ends the run
    when true.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    times, rows = [], []

    def record(cur):
        times.append(cur.t)
        rows.append({"m": cur.m, **(observe(cur) if observe else {})})

    record(state)
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    cur = state
    for s in range(1, n_steps + 1):
        cur = advance(cur)
        if s % stride == 0 or s == n_steps:
            record(cur)
            if stop_condition is not None and stop_condition(cur.t, cur.m):
                break
    return TimeSeries(times=np.array(times), channels={
        k: np.array([row[k] for row in rows]) for k in rows[0]})


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
    """Fraction of samples at or below each grid point.

    Samples already in ascending order are not sorted again.
    """
    s = np.asarray(samples, dtype=float)
    if not (s[:-1] <= s[1:]).all():
        s = np.sort(s)
    return np.searchsorted(s, np.asarray(grid_x, dtype=float),
                           side="right") / s.size
