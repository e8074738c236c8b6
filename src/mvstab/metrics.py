"""Distances between laws and the record loop both escape engines run
through.

Ships the exact 1-D L1 transport distance W1 between two CDFs tabulated
on one grid and the empirical CDF of a sample on such a grid.  W1 is the
paper's weighted dual norm at weight exponent 0 with gauge r, where the
test class is the 1-Lipschitz ball.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def record_run(state, advance: Callable, *, t_end: float, dt: float,
               observe: Callable[..., dict] | None = None, stride: int = 1,
               stop_condition: Callable[[float, float], bool] | None = None
               ) -> dict[str, np.ndarray]:
    """Step a state to t_end, recording its ``t``, ``m`` and one
    observation per record.

    ``advance(state)`` returns the state one step of ``dt`` later, and
    ``observe(state)`` returns a dict of scalars.  The run returns one
    array per key, in record order: ``t``, ``m`` and the keys of
    ``observe``.  The first record is the initial state; afterwards
    one record lands every ``stride`` steps and at the last step.
    ``stop_condition(t, m)`` is asked at records only and ends the run
    when true.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    rows = []

    def record(cur):
        rows.append({"t": cur.t, "m": cur.m,
                     **(observe(cur) if observe else {})})

    record(state)
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    cur = state
    for s in range(1, n_steps + 1):
        cur = advance(cur)
        if s % stride == 0 or s == n_steps:
            record(cur)
            if stop_condition is not None and stop_condition(cur.t, cur.m):
                break
    return {k: np.array([row[k] for row in rows]) for k in rows[0]}


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
