"""Interacting-particle simulation of the mean-field SDE.

N particles follow explicit Euler-Maruyama steps in which the law is
closed through the empirical statistic m = mean(g(X^i)).  One m is
computed per step and shared by all particles (synchronous coupling),
so the cost per step stays O(N) for the scalar interaction.  Like the
transport solver, ``evolve`` records ``t``, ``m`` and observers through
``metrics.record_run`` and takes the keywords of ``fp_evolve``.

Reproducibility: the Gaussian increments of step s are drawn from a
counter-based generator keyed by (seed, s), with particle i taking the
i-th variate.  The stream therefore never depends on how the update is
scheduled, and the empirical reduction uses numpy pairwise summation,
so runs are bit-identical for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import TimeSeries, record_run
from .model import ScalarMeanFieldModel


class BlowUpError(RuntimeError):
    """A particle left the representable range (diverging trajectory)."""


@dataclass(frozen=True)
class Ensemble:
    """Particle positions with the cached empirical coupling statistic."""

    positions: np.ndarray
    t: float
    seed: int
    step_index: int
    m: float

    @property
    def n(self) -> int:
        return self.positions.size


def make_ensemble(positions, model: ScalarMeanFieldModel,
                  seed: int) -> Ensemble:
    positions = np.asarray(positions, dtype=float)
    return Ensemble(positions=positions, t=0.0, seed=int(seed),
                    step_index=0, m=float(np.mean(model.g(positions))))


def step_rng(seed: int, step_index: int) -> np.random.Generator:
    """Counter-based generator for one step: key = seed, counter = step."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, 0, 0, step_index]))


def apply_step(positions: np.ndarray, model: ScalarMeanFieldModel,
               dt: float, m: float, noise: np.ndarray) -> np.ndarray:
    """Pure Euler-Maruyama update with explicit Gaussian increments."""
    return (positions + model.drift(positions, m) * dt
            + model.sigma * np.sqrt(dt) * noise)


def step(ensemble: Ensemble, model: ScalarMeanFieldModel,
         dt: float) -> Ensemble:
    """Advance the ensemble by one step; m is recomputed once."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    noise = step_rng(ensemble.seed, ensemble.step_index).standard_normal(
        ensemble.n)
    new = apply_step(ensemble.positions, model, dt, ensemble.m, noise)
    if not np.all(np.isfinite(new)):
        bad = int(np.argmax(~np.isfinite(new)))
        raise BlowUpError(
            f"particle {bad} diverged at t={ensemble.t + dt:.6g}")
    return Ensemble(positions=new, t=ensemble.t + dt,
                    seed=ensemble.seed, step_index=ensemble.step_index + 1,
                    m=float(np.mean(model.g(new))))


def relaxation_dt_bound(model: ScalarMeanFieldModel) -> float:
    """Step-size guard 0.01 / max|a'| on the stationary support.

    The support half-width comes from the Gibbs log-density decay
    (pointwise ~1e-12) on |x| <= 64; a log-density that is not finite
    there is rejected.
    """
    # raw support: where the log-density sits within 28 nats of its
    # peak (pointwise ~1e-12), without the quadrature safety margin
    scan = np.linspace(-64.0, 64.0, 8193)
    lg = model.log_gibbs(scan, 0.0)
    if not np.isfinite(lg).all():
        i = int(np.argmax(~np.isfinite(lg)))
        raise ValueError(
            f"log-density of {model.name} is not finite at x={scan[i]:g}; "
            "the relaxation guard needs it on |x| <= 64")
    L = float(np.abs(scan[lg >= lg.max() - 28.0]).max())
    xs = np.linspace(-L, L, 2001)
    a = model.a(xs)
    da = np.abs(np.diff(a) / np.diff(xs)).max()
    return 0.01 / max(da, 1e-12)


def evolve(ensemble: Ensemble, model: ScalarMeanFieldModel, *,
           t_end: float, dt: float | None = None,
           observers: dict[str, Callable[[np.ndarray], float]] | None = None,
           stride: int = 1,
           stop_condition: Callable[[float, float], bool] | None = None
           ) -> TimeSeries:
    """Run the particle system through ``metrics.record_run``.

    Observers are functions of the position array; ``dt=None`` selects
    the relaxation guard bound, and a larger step is rejected.  Fixed
    seeds give bit-identical series.
    """
    guard = relaxation_dt_bound(model)
    dt = guard if dt is None else float(dt)
    if dt > guard * (1 + 1e-12):
        raise ValueError(
            f"dt={dt:g} exceeds the relaxation guard {guard:g}")
    return record_run(ensemble, lambda e: step(e, model, dt), t_end=t_end,
                      dt=dt, view=lambda e: e.positions, observers=observers,
                      stride=stride, stop_condition=stop_condition)
