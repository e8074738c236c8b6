"""Interacting-particle simulation of the mean-field SDE.

N particles follow explicit Euler-Maruyama steps in which the law is
closed through the empirical statistic m_hat = mean(g(X^i)).  One m_hat
is computed per step and shared by all particles (synchronous coupling),
so the cost per step stays O(N) for the scalar interaction.

Reproducibility: the Gaussian increments of step s are drawn from a
counter-based generator keyed by (seed, s), with particle i taking the
i-th variate.  The stream therefore never depends on how the update is
scheduled, and the empirical reduction uses numpy pairwise summation,
so runs are bit-identical for a fixed seed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .metrics import TimeSeries
from .model import ScalarMeanFieldModel


class BlowUpError(RuntimeError):
    """A particle left the representable range (diverging trajectory)."""


@dataclass(frozen=True)
class Ensemble:
    """Particle positions with the cached empirical coupling statistic."""

    positions: np.ndarray
    time: float
    seed: int
    step_index: int
    m_hat: float

    @property
    def n(self) -> int:
        return self.positions.size


def make_ensemble(positions, model: ScalarMeanFieldModel, seed: int,
                  time: float = 0.0) -> Ensemble:
    positions = np.asarray(positions, dtype=float)
    return Ensemble(positions=positions, time=float(time), seed=int(seed),
                    step_index=0, m_hat=float(np.mean(model.g(positions))))


def step_rng(seed: int, step_index: int) -> np.random.Generator:
    """Counter-based generator for one step: key = seed, counter = step."""
    return np.random.Generator(
        np.random.Philox(key=seed, counter=[0, 0, 0, step_index]))


def apply_step(positions: np.ndarray, model: ScalarMeanFieldModel,
               dt: float, m_hat: float, noise: np.ndarray) -> np.ndarray:
    """Pure Euler-Maruyama update with explicit Gaussian increments."""
    return (positions + model.drift(positions, m_hat) * dt
            + model.sigma * np.sqrt(dt) * noise)


def step(ensemble: Ensemble, model: ScalarMeanFieldModel, dt: float,
         rng: np.random.Generator | None = None) -> Ensemble:
    """Advance the ensemble by one step; m_hat is recomputed once."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if rng is None:
        rng = step_rng(ensemble.seed, ensemble.step_index)
    noise = rng.standard_normal(ensemble.n)
    new = apply_step(ensemble.positions, model, dt, ensemble.m_hat, noise)
    if not np.all(np.isfinite(new)):
        bad = int(np.argmax(~np.isfinite(new)))
        raise BlowUpError(
            f"particle {bad} diverged at t={ensemble.time + dt:.6g}")
    return Ensemble(positions=new, time=ensemble.time + dt,
                    seed=ensemble.seed, step_index=ensemble.step_index + 1,
                    m_hat=float(np.mean(model.g(new))))


def relaxation_dt_bound(model: ScalarMeanFieldModel,
                        positions: np.ndarray | None = None) -> float:
    """Step-size guard 0.01 / max|a'| on the stationary support.

    The support half-width comes from the Gibbs log-density decay
    (pointwise ~1e-12); for models without a usable density the grid
    falls back to the occupied range of the initial positions.
    """
    try:
        # raw support: where the log-density sits within 28 nats of its
        # peak (pointwise ~1e-12), without the quadrature safety margin
        scan = np.linspace(-64.0, 64.0, 8193)
        lg = model.log_gibbs(scan, 0.0)
        occupied = np.abs(scan[lg >= lg.max() - 28.0])
        if occupied.size == 0 or not np.isfinite(lg).all():
            raise ValueError("no usable support")
        L = float(occupied.max())
    except (ValueError, FloatingPointError, ZeroDivisionError):
        if positions is None:
            L = 3.0
        else:
            L = max(3.0, float(np.abs(positions).max()) + 1.0)
    xs = np.linspace(-L, L, 2001)
    a = model.a(xs)
    da = np.abs(np.diff(a) / np.diff(xs)).max()
    return 0.01 / max(da, 1e-12)


@dataclass(frozen=True)
class SimConfig:
    """Simulation horizon, step size, and observer set.

    ``observers`` map channel names to functions of the position array
    returning one float (ensemble means, distances to a reference law,
    ...), recorded every ``stride`` steps.  ``dt=None`` selects the
    relaxation guard bound.  ``stop_condition(t, m_hat)`` may end a run
    early at a record point.
    """

    dt: float | None
    t_end: float
    observers: dict[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict)
    stride: int = 1
    stop_condition: Callable[[float, float], bool] | None = None


def evolve(ensemble: Ensemble, model: ScalarMeanFieldModel,
           config: SimConfig) -> TimeSeries:
    """Run the particle system, recording m_hat and observer means.

    The first record is the initial state; afterwards one record lands
    every ``stride`` steps and at the final step.  Fixed seeds give
    bit-identical series.
    """
    guard = relaxation_dt_bound(model, ensemble.positions)
    dt = guard if config.dt is None else float(config.dt)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt > guard * (1 + 1e-12):
        raise ValueError(
            f"dt={dt:g} exceeds the relaxation guard {guard:g}")
    n_steps = int(np.ceil(config.t_end / dt - 1e-12))

    names = sorted(config.observers)
    times = [ensemble.time]
    m_hats = [ensemble.m_hat]
    obs = {k: [float(config.observers[k](ensemble.positions))] for k in names}

    cur = ensemble
    for s in range(1, n_steps + 1):
        cur = step(cur, model, dt)
        if s % config.stride == 0 or s == n_steps:
            times.append(cur.time)
            m_hats.append(cur.m_hat)
            for k in names:
                obs[k].append(float(config.observers[k](cur.positions)))
            if config.stop_condition is not None and \
                    config.stop_condition(cur.time, cur.m_hat):
                break

    channels = {"m_hat": np.array(m_hats)}
    channels.update({k: np.array(v) for k, v in obs.items()})
    return TimeSeries(times=np.array(times), channels=channels)

