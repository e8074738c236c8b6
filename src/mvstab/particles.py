"""Interacting-particle simulation of the mean-field SDE.

N particles follow the explicit weak second-order step for additive
noise (Kloeden & Platen, Numerical Solution of SDEs, 1992, sec. 15.1;
weak error expansion in Talay & Tubaro, Stoch. Anal. Appl. 8, 1990):
an Euler-Maruyama predictor, then the trapezoidal average of the drift
at the start and at the predictor, both driven by the same Gaussian
increment.  The law is closed through the empirical statistic
m = mean(g(X^i)), computed once at the start of the step and once at
the predictor and shared by all particles (synchronous coupling), so
the cost per step stays O(N) for the scalar interaction.  Like the
transport solver, ``evolve`` records ``t``, ``m`` and one observation
per record through ``metrics.record_run`` and takes the keywords of
``fp_evolve``.

Reproducibility: the Gaussian increments of step s are drawn from a
counter-based generator keyed by (seed, s), with particle i taking the
i-th variate (Salmon et al., "Parallel random numbers: as easy as 1, 2,
3", SC'11).  The draw of step s + 1 therefore does not depend on step
s, and ``evolve`` submits it to a one-worker ``ThreadPoolExecutor``
while step s runs.  The stream never depends on how the update is
scheduled, and the empirical reduction uses numpy pairwise summation,
so runs are bit-identical for a fixed seed on any number of CPUs.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
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


def step_noise(seed: int, step_index: int, n: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """The n Gaussian increments of one step, from the counter-based
    generator keyed by seed and counted by step; written into ``out``
    when given."""
    rng = np.random.Generator(
        np.random.Philox(key=seed, counter=[0, 0, 0, step_index]))
    return rng.standard_normal(n, out=out)


def apply_step(positions: np.ndarray, model: ScalarMeanFieldModel,
               dt: float, m: float, noise: np.ndarray) -> np.ndarray:
    """One predictor-corrector step with explicit Gaussian increments.

    With dW = sqrt(dt) * noise, the predictor is the Euler-Maruyama
    step Xp = X + b(X, m) dt + sigma dW, and the result is
    X + (b(X, m) + b(Xp, mp)) dt / 2 + sigma dW with mp = mean(g(Xp)):
    weak order two for additive noise, at one extra drift evaluation.
    A predictor that leaves the floating-point range makes mp, and so
    every corrected position, non-finite; it is returned as is, so its
    non-finite entries name the particles that diverged.
    """
    incr = model.sigma * np.sqrt(dt) * noise
    drift = model.drift(positions, m)
    pred = drift * dt
    pred += positions
    pred += incr
    m_pred = float(np.mean(model.g(pred)))
    if not np.isfinite(m_pred):
        return pred
    drift += model.drift(pred, m_pred)
    drift *= 0.5 * dt
    drift += positions
    drift += incr
    return drift


def step(ensemble: Ensemble, model: ScalarMeanFieldModel, dt: float,
         noise: np.ndarray | None = None) -> Ensemble:
    """Advance the ensemble by one ``apply_step`` and cache the
    statistic of the new positions for the next step.

    ``noise`` holds the step's increments when they were drawn ahead
    (see ``evolve``); by default ``step_noise`` draws them here.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if noise is None:
        noise = step_noise(ensemble.seed, ensemble.step_index, ensemble.n)
    new = apply_step(ensemble.positions, model, dt, ensemble.m, noise)
    if not np.all(np.isfinite(new)):
        bad = int(np.argmax(~np.isfinite(new)))
        raise BlowUpError(
            f"particle {bad} diverged at t={ensemble.t + dt:.6g}")
    return Ensemble(positions=new, t=ensemble.t + dt,
                    seed=ensemble.seed, step_index=ensemble.step_index + 1,
                    m=float(np.mean(model.g(new))))


def relaxation_dt_bound(model: ScalarMeanFieldModel) -> float:
    """Default and largest accepted step: 0.16 / K on the stationary
    support, where

        K = max|a'| + |beta| (max|c'| max|g| + max|c| max|g'|)

    bounds the row sums of the Jacobian of the N-particle drift
    a(x_i) + beta c(x_i) mean_j g(x_j).  K dt = 0.16 keeps every linear
    mode, the mean-field feedback included, far inside the step's
    stability interval [-2, 0].

    The factor comes from the measured weak error of ``apply_step``.
    Started from the Gibbs law at m = 0.5 (N = 2e4, 4 seeds, both step
    sizes of a pair driven by one Brownian path), the largest
    |mean m_hat| gap over t in [0, 5] between this step and a sixteenth
    of it, against Euler-Maruyama at the former guard 0.01 / max|a'|
    and ``apply_step`` at half that, reads

        dawson, beta = 1, sigma = 0.8 sigma_c                3.7e-5 vs 2.5e-4
        cosine, beta = 1                                     6.8e-4 vs 1.1e-3
        cosine, beta = 12.8                                  5.8e-5 vs 1.1e-3
        rescaled_double_well, beta = 1, sigma = 0.8 sigma_c  1.7e-5 vs 4.6e-4

    Without the feedback term in K the step was 0.16 on cosine, and its
    gap 2.5e-3 at beta = 1 and 8e-3 at beta = 12.8.

    The support half-width is that of the occupied points
    (``ScalarMeanFieldModel.occupied``) of |x| <= 64, without the
    quadrature safety margin.
    """
    scan = np.linspace(-64.0, 64.0, 8193)
    L = float(np.abs(model.occupied(
        scan, "the relaxation guard needs it on |x| <= 64")).max())
    xs = np.linspace(-L, L, 2001)

    def slope(f):
        return float(np.abs(np.diff(f(xs)) / np.diff(xs)).max())

    k = slope(model.a) + abs(model.beta) * (
        slope(model.c) * float(np.abs(model.g(xs)).max())
        + float(np.abs(model.c(xs)).max()) * slope(model.g))
    return 0.16 / max(k, 1e-12)


def evolve(ensemble: Ensemble, model: ScalarMeanFieldModel, *,
           t_end: float, dt: float,
           observe: Callable[[Ensemble], dict] | None = None,
           stride: int = 1,
           stop_condition: Callable[[float, float], bool] | None = None
           ) -> TimeSeries:
    """Run the particle system through ``metrics.record_run``.

    ``observe`` maps an ensemble to the dict of its record's channels;
    a step above the relaxation guard bound is rejected.  While step k
    runs, a one-worker thread pool draws the increments of step k + 1
    into buffer (k + 1) % 2, so the draw never writes the buffer step k
    reads.  Each draw is checked against the (seed, step, n) key of the
    ensemble that uses it, and a failed draw is raised as itself; the
    draw made after the last step is waited for but never used.  Leaving
    the pool's ``with`` block joins its worker on every exit.  The
    series are bit-identical to those of a plain loop of ``step``.
    """
    guard = relaxation_dt_bound(model)
    dt = float(dt)
    if dt > guard * (1 + 1e-12):
        raise ValueError(
            f"dt={dt:g} exceeds the relaxation guard {guard:g}")
    seed, n = ensemble.seed, ensemble.n
    bufs = (np.empty(n), np.empty(n))

    def draw(k):
        return k, step_noise(seed, k, n, out=bufs[k % 2])

    with ThreadPoolExecutor(max_workers=1,
                            thread_name_prefix="mvstab-noise") as pool:
        ahead = pool.submit(draw, ensemble.step_index)

        def advance(e):
            nonlocal ahead
            k, noise = ahead.result()
            key = (e.seed, e.step_index, e.n)
            if key != (seed, k, n):
                raise RuntimeError(f"increments drawn for (seed, step, n) = "
                                   f"{(seed, k, n)}, asked for {key}")
            ahead = pool.submit(draw, k + 1)
            return step(e, model, dt, noise)
        return record_run(ensemble, advance, t_end=t_end, dt=dt,
                          observe=observe, stride=stride,
                          stop_condition=stop_condition)
