"""Deterministic finite-volume solver for the nonlinear transport equation

    d/dt rho = (sigma^2/2) d2/dx2 rho - d/dx (b(x, m_t) rho),
    m_t = integral g rho dx,

on a truncated interval with zero-flux walls.  Interface fluxes use the
Chang-Cooper weights in the Bernoulli-function form of Scharfetter and
Gummel: detailed balance makes the Gibbs density an exact discrete
steady state, and the backward Euler matrix is an M-matrix, hence
positive, for any step size.  A backward Euler solve in rho is one
LAPACK dgtsv call on rates evaluated once per frozen coupling statistic
m, so the nonlinearity stays explicit and cheap.  A step of dt is the
Richardson extrapolation 2 BE(dt/2) o BE(dt/2) - BE(dt) of the whole
map, m included: second order in time, with the difference of the two
solutions as a free local error estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import TimeSeries, record_run
from .model import ScalarMeanFieldModel
from .numerics import find_roots
from .stationary import auto_half_width


class SchemeError(RuntimeError):
    """The discrete update produced an inadmissible state."""


@dataclass(frozen=True)
class FpGrid:
    """Uniform cell grid on [-L, L]."""

    L: float
    n_cells: int

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return -self.L + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def interfaces(self) -> np.ndarray:
        """Interior interfaces only (the walls carry zero flux)."""
        return -self.L + np.arange(1, self.n_cells) * self.dx


def auto_grid(model: ScalarMeanFieldModel, m_values=(0.0,),
              n_cells: int = 1600) -> FpGrid:
    """Domain from the stationary support plus a diffusion buffer."""
    L = auto_half_width(model, m_values) + 2.0 * model.sigma
    return FpGrid(L=float(L), n_cells=n_cells)


@dataclass(frozen=True)
class FpState:
    """Cell-averaged density, current time, and coupling statistic."""

    rho: np.ndarray
    t: float
    m: float

    def mass(self, grid: FpGrid) -> float:
        return float(self.rho.sum() * grid.dx)


def state_from_density(rho, model: ScalarMeanFieldModel,
                       grid: FpGrid) -> FpState:
    """Start state at t = 0 from a density, normalized to mass 1."""
    rho = np.asarray(rho, dtype=float)
    rho = rho / (rho.sum() * grid.dx)
    return FpState(rho=rho, t=0.0,
                   m=float(np.dot(model.g(grid.centers), rho) * grid.dx))


def init_from_model(model: ScalarMeanFieldModel, grid: FpGrid,
                    m: float) -> FpState:
    """Continuum Gibbs density of the frozen dynamics, sampled on cells."""
    lg = model.log_gibbs(grid.centers, float(m))
    rho = np.exp(lg - lg.max())
    return state_from_density(rho, model, grid)


class FpStepper:
    """Precomputed geometry for repeated steps of one model on one grid.
    Backward Euler over h at frozen m solves (dx A - (dx/h) I) x = -(dx/h)
    rho for the flux divergence A, whose diagonals ``flux_coefficients``
    gives once per m for every solve at that m."""

    def __init__(self, model: ScalarMeanFieldModel, grid: FpGrid):
        self.grid = grid
        self.dx = grid.dx
        xf = grid.interfaces
        self.a_if = model.a(xf)
        self.beta_c_if = model.beta * model.c(xf)
        self.g_centers = model.g(grid.centers)
        self.D = 0.5 * model.sigma ** 2
        if self.D <= 0:
            raise ValueError("the scheme needs a positive diffusion")
        if grid.n_cells < 2:
            raise ValueError("the scheme needs at least two cells")
        # imported here so that only an FP run pays scipy's import time
        from scipy.linalg.lapack import get_lapack_funcs
        self._gtsv = get_lapack_funcs("gtsv", dtype=np.float64)
        self.step_error = 0.0
        self.fallback_steps = 0

    def flux_coefficients(self, m: float):
        """Chang-Cooper rates (c_plus, c_minus) at the interfaces for a
        frozen m, and the diagonal of dx A, minus each cell's outflow.

        With w = b dx/D and the Bernoulli function B(w) = w/(e^w - 1), the
        flux c_plus rho_i - c_minus rho_{i+1} takes c_minus = (D/dx) B(w)
        = b/(e^w - 1) and c_plus = c_minus e^w (Scharfetter-Gummel), whose
        detailed balance makes the Gibbs profile exactly steady.  Both are
        accurate and positive up to w = 709, where e^w overflows and the
        run stops on a non-finite density; B(0) = 1 gives D/dx at w = 0."""
        b = self.a_if + self.beta_c_if * m
        w = b * (self.dx / self.D)
        if w.all():
            c_minus = b / np.expm1(w)
            c_plus = c_minus * np.exp(w)
        else:
            c_minus, c_plus = np.full((2, w.size), self.D / self.dx)
            nz = w != 0
            c_minus[nz] = b[nz] / np.expm1(w[nz])
            c_plus[nz] = c_minus[nz] * np.exp(w[nz])
        diag = np.zeros(self.grid.n_cells)
        diag[:-1] -= c_plus
        diag[1:] -= c_minus
        return c_plus, c_minus, diag

    def _solve(self, rates, h: float, rho: np.ndarray) -> np.ndarray:
        """Backward Euler over h from rho at the m of ``rates`` by one
        dgtsv call, which overwrites only its own diagonal d and right-hand
        side.  That scales rho by diag - d, the shift each cell carries,
        not by dx/h, whose low bits every cell loses alike: over 8,000
        steps of dt = 5e-4 to 3e-3 on the example's grid, that drifted the
        mass by 3e-12 to 6e-11, against at most 1.3e-14."""
        c_plus, c_minus, diag = rates
        d = diag - self.dx / h
        *_, x, info = self._gtsv(c_plus, d, c_minus, (d - diag) * rho,
                                 overwrite_d=True, overwrite_b=True)
        if info > 0:
            raise SchemeError(
                f"tridiagonal solve failed: singular matrix at row {info}")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgtsv")
        return x

    def _m(self, rho: np.ndarray) -> float:
        return float(np.dot(self.g_centers, rho) * self.dx)

    def backward_euler(self, state: FpState, dt: float,
                       coefficients=None) -> FpState:
        """One backward Euler solve over dt with m frozen at state.m;
        ``coefficients`` are ``flux_coefficients(state.m)`` when the
        caller has them already."""
        if coefficients is None:
            coefficients = self.flux_coefficients(state.m)
        rho = self._solve(coefficients, dt, state.rho)
        return FpState(rho=rho, t=state.t + dt, m=self._m(rho))

    def step(self, state: FpState, dt: float) -> FpState:
        """2 BE(dt/2) o BE(dt/2) - BE(dt), or the two half steps alone
        where the extrapolation goes below -1e-14 (backward Euler keeps
        the density positive), from the rates at state.m and at the half
        step's m.  ``step_error`` keeps the largest local estimate
        |BE(dt/2) o BE(dt/2) - BE(dt)| in the max norm over the steps
        taken, and ``fallback_steps`` counts those that kept the halves."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        rates = self.flux_coefficients(state.m)
        full = self._solve(rates, dt, state.rho)
        half = self._solve(rates, 0.5 * dt, state.rho)
        halves = self._solve(self.flux_coefficients(self._m(half)),
                             0.5 * dt, half)
        self.step_error = max(self.step_error,
                              float(np.abs(halves - full).max()))
        rho_new = 2.0 * halves - full
        low = rho_new.min()
        if low < -1e-14:
            rho_new, low = halves, halves.min()
            self.fallback_steps += 1
        m_new = self._m(rho_new)
        if not math.isfinite(m_new):
            # any NaN or infinite cell reaches m, since 0 * inf is NaN
            raise SchemeError(
                f"non-finite density at t={state.t + dt:.6g}")
        if low < -1e-14:
            raise SchemeError(
                f"negative density {low:.3e} at t={state.t + dt:.6g}")
        return FpState(rho=rho_new, t=state.t + dt, m=m_new)

    def steady_profile(self, m: float) -> np.ndarray:
        """Exact zero-flux steady density of the scheme at frozen m."""
        b = self.a_if + self.beta_c_if * m
        logr = np.concatenate([[0.0], np.cumsum(b * self.dx / self.D)])
        rho = np.exp(logr - logr.max())
        return rho / (rho.sum() * self.dx)


def default_dt(model: ScalarMeanFieldModel, grid: FpGrid) -> float:
    """Accuracy-motivated default 4 dx / max|b| for the second-order
    extrapolated step: a drift crosses four cells per step.

    The drift maximum is taken at m = +-1 over the occupied region
    (stationary log-density within 28 nats of its peak); the outer cells
    carry no mass, and the implicit solves are unconditionally stable
    there anyway.  A log-density that is not finite on the grid is
    rejected.
    """
    x = grid.centers
    lg = model.log_gibbs0(x)
    if not np.isfinite(lg).all():
        i = int(np.argmax(~np.isfinite(lg)))
        raise ValueError(
            f"log-density of {model.name} is not finite at x={x[i]:g}; "
            "the FP default step needs it on every cell")
    xs = x[lg > lg.max() - 28.0]
    bmax = max(abs(model.drift(xs, 1.0)).max(),
               abs(model.drift(xs, -1.0)).max())
    return 4.0 * grid.dx / max(bmax, 1e-12)


def fp_evolve(state: FpState, model: ScalarMeanFieldModel, grid: FpGrid, *,
              t_end: float, dt: float | None = None,
              observe: Callable[[FpState], dict] | None = None,
              stride: int = 1,
              stop_condition: Callable[[float, float], bool] | None = None
              ) -> TimeSeries:
    """Evolve through ``metrics.record_run`` with the keywords of the
    particle engine's ``evolve``.

    ``observe`` maps a state to the dict of its record's channels;
    ``dt=None`` selects ``default_dt``.  Each record also gets the
    channels ``step_error``, the largest local error estimate of the
    steps taken up to it (see ``FpStepper.step``), ``fallback_steps``,
    the number of those steps that kept the two half steps, and
    ``mass_drift``, |mass - 1| of its state.
    """
    stepper = FpStepper(model, grid)
    dt = default_dt(model, grid) if dt is None else dt

    def observe_fp(s):
        return {**(observe(s) if observe else {}),
                "step_error": stepper.step_error,
                "fallback_steps": stepper.fallback_steps,
                "mass_drift": abs(s.mass(grid) - 1.0)}
    return record_run(state, lambda s: stepper.step(s, dt), t_end=t_end,
                      dt=dt, observe=observe_fp, stride=stride,
                      stop_condition=stop_condition)


def discrete_stationary(model: ScalarMeanFieldModel, grid: FpGrid,
                        m_guess: float, window: float = 0.2) -> FpState:
    """Self-consistent steady state of the discrete scheme near m_guess.

    The scheme's zero-flux profile at frozen m is exact, so only the
    scalar fixed point m = integral g rho_m dx needs solving; it sits
    within O(dx^2) of the continuum branch.
    """
    stepper = FpStepper(model, grid)
    gc = model.g(grid.centers)

    def resid(m):
        return float(np.dot(gc, stepper.steady_profile(m)) * grid.dx) - m

    if abs(resid(m_guess)) < 1e-14:
        m_star = float(m_guess)
    else:
        roots = find_roots(resid, (m_guess - window, m_guess + window),
                           n_scan=81, tol=1e-14)
        if not roots:
            raise ValueError(
                f"no discrete self-consistent statistic within "
                f"{window} of {m_guess}")
        m_star = min(roots, key=lambda r: abs(r - m_guess))
    rho = stepper.steady_profile(m_star)
    return FpState(rho=rho, t=0.0, m=float(np.dot(gc, rho) * grid.dx))

