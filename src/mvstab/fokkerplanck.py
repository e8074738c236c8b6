"""Deterministic finite-volume solver for the nonlinear transport equation

    d/dt rho = (sigma^2/2) d2/dx2 rho - d/dx (b(x, m_t) rho),
    m_t = integral g rho dx,

on a truncated interval with zero-flux walls.  Interface fluxes use the
Chang-Cooper exponential fitting, which reproduces the Gibbs density as
an exact discrete steady state and keeps the backward Euler update an
M-matrix, hence positive, for any step size.  One backward Euler solve
in rho is a single LAPACK dgtsv call on the three diagonals of the
implicit matrix, with the coupling statistic m frozen at the start of
the solve, so the nonlinearity stays explicit and cheap.  A step of dt
is the Richardson extrapolation 2 BE(dt/2) o BE(dt/2) - BE(dt) of the
whole map, m included: second order in time, with the difference of
the two solutions as a free local error estimate.
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


def _chang_cooper_delta(w: np.ndarray) -> np.ndarray:
    """delta(w) = 1/w - 1/(e^w - 1), series-expanded near w = 0."""
    if np.abs(w).min() >= 1e-8:
        return 1.0 / w - 1.0 / np.expm1(w)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-8
    ws = w[small]
    out[small] = 0.5 - ws / 12.0
    wb = w[~small]
    out[~small] = 1.0 / wb - 1.0 / np.expm1(wb)
    return out


class FpStepper:
    """Precomputed geometry for repeated steps of one model on one grid."""

    def __init__(self, model: ScalarMeanFieldModel, grid: FpGrid):
        self.grid = grid
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

    def flux_coefficients(self, m: float):
        """Chang-Cooper upwind/downwind coefficients at the interfaces."""
        dx = self.grid.dx
        b = self.a_if + self.beta_c_if * m
        w = b * dx / self.D
        delta = _chang_cooper_delta(w)
        c_plus = b * (1.0 - delta) + self.D / dx    # multiplies rho_i
        c_minus = self.D / dx - b * delta           # multiplies rho_{i+1}
        return c_plus, c_minus

    def implicit_band(self, coefficients, dt: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward Euler matrix I - dt A for one frozen m, given that m's
        ``flux_coefficients``, as its three diagonals (sub, main, super).

        A is the flux divergence: row i gains c_minus/dx rho_{i+1} and
        c_plus/dx rho_{i-1} and loses the outflow through both interfaces.
        """
        c_plus, c_minus = coefficients
        up = c_plus / self.grid.dx
        down = c_minus / self.grid.dx
        diag = np.zeros(self.grid.n_cells)
        diag[:-1] -= up
        diag[1:] -= down
        return -dt * up, 1.0 - dt * diag, -dt * down

    def _solve(self, band, rhs: np.ndarray) -> np.ndarray:
        """x with band @ x = rhs by one LAPACK dgtsv call, the routine
        scipy.linalg's banded solver runs for one sub- and one
        superdiagonal; band and rhs stay unchanged."""
        *_, x, info = self._gtsv(*band, rhs)
        if info > 0:
            raise SchemeError(
                f"tridiagonal solve failed: singular matrix at row {info}")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgtsv")
        return x

    def backward_euler(self, state: FpState, dt: float,
                       coefficients=None) -> FpState:
        """One backward Euler solve over dt with m frozen at state.m;
        ``coefficients`` are ``flux_coefficients(state.m)`` when the
        caller has them already."""
        if coefficients is None:
            coefficients = self.flux_coefficients(state.m)
        rho = self._solve(self.implicit_band(coefficients, dt), state.rho)
        return FpState(rho=rho, t=state.t + dt,
                       m=float(np.dot(self.g_centers, rho) * self.grid.dx))

    def step(self, state: FpState, dt: float) -> FpState:
        """2 BE(dt/2) o BE(dt/2) - BE(dt), or the two half steps alone
        where the extrapolation goes below -1e-14 (backward Euler keeps
        the density positive).  ``step_error`` keeps the largest local
        estimate |BE(dt/2) o BE(dt/2) - BE(dt)| in the max norm over the
        steps this stepper has taken."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        coefficients = self.flux_coefficients(state.m)
        full = self.backward_euler(state, dt, coefficients)
        half = self.backward_euler(state, 0.5 * dt, coefficients)
        halves = self.backward_euler(half, 0.5 * dt)
        self.step_error = max(self.step_error,
                              float(np.abs(halves.rho - full.rho).max()))
        rho_new = 2.0 * halves.rho - full.rho
        if rho_new.min() < -1e-14:
            rho_new = halves.rho
        m_new = float(np.dot(self.g_centers, rho_new) * self.grid.dx)
        if not math.isfinite(m_new):
            # any NaN or infinite cell reaches m, since 0 * inf is NaN
            raise SchemeError(
                f"non-finite density at t={state.t + dt:.6g}")
        if rho_new.min() < -1e-14:
            raise SchemeError(
                f"negative density {rho_new.min():.3e} at "
                f"t={state.t + dt:.6g}")
        return FpState(rho=rho_new, t=state.t + dt, m=m_new)

    def steady_profile(self, m: float) -> np.ndarray:
        """Exact zero-flux steady density of the scheme at frozen m."""
        dx = self.grid.dx
        b = self.a_if + self.beta_c_if * m
        logr = np.concatenate([[0.0], np.cumsum(b * dx / self.D)])
        rho = np.exp(logr - logr.max())
        return rho / (rho.sum() * dx)


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
    channel ``step_error``: the largest local error estimate of the
    steps taken up to it (see ``FpStepper.step``).
    """
    stepper = FpStepper(model, grid)
    dt = default_dt(model, grid) if dt is None else dt

    def observe_fp(s):
        return {**(observe(s) if observe else {}),
                "step_error": stepper.step_error}
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

