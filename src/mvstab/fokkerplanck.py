"""Deterministic finite-volume solver for the nonlinear transport equation

    d/dt rho = (sigma^2/2) d2/dx2 rho - d/dx (b(x, m_t) rho),
    m_t = integral g rho dx,

on a truncated interval with zero-flux walls.  Interface fluxes use the
Chang-Cooper exponential fitting, which reproduces the Gibbs density as
an exact discrete steady state and keeps the update an M-matrix, hence
positive, for any step size.  Each step solves one tridiagonal system
(backward Euler in rho) while the coupling statistic m stays frozen at
its current value, so the nonlinearity remains explicit and cheap.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

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


def state_from_density(rho, model: ScalarMeanFieldModel, grid: FpGrid,
                       t: float = 0.0) -> FpState:
    rho = np.asarray(rho, dtype=float)
    rho = rho / (rho.sum() * grid.dx)
    return FpState(rho=rho, t=float(t),
                   m=float(np.dot(model.g(grid.centers), rho) * grid.dx))


def init_from_model(model: ScalarMeanFieldModel, grid: FpGrid,
                    m: float) -> FpState:
    """Continuum Gibbs density of the frozen dynamics, sampled on cells."""
    lg = model.log_gibbs(grid.centers, float(m))
    rho = np.exp(lg - lg.max())
    return state_from_density(rho, model, grid)


def _chang_cooper_delta(w: np.ndarray) -> np.ndarray:
    """delta(w) = 1/w - 1/(e^w - 1), series-expanded near w = 0."""
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
        self.model = model
        self.grid = grid
        xf = grid.interfaces
        self.a_if = model.a(xf)
        self.c_if = model.c(xf)
        self.g_centers = model.g(grid.centers)
        self.D = 0.5 * model.sigma ** 2
        if self.D <= 0:
            raise ValueError("the scheme needs a positive diffusion")

    def flux_coefficients(self, m: float):
        """Chang-Cooper upwind/downwind coefficients at the interfaces."""
        dx = self.grid.dx
        b = self.a_if + self.model.beta * self.c_if * m
        w = b * dx / self.D
        delta = _chang_cooper_delta(w)
        c_plus = b * (1.0 - delta) + self.D / dx    # multiplies rho_i
        c_minus = self.D / dx - b * delta           # multiplies rho_{i+1}
        return c_plus, c_minus

    def implicit_band(self, m: float, dt: float) -> np.ndarray:
        """Backward Euler matrix I - dt A at frozen m, in solve_banded form.

        A is the flux divergence: row i gains c_minus/dx rho_{i+1} and
        c_plus/dx rho_{i-1} and loses the outflow through both interfaces.
        """
        n = self.grid.n_cells
        dx = self.grid.dx
        c_plus, c_minus = self.flux_coefficients(m)
        diag = np.zeros(n)
        diag[:-1] -= c_plus / dx
        diag[1:] -= c_minus / dx
        ab = np.zeros((3, n))
        ab[0, 1:] = -dt * (c_minus / dx)
        ab[1] = 1.0 - dt * diag
        ab[2, :-1] = -dt * (c_plus / dx)
        return ab

    def step(self, state: FpState, dt: float) -> FpState:
        if dt <= 0:
            raise ValueError("dt must be positive")
        try:
            rho_new = solve_banded((1, 1), self.implicit_band(state.m, dt),
                                   state.rho)
        except np.linalg.LinAlgError as exc:
            raise SchemeError(f"tridiagonal solve failed: {exc}") from exc
        if rho_new.min() < -1e-14:
            raise SchemeError(
                f"negative density {rho_new.min():.3e} at "
                f"t={state.t + dt:.6g}")
        m_new = float(np.dot(self.g_centers, rho_new) * self.grid.dx)
        return FpState(rho=rho_new, t=state.t + dt, m=m_new)

    def steady_profile(self, m: float) -> np.ndarray:
        """Exact zero-flux steady density of the scheme at frozen m."""
        dx = self.grid.dx
        b = self.a_if + self.model.beta * self.c_if * m
        logr = np.concatenate([[0.0], np.cumsum(b * dx / self.D)])
        rho = np.exp(logr - logr.max())
        return rho / (rho.sum() * dx)


def default_dt(model: ScalarMeanFieldModel, grid: FpGrid,
               m_scale: float = 1.0) -> float:
    """Accuracy-motivated default dx / (2 max|b|).

    The drift maximum is taken over the occupied region (stationary
    log-density within 28 nats of its peak); the outer cells carry no
    mass, and the implicit solve is unconditionally stable there anyway.
    """
    x = grid.centers
    lg = model.log_gibbs(x, 0.0)
    support = lg > lg.max() - 28.0
    if not np.any(support):
        support = np.ones_like(x, dtype=bool)
    xs = x[support]
    bmax = max(abs(model.drift(xs, m_scale)).max(),
               abs(model.drift(xs, -m_scale)).max())
    return grid.dx / (2.0 * max(bmax, 1e-12))


def fp_evolve(state: FpState, model: ScalarMeanFieldModel, grid: FpGrid, *,
              t_end: float, dt: float | None = None,
              observers: dict[str, Callable] | None = None,
              stride: int = 1,
              stop_condition: Callable[[float, float], bool] | None = None
              ) -> TimeSeries:
    """Evolve through ``metrics.record_run`` with the keywords of the
    particle engine's ``evolve``.

    Observers are functions of the cell density; ``dt=None`` selects
    ``default_dt``.
    """
    stepper = FpStepper(model, grid)
    dt = default_dt(model, grid) if dt is None else dt
    return record_run(state, lambda s: stepper.step(s, dt), t_end=t_end,
                      dt=dt, view=lambda s: s.rho, observers=observers,
                      stride=stride, stop_condition=stop_condition)


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


def fp_evolve_linear(nu0: np.ndarray, model: ScalarMeanFieldModel,
                     grid: FpGrid, rho_inf: np.ndarray, m_inf: float,
                     t_end: float, dt: float, stride: int = 1) -> TimeSeries:
    """Linearized transport of a zero-mass signed density nu.

    Coefficients are frozen at the stationary state: nu feels the frozen
    flux operator plus the rank-one source -d/dx(beta c rho_inf) * (nu, g)
    discretized in flux form, so the total signed mass stays zero.  The
    run steps an ``FpState`` whose ``rho`` is nu and whose ``m`` is
    (nu, g); the channel ``nu`` holds one row of cell values per record.
    """
    stepper = FpStepper(model, grid)
    ab = stepper.implicit_band(m_inf, dt)
    n = grid.n_cells
    dx = grid.dx

    rho_if = 0.5 * (rho_inf[:-1] + rho_inf[1:])
    src_flux = model.beta * stepper.c_if * rho_if
    gc = model.g(grid.centers)

    def advance(cur: FpState) -> FpState:
        div = np.zeros(n)
        fl = src_flux * cur.m
        div[:-1] -= fl / dx
        div[1:] += fl / dx
        nu = solve_banded((1, 1), ab, cur.rho + dt * div)
        return FpState(rho=nu, t=cur.t + dt, m=float(np.dot(gc, nu) * dx))

    nu0 = np.asarray(nu0, dtype=float)
    start = FpState(rho=nu0, t=0.0, m=float(np.dot(gc, nu0) * dx))
    return record_run(start, advance, t_end=t_end, dt=dt,
                      view=lambda s: s.rho, observers={"nu": np.copy},
                      stride=stride)
