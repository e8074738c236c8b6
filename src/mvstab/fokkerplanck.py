"""Deterministic finite-volume solver for the nonlinear transport equation

    d/dt rho = (sigma^2/2) d2/dx2 rho - d/dx (b(x, m_t) rho),
    m_t = integral g rho dx,

on a truncated interval with zero-flux walls.  Interface fluxes use the
Chang-Cooper weights in the Bernoulli-function form of Scharfetter and
Gummel: detailed balance makes the Gibbs density an exact discrete
steady state, and the tridiagonal backward Euler matrix is an M-matrix
for any step size.  The mean-field coupling adds a rank-one term to the
Jacobian.  A step of dt linearizes the equation once, at its start
state, and takes the Richardson extrapolation 2 BE(dt/2) o BE(dt/2) -
BE(dt) of backward Euler on that linear equation, m included: one
evaluation of the rates, three LAPACK dgtsv calls on five columns in
all and Sherman-Morrison updates for the rank-one term.  The step is
second order in time, with the difference of the two solutions as a
free local error estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .metrics import record_run
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


# B'(w) = -1/2 + sum_k B_{2k} w^(2k-1)/(2k-1)! for the Bernoulli numbers
# B_2 ... B_14, highest order first; below |w| = 0.5 the first omitted
# term is under 3.3e-16 relative
_BERNOULLI_SLOPE_ODD = (1 / 5337446400, -691 / 108972864000,
                        1 / 4790016, -1 / 151200, 1 / 5040, -1 / 180, 1 / 6)


def bernoulli_slopes(w: np.ndarray, bm: np.ndarray, bp: np.ndarray):
    """B'(w) and -B'(-w) for the Bernoulli function B(w) = w/(e^w - 1),
    given bm = B(w) and bp = B(-w).

    The quotients B'(w) = bm (1 - bp)/w and -B'(-w) = bp (1 - bm)/w lose
    about eps/|w| to cancellation, so below |w| = 0.5 both come from the
    series of the odd part, B'(w) = -1/2 + odd(w) and -B'(-w) = 1/2 +
    odd(w).  Against 40-digit values on |w| <= 40 both are accurate to
    1.4e-15 relative."""
    w2 = w * w
    odd = np.full_like(w, _BERNOULLI_SLOPE_ODD[0])
    for c in _BERNOULLI_SLOPE_ODD[1:]:
        odd *= w2
        odd += c
    odd *= w
    big = np.abs(w) >= 0.5
    return (np.divide(bm * (1.0 - bp), w, out=odd - 0.5, where=big),
            np.divide(bp * (1.0 - bm), w, out=odd + 0.5, where=big))


class FpStepper:
    """Precomputed geometry for repeated steps of one model on one grid.

    The right-hand side is A(m) rho with m = <g dx, rho>, so its Jacobian
    is the flux divergence A(m) plus the rank-one mean-field term
    u (g dx)^T, u = d/dm [A(m) rho].  A step from (rho_n, m_n) takes
    backward Euler sub-steps over h of the equation linearized there,
    (I - h A(m_n)) rho_new = rho + h u_n (m_new - m_n) from any (rho, m):
    ``flux_coefficients`` and ``coupling`` give A(m_n) and u_n once per
    step, ``_solve`` solves the tridiagonal for rho and u_n, and
    ``_close`` adds the rank-one term by Sherman-Morrison."""

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
        frozen m, the diagonal of dx A, minus each cell's outflow, and
        the rates' derivatives (dc_plus, dc_minus) in m.

        With w = b dx/D and the Bernoulli function B(w) = w/(e^w - 1), the
        flux c_plus rho_i - c_minus rho_{i+1} takes c_minus = (D/dx) B(w)
        = b/(e^w - 1) and c_plus = c_minus e^w = (D/dx) B(-w)
        (Scharfetter-Gummel), whose detailed balance makes the Gibbs
        profile exactly steady.  Both are accurate and positive up to
        w = 709, where e^w overflows and the run stops on a non-finite
        density; B(0) = 1 gives D/dx at w = 0.  Since db/dm = beta c,
        dc_minus = beta c B'(w) and dc_plus = -beta c B'(-w)."""
        b = self.a_if + self.beta_c_if * m
        w = b * (self.dx / self.D)
        c_minus = np.divide(b, np.expm1(w), where=w != 0,
                            out=np.full_like(w, self.D / self.dx))
        c_plus = c_minus * np.exp(w)
        diag = np.zeros(self.grid.n_cells)
        diag[:-1] -= c_plus
        diag[1:] -= c_minus
        slope_minus, slope_plus = bernoulli_slopes(
            w, c_minus * (self.dx / self.D), c_plus * (self.dx / self.D))
        return (c_plus, c_minus, diag, self.beta_c_if * slope_plus,
                self.beta_c_if * slope_minus)

    def coupling(self, rates, rho: np.ndarray) -> np.ndarray:
        """d/dm [dx A(m) rho] at the m of ``rates``: dx u, the column of
        the mean-field term in the Jacobian.  Each interface flux moves by
        dc_plus rho_i - dc_minus rho_{i+1}, so the column sums to zero."""
        dc_plus, dc_minus = rates[3:]
        dflux = dc_plus * rho[:-1] - dc_minus * rho[1:]
        u = np.zeros_like(rho)
        u[:-1] -= dflux
        u[1:] += dflux
        return u

    def _solve(self, rates, h: float, rho: np.ndarray,
               u: np.ndarray | None = None):
        """One dgtsv call for M = dx A - (dx/h) I, with A at the m of
        ``rates``: the rows y = (I - h A)^-1 rho and, given the coupling
        column u = dx u_n, z = -h (I - h A)^-1 u_n.

        The right-hand side is [(d - diag) rho, u] for M's diagonal d;
        the call overwrites only d and the right-hand side.  Scaling rho
        by d - diag, the shift each cell's diagonal carries, not by
        -dx/h, whose low bits every cell loses alike, keeps the mass:
        over 8,000 steps of dt = 5e-4 to 3e-3 on the example's grid the
        latter drifted it by 3e-12 to 6e-11, against at most 1.3e-14.
        Since u sums to zero, z carries no mass."""
        c_plus, c_minus, diag = rates[:3]
        d = diag - self.dx / h
        rhs = np.empty((rho.size, 1 if u is None else 2), order="F")
        np.multiply(d - diag, rho, out=rhs[:, 0])
        if u is not None:
            rhs[:, 1] = u
        *_, x, info = self._gtsv(c_plus, d, c_minus, rhs,
                                 overwrite_d=True, overwrite_b=True)
        if info > 0:
            raise SchemeError(
                f"tridiagonal solve failed: singular matrix at row {info}")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgtsv")
        return x.T

    def _denominator(self, z: np.ndarray, h: float) -> float:
        """1 + m_z = det(I - h J) / det(I - h A) for the full Jacobian J
        of the linearized equation: positive while h lambda < 1 for every
        real eigenvalue lambda of J, and the step stops when it is not."""
        denom = 1.0 + self._m(z)
        if denom <= 0:
            raise SchemeError(
                f"the mean-field coupling makes the step singular: "
                f"1 + m_z = {denom:.3e} <= 0 at h = {h:.6g}")
        return denom

    def _close(self, y: np.ndarray, z: np.ndarray, denom: float,
               m: float) -> np.ndarray:
        """Sherman-Morrison for the sub-step linearized at m: rho_new =
        y - z (m_y - m)/(1 + m_z)."""
        return y - z * ((self._m(y) - m) / denom)

    def _m(self, rho: np.ndarray) -> float:
        return float(np.dot(self.g_centers, rho) * self.dx)

    def step(self, state: FpState, dt: float) -> FpState:
        """2 BE(dt/2) o BE(dt/2) - BE(dt) of backward Euler on the
        equation linearized at state, or the two half steps alone where
        the extrapolation goes below -1e-14.  One rate evaluation and one
        coupling column serve all three sub-steps, and the second half
        step solves for its one new column, reusing the first's z and
        1 + m_z.  Its linearization about a steady state is
        R(dt J) = 2 (I - dt J/2)^-2 - (I - dt J)^-1 of the full Jacobian
        J, whose time error in a growth rate lambda is (lambda dt)^2/6.
        ``step_error`` keeps the largest local estimate
        |BE(dt/2) o BE(dt/2) - BE(dt)| in the max norm over the steps
        taken, and ``fallback_steps`` counts those that kept the halves."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        rho, m = state.rho, state.m
        if not math.isfinite(rho.sum()):
            # before the coupling column, whose differences of an
            # infinite cell are NaN
            raise SchemeError(f"non-finite density at t={state.t:.6g}")
        rates = self.flux_coefficients(m)
        u = self.coupling(rates, rho)
        y, z = self._solve(rates, dt, rho, u)
        full = self._close(y, z, self._denominator(z, dt), m)
        y, z = self._solve(rates, 0.5 * dt, rho, u)
        denom = self._denominator(z, 0.5 * dt)
        half = self._close(y, z, denom, m)
        (y,) = self._solve(rates, 0.5 * dt, half)
        halves = self._close(y, z, denom, m)
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


def default_dt(model: ScalarMeanFieldModel, grid: FpGrid,
               rate: float | None = None) -> float:
    """Accuracy-motivated default 20 dx / max|b| for the second-order
    extrapolated step: a drift crosses twenty cells per step.  A growth
    ``rate`` > 0 caps rate * dt at 2.7e-3, where the step's own time error
    in that rate, (rate dt)^2/6, is 1.2e-6.

    The drift maximum is taken at m = +-1 over the occupied cells
    (``ScalarMeanFieldModel.occupied``); the outer cells carry no mass,
    and the implicit solves are unconditionally stable there anyway.
    """
    xs = model.occupied(grid.centers,
                        "the FP default step needs it on every cell")
    bmax = max(abs(model.drift(xs, 1.0)).max(),
               abs(model.drift(xs, -1.0)).max())
    dt = 20.0 * grid.dx / max(bmax, 1e-12)
    if rate is not None and rate > 0:
        dt = min(dt, 2.7e-3 / rate)
    return dt


def fp_evolve(state: FpState, model: ScalarMeanFieldModel, grid: FpGrid, *,
              t_end: float, dt: float,
              observe: Callable[[FpState], dict] | None = None,
              stride: int = 1,
              stop_condition: Callable[[float, float], bool] | None = None
              ) -> dict[str, np.ndarray]:
    """Evolve by steps of ``dt`` through ``metrics.record_run`` with the
    keywords of the particle engine's ``evolve``.

    ``observe`` maps a state to the dict of its record's channels.  Each
    record also gets the channels ``step_error``, the largest local
    error estimate of the steps taken up to it (see ``FpStepper.step``),
    ``fallback_steps``, the number of those steps that kept the two half
    steps, and ``mass_drift``, |mass - 1| of its state.
    """
    stepper = FpStepper(model, grid)

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

    def resid(m):
        return stepper._m(stepper.steady_profile(m)) - m

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
    return FpState(rho=rho, t=0.0, m=stepper._m(rho))

