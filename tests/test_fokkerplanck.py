from dataclasses import replace
from fractions import Fraction
from math import factorial

import mpmath as mp

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mvstab.fokkerplanck import (FpGrid, FpState, FpStepper, SchemeError,
                                 auto_grid, bernoulli_slopes, default_dt,
                                 discrete_stationary, fp_evolve,
                                 state_from_density)
from mvstab.model import ScalarMeanFieldModel, dawson_model
from mvstab.numerics import fit_exp_rate
from mvstab.perturb import make_perturbation

from conftest import SIGMA_C_DAWSON_BETA1
from reference import backward_euler, init_from_model

IDENT = lambda x: np.asarray(x, dtype=float)


def free_diffusion(sigma=1.0):
    return ScalarMeanFieldModel(
        name="free", beta=0.0, sigma=sigma,
        a=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g=IDENT, coupling_v=IDENT,
        log_gibbs0=lambda x: np.zeros_like(x))


@pytest.fixture(scope="module")
def dawson08():
    return dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1)


class TestStep:
    def test_mass_conserved_over_many_steps(self, dawson08):
        grid = FpGrid(L=5.0, n_cells=200)
        st = init_from_model(dawson08, grid, 0.0)
        stepper = FpStepper(dawson08, grid)
        for _ in range(10_000):
            st = stepper.step(st, 1e-3)
        assert abs(st.mass(grid) - 1.0) < 1e-12

    def test_positivity(self, dawson08):
        grid = FpGrid(L=5.0, n_cells=300)
        rho = np.zeros(300)
        rho[150] = 1.0          # delta-like initial condition
        st = state_from_density(rho, dawson08, grid)
        stepper = FpStepper(dawson08, grid)
        for _ in range(200):
            st = stepper.step(st, 5e-3)
        assert st.rho.min() >= 0.0

    def test_stationarity_second_order_in_dx(self, dawson08):
        # grid-refinement oracle: the discrete steady state differs from
        # the continuum Gibbs law at O(dx^2), so the drift after t = 1
        # shrinks fourfold when the grid is halved (dt scaled with dx^2)
        errs = []
        for n in (200, 400):
            grid = FpGrid(L=5.0, n_cells=n)
            st0 = init_from_model(dawson08, grid, 0.0)
            stepper = FpStepper(dawson08, grid)
            dt = 2e-4 * (200.0 / n) ** 2
            st = st0
            for _ in range(int(round(1.0 / dt))):
                st = stepper.step(st, dt)
            errs.append(np.abs(st.rho - st0.rho).sum() * grid.dx)
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_free_diffusion_variance_growth(self):
        # summation by parts makes the discrete variance production
        # exactly sigma^2 per unit time away from the walls
        mdl = free_diffusion(sigma=1.0)
        grid = FpGrid(L=6.0, n_cells=600)
        x = grid.centers
        st = state_from_density(np.exp(-x * x / (2 * 0.25)), mdl, grid)
        var0 = float(np.dot(x * x, st.rho) * grid.dx
                     - (np.dot(x, st.rho) * grid.dx) ** 2)
        stepper = FpStepper(mdl, grid)
        dt = 1e-4
        for _ in range(1000):
            st = stepper.step(st, dt)
        var1 = float(np.dot(x * x, st.rho) * grid.dx
                     - (np.dot(x, st.rho) * grid.dx) ** 2)
        assert var1 - var0 == pytest.approx(1.0 ** 2 * 0.1, abs=1e-6)

    def test_one_shot_helper(self, dawson08):
        grid = FpGrid(L=5.0, n_cells=200)
        st = init_from_model(dawson08, grid, 0.0)
        out = FpStepper(dawson08, grid).step(st, 1e-3)
        assert out.t == pytest.approx(1e-3)

    def test_rejects_nonpositive_dt(self, dawson08):
        grid = FpGrid(L=5.0, n_cells=100)
        st = init_from_model(dawson08, grid, 0.0)
        with pytest.raises(ValueError, match="positive"):
            FpStepper(dawson08, grid).step(st, 0.0)

    def test_zero_diffusion_rejected(self):
        mdl = free_diffusion(sigma=0.0)
        with pytest.raises(ValueError, match="diffusion"):
            FpStepper(mdl, FpGrid(L=1.0, n_cells=16))

    def test_single_cell_rejected(self, dawson08):
        with pytest.raises(ValueError, match="two cells"):
            FpStepper(dawson08, FpGrid(L=1.0, n_cells=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, dawson08, bad):
        # a NaN cell passes the negativity test (nan < x is False), so the
        # step must catch it on its own
        grid = FpGrid(L=5.0, n_cells=300)
        st = init_from_model(dawson08, grid, 0.0)
        rho = st.rho.copy()
        rho[150] = bad
        with pytest.raises(SchemeError, match="non-finite"):
            FpStepper(dawson08, grid).step(FpState(rho=rho, t=0.0, m=st.m),
                                           1e-3)


def _bernoulli_slope_reference(w, bm, bp):
    """B'(w) and -B'(-w) the long way: the quotients bm (1 - bp)/w and
    bp (1 - bm)/w on a mask |w| >= 0.5, and below it -1/2 and +1/2 plus
    np.polyval of the odd part's series, whose coefficients
    B_2k/(2k - 1)! come from exact Bernoulli numbers."""
    odd_coef = [float(Fraction(*mp.bernfrac(2 * k)) / factorial(2 * k - 1))
                for k in range(7, 0, -1)]
    big = np.abs(w) >= 0.5
    odd = w * np.polyval(odd_coef, w * w)
    minus, plus = odd - 0.5, odd + 0.5
    minus[big] = bm[big] * (1.0 - bp[big]) / w[big]
    plus[big] = bp[big] * (1.0 - bm[big]) / w[big]
    return minus, plus


def _banded_reference_step(mdl, grid, rho, m, dt):
    """Linearly implicit backward Euler step built the long way: masked
    Bernoulli weights c_minus = (D/dx) B(w) = b/(e^w - 1) and c_plus =
    c_minus e^w, and their m-derivatives beta c B'(w) and -beta c
    B'(-w); the coupling column dx u = -diff of the flux derivative; a
    zero-filled (3, n) band of dx A - (dx/dt) I; scipy's solve_banded,
    which runs dgtsv for one sub- and one superdiagonal, on the columns
    [(band shift) rho, dx u]; and the Sherman-Morrison update for the
    rank-one term.  Returns the new density, its statistic and the
    smallest |w| of the weights."""
    dx, D = grid.dx, 0.5 * mdl.sigma ** 2
    xf = grid.interfaces
    beta_c = mdl.beta * mdl.c(xf)
    b = mdl.a(xf) + beta_c * m
    w = b * (dx / D)
    nz = w != 0
    c_minus = np.full_like(w, D / dx)
    c_plus = np.full_like(w, D / dx)
    c_minus[nz] = b[nz] / np.expm1(w[nz])
    c_plus[nz] = c_minus[nz] * np.exp(w[nz])
    slope_minus, slope_plus = _bernoulli_slope_reference(
        w, c_minus * (dx / D), c_plus * (dx / D))
    dflux = beta_c * slope_plus * rho[:-1] - beta_c * slope_minus * rho[1:]
    u = -np.diff(dflux, prepend=0.0, append=0.0)
    ab = np.zeros((3, grid.n_cells))
    ab[0, 1:] = c_minus
    ab[1, :-1] -= c_plus
    ab[1, 1:] -= c_minus
    diag = ab[1].copy()
    ab[1] -= dx / dt
    ab[2, :-1] = c_plus
    y, z = solve_banded((1, 1), ab,
                        np.column_stack([(ab[1] - diag) * rho, u])).T
    g = mdl.g(grid.centers)
    m_y = float(np.dot(g, y) * dx)
    m_z = float(np.dot(g, z) * dx)
    rho = y - z * ((m_y - m) / (1.0 + m_z))
    return rho, float(np.dot(g, rho) * dx), np.abs(w).min()


class TestDirectSolve:
    @pytest.mark.parametrize("case", ["dawson", "free"])
    def test_bit_identical_to_banded_reference(self, dawson08, case):
        # the linearly implicit sub-step that FpStepper.step combines;
        # dawson keeps every |w| >= 1e-8, off the w = 0 branch, and
        # crosses |w| = 0.5, so both forms of B' occur; free diffusion
        # has b = 0, so every weight takes that branch
        if case == "dawson":
            mdl, grid = dawson08, FpGrid(L=5.0, n_cells=400)
            st = init_from_model(mdl, grid, 0.3)
        else:
            mdl, grid = free_diffusion(sigma=1.0), FpGrid(L=6.0, n_cells=600)
            x = grid.centers
            st = state_from_density(np.exp(-x * x / (2 * 0.25)), mdl, grid)
        stepper = FpStepper(mdl, grid)
        rho, m, w_min = st.rho, st.m, np.inf
        for _ in range(500):
            st = backward_euler(stepper, st, 5e-4)
            rho, m, w = _banded_reference_step(mdl, grid, rho, m, 5e-4)
            w_min = min(w_min, w)
            assert np.array_equal(st.rho, rho) and st.m == m
        assert w_min >= 1e-8 if case == "dawson" else w_min == 0.0


class TestRates:
    @pytest.mark.parametrize("w_max", [0.0, 2.0, 30.0, 40.0])
    def test_bernoulli_rates(self, w_max):
        # a linear drift sweeps w = b dx/D over [-w_max, w_max] across
        # the interfaces
        grid, D = FpGrid(L=1.0, n_cells=400), 0.5
        slope = w_max * D / (grid.dx * grid.L)
        mdl = replace(free_diffusion(sigma=1.0), a=lambda x: slope * x)
        c_plus, c_minus, diag, *_ = FpStepper(mdl, grid).flux_coefficients(
            0.0)
        b = mdl.a(grid.interfaces)
        w = b * (grid.dx / D)
        assert np.abs(w).max() == pytest.approx(w_max, rel=0.01)
        assert np.isfinite(c_plus).all() and np.isfinite(c_minus).all()
        assert (c_plus > 0).all() and (c_minus > 0).all()
        # the diagonal of dx A: minus each cell's outflow rate
        assert np.array_equal(diag, -(np.append(c_plus, 0.0)
                                      + np.insert(c_minus, 0, 0.0)))
        # where w = 0, at every interface for w_max = 0 and at x = 0
        # otherwise, both rates are D/dx exactly
        zero = w == 0.0
        assert zero.sum() == (w.size if w_max == 0.0 else 1)
        assert (c_plus[zero] == D / grid.dx).all()
        assert (c_minus[zero] == D / grid.dx).all()
        if w_max <= 2.0:
            # the former delta form, delta(w) = 1/w - 1/(e^w - 1)
            small = np.abs(w) < 1e-8
            delta = np.empty_like(w)
            delta[small] = 0.5 - w[small] / 12.0
            delta[~small] = 1.0 / w[~small] - 1.0 / np.expm1(w[~small])
            ref_plus = b * (1.0 - delta) + D / grid.dx
            ref_minus = D / grid.dx - b * delta
            assert np.abs(c_plus / ref_plus - 1.0).max() <= 2e-15
            assert np.abs(c_minus / ref_minus - 1.0).max() <= 2e-15
        if w_max <= 30.0:
            # detailed balance: the Gibbs ratio across each interface
            assert np.abs(c_plus / c_minus / np.exp(w) - 1.0).max() <= 1e-14


def _dx_A_times(rates, rho):
    """dx A(m) rho from the diagonals ``flux_coefficients`` gives."""
    c_plus, c_minus, diag = rates[:3]
    out = diag * rho
    out[1:] += c_plus * rho[:-1]
    out[:-1] += c_minus * rho[1:]
    return out


class TestCoupling:
    """The column u = d/dm [A(m) rho] that the mean-field term adds to
    the Jacobian, which each sub-step takes inside its solve."""

    def test_bernoulli_slopes_against_mpmath(self):
        # B'(w) and -B'(-w) at the rounded w, against 40-digit values,
        # across the series threshold |w| = 0.5 and out to |w| = 40
        w = np.concatenate([np.linspace(-40.0, 40.0, 4001),
                            np.geomspace(1e-12, 3.0, 600),
                            -np.geomspace(1e-12, 3.0, 600), [0.0]])
        nz = w != 0
        bm = np.ones_like(w)
        bm[nz] = w[nz] / np.expm1(w[nz])
        bp = bm * np.exp(w)
        minus, plus = bernoulli_slopes(w, bm, bp)

        def slope(v):
            with mp.workdps(40):
                v = mp.mpf(v)
                if v == 0:
                    return mp.mpf(-0.5)
                e = mp.expm1(v)
                return (e - v * mp.exp(v)) / e ** 2
        ref_minus = np.array([float(slope(v)) for v in w])
        ref_plus = np.array([float(-slope(-v)) for v in w])
        assert np.abs(minus / ref_minus - 1.0).max() <= 2e-15
        assert np.abs(plus / ref_plus - 1.0).max() <= 2e-15

    @pytest.mark.parametrize("m", [0.0, 0.35])
    def test_matches_central_difference_in_m(self, dawson08, m):
        grid = FpGrid(L=5.0, n_cells=400)
        rho = init_from_model(dawson08, grid, 0.3).rho
        stepper = FpStepper(dawson08, grid)
        u = stepper.coupling(stepper.flux_coefficients(m), rho)
        # rounding in the differenced fluxes sets the error: 9e-11 at
        # h = 1e-3, growing as 1/h below it
        h = 1e-3
        fd = (_dx_A_times(stepper.flux_coefficients(m + h), rho)
              - _dx_A_times(stepper.flux_coefficients(m - h), rho)) / (2 * h)
        assert np.abs(u - fd).max() <= 1e-9 * np.abs(u).max()
        # the column moves no mass
        assert abs(u.sum()) <= 1e-15 * np.abs(u).sum()

    def test_zero_drift_branch(self):
        # b = 0 at m = 0: every rate takes the w = 0 branch, B'(0) = -1/2,
        # so the flux derivative is beta c times the interface mean of rho
        mdl = replace(free_diffusion(sigma=1.0), beta=2.0)
        grid = FpGrid(L=6.0, n_cells=600)
        x = grid.centers
        rho = state_from_density(np.exp(-(x - 0.5) ** 2), mdl, grid).rho
        stepper = FpStepper(mdl, grid)
        rates = stepper.flux_coefficients(0.0)
        assert (rates[3] == 1.0).all() and (rates[4] == -1.0).all()
        u = stepper.coupling(rates, rho)
        assert np.allclose(u[1:-1], rho[:-2] - rho[2:], rtol=0.0,
                           atol=1e-15 * rho.max())
        assert u[0] == -(rho[0] + rho[1]) and u[-1] == rho[-2] + rho[-1]


class TestLinearization:
    """About the discrete steady state the step is the extrapolated
    Euler map of the full Jacobian J = A(m_ss) + u (g dx)^T."""

    @pytest.fixture(scope="class")
    def linearization(self, dawson08):
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=400)
        ss = discrete_stationary(dawson08, grid, 0.0)
        stepper = FpStepper(dawson08, grid)
        rates = stepper.flux_coefficients(ss.m)
        c_plus, c_minus, diag = rates[:3]
        A = (np.diag(diag) + np.diag(c_minus, 1)
             + np.diag(c_plus, -1)) / grid.dx
        u = stepper.coupling(rates, ss.rho) / grid.dx
        J = A + np.outer(u, dawson08.g(grid.centers) * grid.dx)
        lam, right = np.linalg.eig(J)
        k = int(np.argmax(lam.real))
        lam_h, phi = lam[k].real, right[:, k].real
        lam_l, left = np.linalg.eig(J.T)
        psi = left[:, int(np.argmin(np.abs(lam_l - lam_h)))].real
        return grid, ss, lam_h, phi, psi / np.dot(psi, phi)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_growth_of_the_dominant_mode(self, dawson08, linearization,
                                         frozen):
        # one step of dt = 0.5 from rho_ss + eps phi grows phi's component
        # by R(z) = 2/(1 - z/2)^2 - 1/(1 - z), z = lambda_h dt, to O(eps)
        # (1e-9 measured); e^z differs from R(z) by 1.6e-4 here.  A step
        # that holds m through each solve is off by 4.9e-3.
        grid, ss, lam_h, phi, psi = linearization
        assert lam_h == pytest.approx(0.18796, rel=1e-3)
        stepper = FpStepper(dawson08, grid)
        if frozen:
            stepper.coupling = lambda rates, rho: np.zeros_like(rho)
        eps, dt = 1e-6, 0.5
        rho0 = ss.rho + eps * phi
        out = stepper.step(
            FpState(rho=rho0, t=0.0, m=float(
                np.dot(dawson08.g(grid.centers), rho0) * grid.dx)), dt)
        growth = np.dot(psi, out.rho - ss.rho) / eps
        z = lam_h * dt
        err = abs(growth / (2.0 / (1.0 - z / 2) ** 2 - 1.0 / (1.0 - z)) - 1)
        assert (err > 1e-3) if frozen else (err < 1e-6)

    def test_step_past_the_unstable_time_scale_refused(self, dawson08,
                                                       linearization):
        # I - h J is singular at h = 1/lambda_h (5.3 here), so the
        # sub-step's Sherman-Morrison denominator is negative beyond it
        grid, ss, *_ = linearization
        stepper = FpStepper(dawson08, grid)
        stepper.step(ss, 5.0)
        with pytest.raises(SchemeError, match="singular"):
            stepper.step(ss, 12.0)


class TestRichardsonStep:
    def test_step_is_extrapolated_backward_euler(self, dawson08):
        grid = FpGrid(L=5.0, n_cells=400)
        st = init_from_model(dawson08, grid, 0.3)
        stepper = FpStepper(dawson08, grid)
        dt = 0.02
        full = backward_euler(stepper, st, dt)
        halves = backward_euler(stepper, backward_euler(stepper, st, dt / 2),
                                dt / 2, at=st)
        out = stepper.step(st, dt)
        assert np.array_equal(out.rho, 2.0 * halves.rho - full.rho)
        assert out.t == st.t + dt
        assert out.m == float(np.dot(dawson08.g(grid.centers), out.rho)
                              * grid.dx)
        assert stepper.step_error == np.abs(halves.rho - full.rho).max()
        assert stepper.fallback_steps == 0

    def test_one_linearization_per_step(self, dawson08):
        # one rate evaluation and one coupling column per step, and three
        # dgtsv calls on five columns: BE(dt) and the first BE(dt/2) solve
        # for [rho, u], the second BE(dt/2) for its one new column
        grid = FpGrid(L=5.0, n_cells=400)
        st = init_from_model(dawson08, grid, 0.3)
        stepper = FpStepper(dawson08, grid)
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append((name, args))
                return fn(*args, **kwargs)
            return wrapped
        for name in ("flux_coefficients", "coupling", "_gtsv"):
            setattr(stepper, name, counted(name, getattr(stepper, name)))
        for n in range(1, 4):
            st = stepper.step(st, 0.02)
            names = [name for name, _ in calls]
            assert names.count("flux_coefficients") == n
            assert names.count("coupling") == n
            rhs = [args[3] for name, args in calls if name == "_gtsv"]
            assert len(rhs) == 3 * n
            assert sum(b.shape[1] for b in rhs) == 5 * n

    def test_second_order_in_time(self, dawson08):
        # the end-point error in m against a fine run to t = 1 falls
        # fourfold when dt is halved
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=400)
        st0 = init_from_model(dawson08, grid, 0.5)

        def m_at_one(dt):
            stepper, st = FpStepper(dawson08, grid), st0
            for _ in range(int(round(1.0 / dt))):
                st = stepper.step(st, dt)
            return st.m

        ref = m_at_one(0.000625)
        errs = [abs(m_at_one(dt) - ref) for dt in (0.04, 0.02, 0.01)]
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 <= coarse / fine <= 5.0

    def test_negative_extrapolation_falls_back_to_half_steps(self, dawson08):
        # a bump narrower than the step's diffusion length: the
        # extrapolation undershoots, and the step keeps the two positive
        # half steps instead
        grid = FpGrid(L=5.0, n_cells=1000)
        x = grid.centers
        st = state_from_density(np.exp(-x * x / (2 * 0.02 ** 2)), dawson08,
                                grid)
        stepper = FpStepper(dawson08, grid)
        dt = 0.05
        full = backward_euler(stepper, st, dt)
        halves = backward_euler(stepper, backward_euler(stepper, st, dt / 2),
                                dt / 2, at=st)
        assert (2.0 * halves.rho - full.rho).min() < -1e-14
        out = stepper.step(st, dt)
        assert np.array_equal(out.rho, halves.rho)
        assert stepper.fallback_steps == 1
        assert out.rho.min() >= 0.0
        assert abs(out.mass(grid) - 1.0) < 1e-13


class TestDiscreteStationary:
    def test_coupling_constant_over_time(self, dawson08):
        # the scheme preserves its own self-consistent steady state, so
        # the statistic m_t holds to solver roundoff over t in [0, 5]
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        for m_guess in (0.0, 0.719288):
            ss = discrete_stationary(dawson08, grid, m_guess)
            ts = fp_evolve(ss, dawson08, grid, t_end=5.0, dt=2e-3, stride=100)
            assert np.abs(ts["m"] - ss.m).max() < 1e-9

    def test_near_continuum_root(self, dawson08):
        grid = FpGrid(L=5.0, n_cells=1600)
        ss = discrete_stationary(dawson08, grid, 0.719288)
        assert ss.m == pytest.approx(0.719288, abs=1e-3)

    def test_missing_root_detected(self, dawson08):
        grid = FpGrid(L=5.0, n_cells=400)
        with pytest.raises(ValueError, match="self-consistent"):
            discrete_stationary(dawson08, grid, 0.35, window=0.05)


class TestEvolve:
    def test_perturbed_symmetric_state_escapes_monotonically(
            self, dawson08, dawson_sub):
        delta = 1e-3
        pert = make_perturbation(dawson_sub, delta=delta)
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        ss = discrete_stationary(dawson08, grid, 0.0)
        rho0 = ss.rho * (1.0 + delta * pert.g_M_at(grid.centers))
        st = state_from_density(rho0, dawson08, grid)
        ts = fp_evolve(st, dawson08, grid, t_end=60.0, dt=1e-3, stride=50,
                       stop_condition=lambda t, m: abs(m) > 10 * delta)
        m = np.abs(ts["m"])
        assert m[-1] > 10 * delta            # left the band before t_end
        assert np.all(np.diff(m) > 0)        # monotone growth inside it

    def test_linear_regime_rate_matches_spectral_prediction(
            self, dawson08, dawson_sub):
        delta = 1e-3
        lam = dawson_sub.mode.lambda_star
        pert = make_perturbation(dawson_sub, delta=delta)
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        ss = discrete_stationary(dawson08, grid, 0.0)
        rho0 = ss.rho * (1.0 + delta * pert.g_M_at(grid.centers))
        st = state_from_density(rho0, dawson08, grid)
        fstar_grid = dawson_sub.fstar_at(grid.centers)
        fstar_inf = float(np.dot(fstar_grid, ss.rho) * grid.dx)
        ts = fp_evolve(st, dawson08, grid, t_end=40.0, dt=1e-3, stride=20,
                       observe=lambda s: {"fstar": float(
                           np.dot(fstar_grid, s.rho) * grid.dx)},
                       stop_condition=lambda t, m: abs(m) > 0.05)
        pair = np.abs(ts["fstar"] - fstar_inf)
        c0 = pair[0]
        inside = (pair >= 2 * c0) & (pair <= 10 * c0)
        rate = fit_exp_rate(ts["t"], pair,
                            (ts["t"][inside][0], ts["t"][inside][-1]))
        assert abs(rate - lam) / lam < 0.10

    def test_density_observers(self, dawson08):
        # the observation reads the FP state at every record, as the
        # particle engine's reads the ensemble
        grid = FpGrid(L=5.0, n_cells=300)
        st = init_from_model(dawson08, grid, 0.0)
        x = grid.centers
        ts = fp_evolve(st, dawson08, grid, t_end=0.05, dt=1e-3, stride=10,
                       observe=lambda s: {
                           "mass": s.rho.sum() * grid.dx,
                           "g": np.dot(dawson08.g(x), s.rho) * grid.dx})
        assert ts["t"].size == 6
        assert np.allclose(ts["mass"], 1.0, atol=1e-12)
        assert np.abs(ts["g"] - ts["m"]).max() < 1e-12
        # the engine's own channels: |mass - 1| and the fallback count,
        # also from a state that starts light by 1e-6
        assert np.array_equal(ts["mass_drift"], np.abs(ts["mass"] - 1.0))
        assert (ts["fallback_steps"] == 0).all()
        light = FpState(rho=st.rho * (1.0 - 1e-6), t=0.0, m=st.m)
        ts = fp_evolve(light, dawson08, grid, t_end=0.05, dt=1e-3,
                       stride=10)
        assert ts["mass_drift"] == pytest.approx(1e-6, rel=1e-8)

    def test_zero_dt_rejected(self, dawson08):
        # a zero step is an error, as in the particle engine, not "auto"
        grid = FpGrid(L=5.0, n_cells=300)
        st = init_from_model(dawson08, grid, 0.0)
        with pytest.raises(ValueError, match="dt must be positive"):
            fp_evolve(st, dawson08, grid, t_end=0.5, dt=0.0)


class TestDefaults:
    def test_default_dt_positive_and_modest(self, dawson08):
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        dt = default_dt(dawson08, grid)
        assert 0 < dt < 0.1

    def test_default_dt_rate_cap(self, dawson08):
        # twenty cells per step, unless a growth rate caps rate * dt at
        # 2.7e-3; a rate that is absent or not positive caps nothing
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        dt = default_dt(dawson08, grid)
        for rate in (None, 0.0, -1.0, 1e-3):
            assert default_dt(dawson08, grid, rate=rate) == dt
        assert default_dt(dawson08, grid, rate=10.0) == 2.7e-4 < dt

    def test_default_dt_rejects_nonfinite_log_density(self):
        # a NaN cell near x = 1 is named, not a reason to take max|b|
        # over every cell (3.09e-3 where the occupied region gives 1.545e-2)
        mdl = dawson_model(beta=1.0, sigma=0.7)
        grid = FpGrid(L=4.0, n_cells=800)
        x_bad = grid.centers[np.argmin(np.abs(grid.centers - 1.0))]
        holed = replace(mdl, log_gibbs0=lambda x: np.where(
            x == x_bad, np.nan, mdl.log_gibbs0(x)))
        assert default_dt(mdl, grid) == pytest.approx(1.545e-2, rel=2e-3)
        with pytest.raises(ValueError, match=f"not finite at x={x_bad:g}"):
            default_dt(holed, grid)

    def test_auto_grid_buffer(self, dawson08):
        grid = auto_grid(dawson08, m_values=(0.0,), n_cells=400)
        lg = dawson08.log_gibbs(np.array([grid.L]), 0.0)
        lg0 = dawson08.log_gibbs(np.array([0.0]), 0.0)
        assert lg[0] < lg0[0] - 40.0    # walls sit far into the tail
