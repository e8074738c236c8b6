import numpy as np
import pytest

from mvstab.fokkerplanck import (FpGrid, FpStepper, SchemeError, auto_grid,
                                 default_dt, discrete_stationary, fp_evolve,
                                 fp_evolve_linear, init_from_model,
                                 state_from_density)
from mvstab.model import ScalarMeanFieldModel, dawson_model
from mvstab.numerics import fit_exp_rate
from mvstab.perturb import make_perturbation
from mvstab.spectrum import full_generator_matrix, linearized_propagate

from conftest import SIGMA_C_DAWSON_BETA1

IDENT = lambda x: np.asarray(x, dtype=float)


def free_diffusion(sigma=1.0):
    return ScalarMeanFieldModel(
        name="free", beta=0.0, sigma=sigma,
        a=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g=IDENT, coupling_v=IDENT,
        log_gibbs=lambda x, m: np.zeros_like(x), c_const=1.0)


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
        pspec, _ = make_perturbation(dawson_sub, delta=delta)
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        ss = discrete_stationary(dawson08, grid, 0.0)
        rho0 = ss.rho * (1.0 + delta * pspec.g_M_at(grid.centers))
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
        pspec, _ = make_perturbation(dawson_sub, delta=delta)
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        ss = discrete_stationary(dawson08, grid, 0.0)
        rho0 = ss.rho * (1.0 + delta * pspec.g_M_at(grid.centers))
        st = state_from_density(rho0, dawson08, grid)
        fstar_grid = dawson_sub.fstar_at(grid.centers)
        fstar_inf = float(np.dot(fstar_grid, ss.rho) * grid.dx)
        ts = fp_evolve(st, dawson08, grid, t_end=40.0, dt=1e-3, stride=20,
                       observers={"fstar": lambda rho: float(
                           np.dot(fstar_grid, rho) * grid.dx)},
                       stop_condition=lambda t, m: abs(m) > 0.05)
        pair = np.abs(ts["fstar"] - fstar_inf)
        c0 = pair[0]
        inside = (pair >= 2 * c0) & (pair <= 10 * c0)
        rate = fit_exp_rate(ts.times, pair,
                            (ts.times[inside][0], ts.times[inside][-1]))
        assert abs(rate - lam) / lam < 0.10

    def test_density_observers(self, dawson08):
        # observers see the cell density at every record, as the particle
        # engine's observers see the positions
        grid = FpGrid(L=5.0, n_cells=300)
        st = init_from_model(dawson08, grid, 0.0)
        x = grid.centers
        ts = fp_evolve(st, dawson08, grid, t_end=0.05, dt=1e-3, stride=10,
                       observers={"mass": lambda rho: rho.sum() * grid.dx,
                                  "g": lambda rho: np.dot(dawson08.g(x), rho)
                                  * grid.dx})
        assert ts.times.size == 6
        assert np.allclose(ts["mass"], 1.0, atol=1e-12)
        assert np.abs(ts["g"] - ts["m"]).max() < 1e-12


class TestFrozenLinearization:
    def test_pairing_matches_matrix_exponential(self, dawson_sub):
        # duality oracle: <nu_t, f> computed by transporting the signed
        # density must match <nu_0, exp(tM) f> from the Galerkin matrix
        mdl = dawson_sub.gibbs.model
        M = full_generator_matrix(dawson_sub.spectrum, dawson_sub.coupling)
        pspec, _ = make_perturbation(dawson_sub, delta=1e-3)
        grid = FpGrid(L=5.0, n_cells=1600)
        ss = discrete_stationary(mdl, grid, 0.0)
        nu0 = pspec.g_M_at(grid.centers) * ss.rho
        nu0 -= ss.rho * (nu0.sum() / ss.rho.sum())

        n = dawson_sub.basis.degree
        f_poly = np.zeros(n + 1)
        f_poly[1], f_poly[2] = 1.0, 0.5
        f_eig = dawson_sub.spectrum.vectors.T @ f_poly
        ts = fp_evolve_linear(nu0, mdl, grid, ss.rho, ss.m,
                              t_end=1.0, dt=2e-4, stride=10 ** 9)
        f_grid = dawson_sub.basis.eval_series(f_poly, grid.centers)
        route_measure = float(np.dot(ts["nu"][-1], f_grid) * grid.dx)
        qtf = linearized_propagate(M, f_eig, 1.0)
        qtf_grid = dawson_sub.basis.eval_series(
            dawson_sub.spectrum.vectors @ qtf, grid.centers)
        route_observable = float(np.dot(nu0, qtf_grid) * grid.dx)
        assert abs(route_measure - route_observable) < 1e-4 * abs(
            route_observable)

    def test_signed_mass_conserved(self, dawson_sub):
        mdl = dawson_sub.gibbs.model
        grid = FpGrid(L=5.0, n_cells=400)
        ss = discrete_stationary(mdl, grid, 0.0)
        nu0 = grid.centers * ss.rho
        nu0 -= ss.rho * (nu0.sum() / ss.rho.sum())
        ts = fp_evolve_linear(nu0, mdl, grid, ss.rho, ss.m,
                              t_end=0.5, dt=1e-3, stride=100)
        assert abs(ts["nu"][-1].sum() * grid.dx) < 1e-13


class TestDefaults:
    def test_default_dt_positive_and_modest(self, dawson08):
        grid = auto_grid(dawson08, m_values=(0.0, 0.8), n_cells=800)
        dt = default_dt(dawson08, grid)
        assert 0 < dt < 0.1

    def test_auto_grid_buffer(self, dawson08):
        grid = auto_grid(dawson08, m_values=(0.0,), n_cells=400)
        lg = dawson08.log_gibbs(np.array([grid.L]), 0.0)
        lg0 = dawson08.log_gibbs(np.array([0.0]), 0.0)
        assert lg[0] < lg0[0] - 40.0    # walls sit far into the tail
