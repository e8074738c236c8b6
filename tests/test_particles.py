import numpy as np
import pytest

from mvstab.model import ScalarMeanFieldModel, cosine_model, dawson_model
from mvstab.particles import (BlowUpError, apply_step, evolve, make_ensemble,
                              relaxation_dt_bound, step)
from mvstab.perturb import sample_measure
from mvstab.stationary import build_gibbs

from conftest import SIGMA_C_DAWSON_BETA1

IDENT = lambda x: np.asarray(x, dtype=float)


def noiseless_ou(sigma=0.0):
    """Pure relaxation a(x) = -x without interaction, for exact checks."""
    return ScalarMeanFieldModel(
        name="test-ou", beta=0.0, sigma=sigma,
        a=lambda x: -np.asarray(x, dtype=float),
        c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        g=IDENT, coupling_v=IDENT,
        log_gibbs=lambda x, m: -x * x, symmetric=True, c_const=1.0)


class TestStep:
    def test_explicit_euler_without_noise(self):
        mdl = noiseless_ou(sigma=0.0)
        ens = make_ensemble(np.array([1.0]), mdl, seed=0)
        out = step(ens, mdl, dt=0.1)
        assert out.positions[0] == pytest.approx(0.9, abs=1e-15)
        assert out.t == pytest.approx(0.1)

    def test_m_hat_recomputed(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        rng = np.random.default_rng(3)
        ens = make_ensemble(rng.standard_normal(500), mdl, seed=3)
        out = step(ens, mdl, dt=1e-3)
        assert out.m == pytest.approx(float(np.mean(out.positions)),
                                      abs=1e-12)

    def test_blow_up_reports_particle_and_time(self):
        explosive = ScalarMeanFieldModel(
            name="cubic", beta=0.0, sigma=0.0,
            a=lambda x: x * x * x, c=lambda x: np.ones_like(x), g=IDENT,
            coupling_v=IDENT, log_gibbs=lambda x, m: -x * x, c_const=1.0)
        ens = make_ensemble(np.array([0.0, 2.0]), explosive, seed=0)
        with pytest.raises(BlowUpError, match="particle 1"), \
                np.errstate(over="ignore", invalid="ignore"):
            cur = ens
            for _ in range(2000):
                cur = step(cur, explosive, dt=1.0)

    def test_rejects_nonpositive_dt(self):
        mdl = noiseless_ou()
        ens = make_ensemble(np.array([1.0]), mdl, seed=0)
        with pytest.raises(ValueError, match="positive"):
            step(ens, mdl, dt=0.0)


class TestKernelInvariance:
    def test_permutation_equivariance(self):
        # stepping permuted positions with permuted increments must give
        # the permuted update, so the empirical statistic is unchanged
        mdl = dawson_model(beta=1.0, sigma=0.7)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        w = rng.standard_normal(200)
        perm = rng.permutation(200)
        m_hat = float(np.mean(mdl.g(x)))
        a = apply_step(x, mdl, 1e-3, m_hat, w)
        b = apply_step(x[perm], mdl, 1e-3, m_hat, w[perm])
        assert np.array_equal(a[perm], b)
        # the statistic agrees up to summation-order roundoff
        assert np.mean(mdl.g(a)) == pytest.approx(np.mean(mdl.g(b)),
                                                  abs=1e-14)


class TestEvolve:
    def test_bit_identical_for_fixed_seed(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        g = build_gibbs(mdl, 0.0)
        xs = sample_measure(g, 2000, seed=9)
        a = evolve(make_ensemble(xs, mdl, seed=9), mdl, t_end=0.2, stride=10)
        b = evolve(make_ensemble(xs, mdl, seed=9), mdl, t_end=0.2, stride=10)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a["m"], b["m"])

    def test_different_seed_differs(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        g = build_gibbs(mdl, 0.0)
        xs = sample_measure(g, 2000, seed=9)
        a = evolve(make_ensemble(xs, mdl, seed=9), mdl, t_end=0.2)
        b = evolve(make_ensemble(xs, mdl, seed=10), mdl, t_end=0.2)
        assert not np.array_equal(a["m"], b["m"])

    def test_dt_guard_enforced(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        ens = make_ensemble(np.zeros(10), mdl, seed=0)
        guard = relaxation_dt_bound(mdl)
        with pytest.raises(ValueError, match="relaxation guard"):
            evolve(ens, mdl, t_end=1.0, dt=5 * guard)

    def test_stationary_branch_band(self):
        # initialized on the outer branch the empirical statistic stays
        # within the Monte Carlo band (5 standard errors of the mean)
        mdl = dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1)
        m_plus = 0.7192880290786679        # bisection root of psi
        g = build_gibbs(mdl, m_plus)
        n = 20_000
        xs = sample_measure(g, n, seed=5)
        ts = evolve(make_ensemble(xs, mdl, seed=5), mdl, t_end=5.0, stride=20)
        var = g.moment(lambda x: x * x) - m_plus ** 2
        se = np.sqrt(var / n)
        assert np.abs(ts["m"] - m_plus).max() <= 5 * se

    def test_observers_recorded(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        xs = np.linspace(-1, 1, 100)
        ts = evolve(make_ensemble(xs, mdl, seed=1), mdl, t_end=0.05,
                    observers={"x2": lambda p: float(np.mean(p * p))},
                    stride=5)
        assert "x2" in ts.channels
        assert ts["x2"][0] == pytest.approx(np.mean(xs ** 2))

    def test_stop_condition(self):
        mdl = noiseless_ou(sigma=0.0)
        xs = np.full(50, 2.0)
        ts = evolve(make_ensemble(xs, mdl, seed=0), mdl, t_end=5.0, dt=0.005,
                    stride=1, stop_condition=lambda t, m: m < 1.0)
        assert ts.times[-1] < 1.0


class TestAgainstMeanFieldOracle:
    def test_cosine_mean_tracks_transport_solution(self):
        # the ensemble mean at t=1 must agree with the deterministic
        # transport oracle within the Monte Carlo band (4 SE)
        from mvstab.fokkerplanck import (FpGrid, fp_evolve, init_from_model)
        mdl = cosine_model(beta=2.0)
        m_start = 0.3       # not a root: the statistic genuinely moves
        grid = FpGrid(L=12.0, n_cells=1200)
        st = init_from_model(mdl, grid, m_start)
        x = grid.centers
        ref = fp_evolve(st, mdl, grid, t_end=1.0, dt=5e-4, observers={
            "mean_x": lambda rho: np.dot(x, rho) * grid.dx})
        target = ref["mean_x"][-1]

        g = build_gibbs(mdl, m_start)
        n = 400_000
        xs = sample_measure(g, n, seed=17)
        ts = evolve(make_ensemble(xs, mdl, seed=17), mdl, t_end=1.0, dt=0.002,
                    stride=100, observers={"mean_x": np.mean})
        se = 1.0 / np.sqrt(n)      # frozen-law std is exactly 1
        assert abs(ts["mean_x"][-1] - target) < 4 * se

    def test_weak_first_order_in_dt(self):
        # coupled Brownian increments across three step sizes; the
        # successive differences of the seed-averaged statistic halve
        mdl = dawson_model(beta=1.0, sigma=0.7)
        levels = [0.02, 0.01, 0.005]
        n, t_end = 4000, 1.0
        means = {dt: [] for dt in levels}
        for seed in range(64):
            rng = np.random.default_rng(seed)
            x0 = rng.normal(0.5, 0.3, n)
            n_fine = int(t_end / levels[-1])
            dw = rng.standard_normal((n_fine, n)) * np.sqrt(levels[-1])
            for dt in levels:
                k = int(dt / levels[-1])
                x = x0.copy()
                for s in range(int(t_end / dt)):
                    w = dw[s * k:(s + 1) * k].sum(axis=0) / np.sqrt(dt)
                    x = apply_step(x, mdl, dt, float(np.mean(x)), w)
                means[dt].append(np.mean(x))
        avg = {dt: np.mean(means[dt]) for dt in levels}
        d1 = avg[levels[0]] - avg[levels[1]]
        d2 = avg[levels[1]] - avg[levels[2]]
        assert 1.5 <= d1 / d2 <= 3.0

    def test_perturbed_unstable_state_escapes(self, dawson_sub):
        # perturbed off the supercritical symmetric branch, the
        # statistic leaves the band around zero and heads for an outer
        # branch well before the horizon
        from mvstab.perturb import make_perturbation
        mdl = dawson_sub.gibbs.model
        delta = 1e-2
        _, mu_d = make_perturbation(dawson_sub, delta=delta)
        n = 20_000
        xs = sample_measure(mu_d, n, seed=2)
        band = 10 * delta
        ts = evolve(make_ensemble(xs, mdl, seed=2), mdl, t_end=40.0,
                    stride=50, stop_condition=lambda t, m: abs(m) > 2 * band)
        m = np.abs(ts["m"])
        assert m.max() > band            # left the band
        assert ts.times[-1] < 40.0       # well before the horizon
        # moving toward the nonzero branch, away from the origin
        assert m[-1] > 1.5 * band

    def test_symmetric_law_of_m_hat(self):
        # symmetric model, symmetric initial law: the statistic has a
        # symmetric distribution, so the seed average stays near zero
        mdl = dawson_model(beta=1.0, sigma=0.9)
        g = build_gibbs(mdl, 0.0)
        finals = []
        for seed in range(64):
            xs = sample_measure(g, 2000, seed=100 + seed)
            ts = evolve(make_ensemble(xs, mdl, seed=100 + seed), mdl,
                        t_end=0.5, stride=100)
            finals.append(ts["m"][-1])
        finals = np.array(finals)
        se_mean = finals.std(ddof=1) / np.sqrt(finals.size)
        assert abs(finals.mean()) < 4 * se_mean

