import threading
from dataclasses import replace

import numpy as np
import pytest

from mvstab import particles
from mvstab.metrics import record_run
from mvstab.model import (ScalarMeanFieldModel, cosine_model, dawson_model,
                          rescaled_double_well_model)
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
        log_gibbs0=lambda x: -x * x, symmetric=True)


class TestStep:
    def test_explicit_euler_without_noise(self):
        # without noise the step is the explicit trapezoidal (Heun)
        # step: x' = x (1 - h + h^2 / 2) for a(x) = -x
        mdl = noiseless_ou(sigma=0.0)
        ens = make_ensemble(np.array([1.0]), mdl, seed=0)
        out = step(ens, mdl, dt=0.1)
        assert out.positions[0] == pytest.approx(0.905, abs=1e-15)
        assert out.t == pytest.approx(0.1)

    def test_m_hat_recomputed(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        rng = np.random.default_rng(3)
        ens = make_ensemble(rng.standard_normal(500), mdl, seed=3)
        out = step(ens, mdl, dt=1e-3)
        assert out.m == pytest.approx(float(np.mean(out.positions)),
                                      abs=1e-12)

    def test_blow_up_reports_particle_and_time(self):
        explosive = cubic_blow_up()
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
        dt = relaxation_dt_bound(mdl)
        a = evolve(make_ensemble(xs, mdl, seed=9), mdl, t_end=0.2, dt=dt,
                   stride=10)
        b = evolve(make_ensemble(xs, mdl, seed=9), mdl, t_end=0.2, dt=dt,
                   stride=10)
        assert np.array_equal(a["t"], b["t"])
        assert np.array_equal(a["m"], b["m"])

    def test_different_seed_differs(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        g = build_gibbs(mdl, 0.0)
        xs = sample_measure(g, 2000, seed=9)
        dt = relaxation_dt_bound(mdl)
        a = evolve(make_ensemble(xs, mdl, seed=9), mdl, t_end=0.2, dt=dt)
        b = evolve(make_ensemble(xs, mdl, seed=10), mdl, t_end=0.2, dt=dt)
        assert not np.array_equal(a["m"], b["m"])

    def test_dt_guard_enforced(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        ens = make_ensemble(np.zeros(10), mdl, seed=0)
        guard = relaxation_dt_bound(mdl)
        with pytest.raises(ValueError, match="relaxation guard"):
            evolve(ens, mdl, t_end=1.0, dt=5 * guard)

    def test_guard_rejects_nonfinite_log_density(self):
        # a law on |x| < 5 only: its log-density is -inf on the rest of
        # the guard's scan
        boxed = ScalarMeanFieldModel(
            name="boxed", beta=0.0, sigma=1.0,
            a=lambda x: -np.asarray(x, dtype=float),
            c=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            g=IDENT, coupling_v=IDENT,
            log_gibbs0=lambda x: np.where(np.abs(x) < 5.0, -x * x, -np.inf))
        with pytest.raises(ValueError, match="boxed is not finite"):
            relaxation_dt_bound(boxed)

    def test_stationary_branch_band(self):
        # initialized on the outer branch the empirical statistic stays
        # within the Monte Carlo band (5 standard errors of the mean)
        mdl = dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1)
        m_plus = 0.7192880290786679        # bisection root of psi
        g = build_gibbs(mdl, m_plus)
        n = 20_000
        xs = sample_measure(g, n, seed=5)
        ts = evolve(make_ensemble(xs, mdl, seed=5), mdl, t_end=5.0,
                    dt=relaxation_dt_bound(mdl), stride=20)
        var = g.moment(lambda x: x * x) - m_plus ** 2
        se = np.sqrt(var / n)
        assert np.abs(ts["m"] - m_plus).max() <= 5 * se

    def test_observers_recorded(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        xs = np.linspace(-1, 1, 100)
        ts = evolve(make_ensemble(xs, mdl, seed=1), mdl, t_end=0.05,
                    dt=relaxation_dt_bound(mdl), observe=lambda e: {
                        "x2": float(np.mean(e.positions * e.positions))},
                    stride=5)
        assert "x2" in ts
        assert ts["x2"][0] == pytest.approx(np.mean(xs ** 2))

    def test_stop_condition(self):
        mdl = noiseless_ou(sigma=0.0)
        xs = np.full(50, 2.0)
        ts = evolve(make_ensemble(xs, mdl, seed=0), mdl, t_end=5.0, dt=0.005,
                    stride=1, stop_condition=lambda t, m: m < 1.0)
        assert ts["t"][-1] < 1.0


def cubic_blow_up():
    """x' = x^3 without noise: the particle started at 2 diverges near
    t = 1/8."""
    return ScalarMeanFieldModel(
        name="cubic", beta=0.0, sigma=0.0,
        a=lambda x: x * x * x, c=lambda x: np.ones_like(x), g=IDENT,
        coupling_v=IDENT, log_gibbs0=lambda x: -x * x)


class TestNoiseAhead:
    """``evolve`` draws each step's increments one step ahead on a
    helper thread; nothing of a run may depend on that."""

    @staticmethod
    def last_positions(store):
        # an observation that keeps the positions it is shown
        def observe(e):
            p = store["positions"] = e.positions
            return {"x2": float(np.mean(p * p))}
        return observe

    @pytest.mark.parametrize("mdl", [dawson_model(beta=1.0, sigma=0.7),
                                     cosine_model(beta=2.0)],
                             ids=["dawson", "cosine"])
    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("start", [0, 5])
    @pytest.mark.parametrize("stop", [False, True])
    def test_equals_plain_loop_of_step(self, mdl, stride, start, stop):
        xs = sample_measure(build_gibbs(mdl, 0.3), 3000, seed=4)
        ens = replace(make_ensemble(xs, mdl, seed=4), step_index=start)
        dt = relaxation_dt_bound(mdl)
        m0 = ens.m
        # the stop ends the run a few records in, before t_end
        stop_condition = ((lambda t, m: t > 11 * dt) if stop else None)
        got, want = {}, {}
        a = evolve(ens, mdl, t_end=60 * dt, dt=dt, stride=stride,
                   observe=self.last_positions(got),
                   stop_condition=stop_condition)
        b = record_run(ens, lambda e: step(e, mdl, dt), t_end=60 * dt,
                       dt=dt, observe=self.last_positions(want),
                       stride=stride, stop_condition=stop_condition)
        assert a["t"][-1] < 59 * dt if stop else a["t"].size > 2
        assert np.array_equal(a["t"], b["t"])
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert np.array_equal(got["positions"], want["positions"])
        assert a["m"][0] == m0

    def test_step_draws_by_its_own_key(self):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        ens = replace(make_ensemble(np.linspace(-1, 1, 500), mdl, seed=2),
                      step_index=9)
        noise = particles.step_noise(2, 9, 500)
        assert np.array_equal(step(ens, mdl, 1e-3).positions,
                              step(ens, mdl, 1e-3, noise).positions)

    def test_evolve_checks_the_key(self, monkeypatch):
        # a step that returns its ensemble one step index ahead asks for
        # increments other than the ones drawn for it
        mdl = dawson_model(beta=1.0, sigma=0.7)
        ens = make_ensemble(np.zeros(100), mdl, seed=1)
        real = particles.step

        def skipping(e, *args):
            new = real(e, *args)
            return replace(new, step_index=new.step_index + 1)
        monkeypatch.setattr(particles, "step", skipping)
        with pytest.raises(RuntimeError, match="drawn for"):
            evolve(ens, mdl, t_end=0.05, dt=relaxation_dt_bound(mdl))

    @staticmethod
    def run_joined(fn, timeout=120.0):
        """Run ``fn`` on a thread joined with a timeout, so that a
        deadlock fails the test instead of hanging the suite.  The
        thread count is read the moment ``fn`` ends, before a helper
        thread that was not joined would have had time to finish."""
        box = {}

        def target():
            try:
                box["value"] = fn()
            except BaseException as exc:
                box["error"] = exc
            box["threads"] = threading.active_count()
        runner = threading.Thread(target=target, daemon=True)
        runner.start()
        runner.join(timeout)
        assert not runner.is_alive(), "evolve did not return"
        return box

    class DrawFailed(Exception):
        pass

    @pytest.mark.parametrize("end", ["normal", "stop", "blow-up", "draw",
                                     "observer"])
    def test_no_thread_left_behind(self, end, monkeypatch):
        mdl = dawson_model(beta=1.0, sigma=0.7)
        ens = make_ensemble(np.linspace(-1, 1, 2000), mdl, seed=6)
        kw = dict(t_end=0.5, stride=2)
        err = self.DrawFailed("no increments for step 3")
        if end == "stop":
            kw["stop_condition"] = lambda t, m: t > 0.05
        elif end == "blow-up":
            mdl = cubic_blow_up()
            ens = make_ensemble(np.array([0.0, 2.0]), mdl, seed=0)
            kw["t_end"] = 1.0
        elif end == "draw":
            real = particles.step_noise

            def failing(seed, k, n, out=None):
                if k == 3:
                    raise err
                return real(seed, k, n, out=out)
            monkeypatch.setattr(particles, "step_noise", failing)
        elif end == "observer":
            def observe(e):
                raise err
            kw["observe"] = observe

        kw["dt"] = relaxation_dt_bound(mdl)

        def run():
            with np.errstate(over="ignore", invalid="ignore"):
                return evolve(ens, mdl, **kw)
        before = threading.active_count()
        box = self.run_joined(run)
        assert box["threads"] == before + 1      # the runner itself
        assert threading.active_count() == before
        if end == "normal":
            assert box["value"]["t"][-1] >= 0.5 - 1e-12
        elif end == "stop":
            assert box["value"]["t"][-1] < 0.1
        elif end == "blow-up":
            assert isinstance(box["error"], BlowUpError)
            assert "particle 1" in str(box["error"])
        else:
            assert box["error"] is err


class TestAgainstMeanFieldOracle:
    def test_cosine_mean_tracks_transport_solution(self):
        # the ensemble mean at t=1 must agree with the deterministic
        # transport oracle within the Monte Carlo band (4 SE)
        from mvstab.fokkerplanck import FpGrid, fp_evolve
        from reference import init_from_model
        mdl = cosine_model(beta=2.0)
        m_start = 0.3       # not a root: the statistic genuinely moves
        grid = FpGrid(L=12.0, n_cells=1200)
        st = init_from_model(mdl, grid, m_start)
        x = grid.centers
        ref = fp_evolve(st, mdl, grid, t_end=1.0, dt=5e-4, observe=lambda s: {
            "mean_x": np.dot(x, s.rho) * grid.dx})
        target = ref["mean_x"][-1]

        g = build_gibbs(mdl, m_start)
        n = 400_000
        xs = sample_measure(g, n, seed=17)
        ts = evolve(make_ensemble(xs, mdl, seed=17), mdl, t_end=1.0, dt=0.002,
                    stride=100,
                    observe=lambda e: {"mean_x": np.mean(e.positions)})
        se = 1.0 / np.sqrt(n)      # frozen-law std is exactly 1
        assert abs(ts["mean_x"][-1] - target) < 4 * se

    @staticmethod
    def coupled_m_paths(mdl, x0, rng, levels, n_steps):
        """m_hat at 0 and after each of ``n_steps`` steps of ``levels[0]``,
        one row per step size in ``levels`` (each dividing the first),
        all driven by one Brownian path sampled at the finest level."""
        ks = [int(round(levels[0] / h)) for h in levels]
        xs = [x0.copy() for _ in levels]
        paths = [[float(np.mean(mdl.g(x0)))] for _ in levels]
        for _ in range(n_steps):
            z = rng.standard_normal((ks[-1], x0.size))
            for i, (h, k) in enumerate(zip(levels, ks)):
                r = ks[-1] // k       # finest increments per step of h
                for j in range(k):
                    w = z[j * r:(j + 1) * r].sum(axis=0) / np.sqrt(r)
                    xs[i] = apply_step(xs[i], mdl, h,
                                       float(np.mean(mdl.g(xs[i]))), w)
                paths[i].append(float(np.mean(mdl.g(xs[i]))))
        return np.array(paths)

    def test_weak_second_order_in_dt(self):
        # coupled Brownian increments across three step sizes; the
        # successive differences of the seed-averaged statistic at t = 1
        # shrink fourfold per halving (Euler-Maruyama gives about 2)
        mdl = dawson_model(beta=1.0, sigma=0.7)
        finals = []
        for seed in range(64):
            rng = np.random.default_rng(seed)
            x0 = rng.normal(0.5, 0.3, 4000)
            finals.append(self.coupled_m_paths(
                mdl, x0, rng, [0.04, 0.02, 0.01], 25)[:, -1])
        avg = np.mean(finals, axis=0)
        assert 3.0 <= (avg[0] - avg[1]) / (avg[1] - avg[2]) <= 5.5

    @pytest.mark.parametrize("mdl, euler_bias", [
        (dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1), 2.47e-4),
        (cosine_model(beta=1.0), 1.09e-3),
        (cosine_model(beta=12.8), 1.06e-3),
        (rescaled_double_well_model(
            beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1), 4.57e-4),
    ], ids=["dawson", "cosine", "cosine-stiff", "rescaled_double_well"])
    def test_default_step_beats_former_euler_bias(self, mdl, euler_bias):
        # the default step against a quarter of it on one Brownian path,
        # from the Gibbs law at m = 0.5 (c09's start law on dawson): the
        # largest gap of the seed-averaged m_hat over t in [0, 5] stays
        # below ``euler_bias``, the same gap of Euler-Maruyama at the
        # former guard 0.01 / max|a'| against a step of half that
        dt = relaxation_dt_bound(mdl)
        gibbs = build_gibbs(mdl, 0.5)
        paths = [self.coupled_m_paths(
                     mdl, sample_measure(gibbs, 5000, seed=seed),
                     np.random.default_rng(seed), [dt, dt / 4],
                     int(np.ceil(5.0 / dt)))
                 for seed in range(4)]
        avg = np.mean(paths, axis=0)
        assert np.abs(avg[0] - avg[1]).max() < euler_bias

    def test_perturbed_unstable_state_escapes(self, dawson_sub):
        # perturbed off the supercritical symmetric branch, the
        # statistic leaves the band around zero and heads for an outer
        # branch well before the horizon
        from mvstab.perturb import make_perturbation
        mdl = dawson_sub.gibbs.model
        delta = 1e-2
        mu_d = make_perturbation(dawson_sub, delta=delta).law
        n = 20_000
        # at N = 2e4 noise dominates the unstable mode's amplitude, so the
        # escape time depends on the path: over seeds 0-47 it spans
        # 11.6-42.1 (median 18.7), and one path in 48 stays in the band
        # past t = 40, as with Euler-Maruyama at a sixteenth of the step
        # (10.2-45.7, median 16.3)
        xs = sample_measure(mu_d, n, seed=3)
        band = 10 * delta
        ts = evolve(make_ensemble(xs, mdl, seed=3), mdl, t_end=40.0,
                    dt=relaxation_dt_bound(mdl), stride=3,
                    stop_condition=lambda t, m: abs(m) > 2 * band)
        m = np.abs(ts["m"])
        assert m.max() > band            # left the band
        assert ts["t"][-1] < 40.0       # well before the horizon
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
                        t_end=0.5, dt=relaxation_dt_bound(mdl), stride=100)
            finals.append(ts["m"][-1])
        finals = np.array(finals)
        se_mean = finals.std(ddof=1) / np.sqrt(finals.size)
        assert abs(finals.mean()) < 4 * se_mean

