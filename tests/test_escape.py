"""escape_run's record channels, checked against the engine's start state,
and the FP engine's account of its run."""
import numpy as np
import pytest

from mvstab import escape
from mvstab.escape import escape_run
from mvstab.fokkerplanck import (auto_grid, discrete_stationary,
                                 state_from_density)
from mvstab.metrics import empirical_cdf, w1_density
from mvstab.perturb import make_perturbation, sample_measure
from mvstab.stationary import self_consistent_roots

DELTA = 1e-3


@pytest.fixture(scope="module")
def roots(dawson_sub):
    return self_consistent_roots(dawson_sub.gibbs.model).roots


def first_record(branch, roots, engine, **kw):
    res = escape_run(branch, roots, engine=engine, delta=DELTA, stride=1,
                     **kw)
    return res.series["pairing"][0], res.series["w1"][0]


class TestChannelsAtStart:
    """The first record of each engine is its start state: the pairing
    with f_star minus the branch's, and W1 to the branch."""

    def test_particles(self, dawson_sub, roots):
        n, seed = 2000, 3
        pairing, w1 = first_record(dawson_sub, roots, "particles",
                                   t_end=0.05, n_particles=n, seed=seed)
        gibbs = dawson_sub.gibbs
        nodes = gibbs.rule.nodes
        fstar = dawson_sub.fstar_at(nodes)
        xs = sample_measure(make_perturbation(dawson_sub, DELTA).law, n,
                            seed=seed)
        pairing_0 = np.mean(np.interp(xs, nodes, fstar, left=0.0, right=0.0))
        assert pairing == pytest.approx(pairing_0 - gibbs.moment(fstar),
                                        rel=1e-12)
        assert w1 == pytest.approx(
            w1_density(nodes, empirical_cdf(xs, nodes), gibbs.cdf),
            rel=1e-12)

    def test_fp(self, dawson_sub, roots):
        n_cells = 200
        pairing, w1 = first_record(dawson_sub, roots, "fp", t_end=0.02,
                                   n_cells=n_cells)
        model = dawson_sub.gibbs.model
        grid = auto_grid(model, m_values=tuple(roots) + (0.0,),
                         n_cells=n_cells)
        x, dx = grid.centers, grid.dx
        ss = discrete_stationary(model, grid, dawson_sub.gibbs.m)
        pert = make_perturbation(dawson_sub, DELTA)
        rho0 = state_from_density(ss.rho * (1.0 + DELTA * pert.g_M_at(x)),
                                  model, grid).rho
        assert pairing == pytest.approx(
            np.dot(dawson_sub.fstar_at(x), rho0 - ss.rho) * dx, rel=1e-12)
        assert w1 == pytest.approx(
            w1_density(x, np.cumsum(rho0) * dx, np.cumsum(ss.rho) * dx),
            rel=1e-12)


def test_fp_account_reads_the_whole_series(dawson_sub, roots, monkeypatch):
    # fallback_steps is the count at the last record and mass_drift the
    # largest |mass - 1| over all records, here a middle one
    fp_evolve = escape.fp_evolve

    def evolve_with_known_account(*args, **kw):
        series = fp_evolve(*args, **kw)
        n = series["t"].size
        series["fallback_steps"] = np.arange(n)
        series["mass_drift"] = np.where(np.arange(n) == n // 2,
                                        5e-15, 1e-15)
        return series
    monkeypatch.setattr(escape, "fp_evolve", evolve_with_known_account)
    res = escape_run(dawson_sub, roots, engine="fp", delta=DELTA, stride=1,
                     t_end=0.02, n_cells=200)
    n = res.series["t"].size
    assert n > 2
    assert res.report["fallback_steps"] == n - 1
    assert res.report["mass_drift"] == 5e-15


@pytest.mark.slow
def test_escape_time_ladder(dawson_sub, roots):
    # the paper's instability statement as a measured law: from delta =
    # 1e-2, 1e-3 and 1e-4 every FP run reaches |m - m_c| = 0.5, and the
    # first time T with |m - m_c| > 0.05 moves by ln 10 / lambda_star per
    # decade of delta.  The shift needs no fit window, so it reads the
    # scheme's own rate: 1,600 cells put it 1.4e-5 off lambda_star, the
    # step (lambda_star dt)^2/6 = 4.7e-7 more, and the O(delta) nonlinear
    # term moves the first decade by +1.7e-5.  Measured: +3.7e-6 and
    # -1.34e-5; a step that holds m through each solve reads +3.4e-5 and
    # +1.7e-5.
    lam = dawson_sub.mode.lambda_star
    times = []
    for delta in (1e-2, 1e-3, 1e-4):
        res = escape_run(dawson_sub, roots, engine="fp", delta=delta,
                         t_end=80.0, stride=1,
                         stop_band_factor=0.5 / (10 * delta))
        log_dist = np.log(np.abs(res.series["m"] - res.m_center))
        assert log_dist[-1] > np.log(0.5)
        # the crossing, interpolated in log|m - m_c| between two records
        # one step apart
        k = int(np.argmax(log_dist > np.log(0.05)))
        t = res.series["t"]
        times.append(t[k - 1] + (t[k] - t[k - 1])
                     * (np.log(0.05) - log_dist[k - 1])
                     / (log_dist[k] - log_dist[k - 1]))
    per_decade = np.diff(times) * lam / np.log(10.0)
    assert np.abs(per_decade - 1.0).max() < 2e-5
