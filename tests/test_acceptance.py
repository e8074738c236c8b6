"""Acceptance suite: one test per numbered criterion.

Each test measures its quantities, prints one PASS/FAIL line (run with
-s to stream them), appends the line to acceptance_report.txt, and then
asserts.  Criterion 7 is known to fail at the stated amplitude; see
the analysis note next to it.
"""
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from mvstab.escape import escape_run
from mvstab.fokkerplanck import (auto_grid, default_dt, discrete_stationary,
                                 fp_evolve, state_from_density)
from mvstab.metrics import w1_density
from mvstab.model import cosine_model, dawson_model, rescaled_double_well_model
from mvstab.numerics import dense_spectrum, find_roots, fit_exp_rate
from mvstab.particles import evolve, make_ensemble, relaxation_dt_bound
from mvstab.perturb import make_perturbation, sample_measure
from mvstab.spectrum import (analyze_branch, base_spectrum, build_basis,
                             dirichlet_matrix)
from mvstab.stationary import (GridSpec, build_gibbs, critical_sigma, psi,
                               self_consistent_roots)

from reference import (full_generator_matrix, init_from_model,
                       linearized_propagate, w1_empirical)

SIGMA_C = 0.9559775949676983          # frozen bisection value, checked in c4
_LINES: list[str] = []


@pytest.fixture(scope="module", autouse=True)
def _report_file():
    # replace the lines of the criteria that ran and keep the others, so a
    # partial run (-k c01) does not truncate the report
    yield
    path = Path("acceptance_report.txt")
    kept = path.read_text(encoding="utf-8").split("\n") \
        if path.exists() else []
    # "criterion  7 FAIL: ..." -> 7; the lines of this run come last and win
    by_num = {int(line.split()[1]): line for line in kept + _LINES if line}
    path.write_text("\n".join(by_num[k] for k in sorted(by_num)) + "\n",
                    encoding="utf-8")


def record(num, desc, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {desc} ({detail})"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def dawson08():
    return analyze_branch(
        build_gibbs(dawson_model(beta=1.0, sigma=0.8 * SIGMA_C), 0.0), 120)


def cosine_psi_roots(model, n_scan=2001):
    from mvstab.stationary import GibbsFamily, make_rule
    family = GibbsFamily(model, make_rule(model, GridSpec(panel_degree=60),
                                          m_values=(-1.0, 0.0, 1.0)))
    return find_roots(lambda m: psi(family, m), (-1.0, 1.0), n_scan, 1e-12)


@pytest.fixture(scope="module")
def cosine_unstable_root():
    beta = 12.8
    model = cosine_model(beta=beta)
    roots = cosine_psi_roots(model)
    m0 = next(r for r in roots
              if beta * np.sin(beta * r) < -np.sqrt(np.e) and r > 0)
    return model, m0


def test_c01_ou_spectrum_ladder():
    t0 = time.perf_counter()
    model = cosine_model(beta=2.0)
    m0 = cosine_psi_roots(model, n_scan=801)[0]
    gibbs = build_gibbs(model, m0, GridSpec(panel_degree=60))
    basis = build_basis(gibbs, 40)
    spec = base_spectrum(dirichlet_matrix(basis))
    dev = np.abs(spec.values[:11] - np.arange(11)).max()
    el = time.perf_counter() - t0
    record(1, "harmonic ladder of the Gaussian generator",
           dev < 1e-8 and el < 5.0, f"max|lambda_k - k| = {dev:.2e}, {el:.2f}s")


def test_c02_closed_form_growth_rate(cosine_unstable_root):
    t0 = time.perf_counter()
    model, _ = cosine_unstable_root
    beta = model.beta
    roots = cosine_psi_roots(model)
    targets = [r for r in roots if beta * np.sin(beta * r) < -np.sqrt(np.e)]
    assert targets, "no branch satisfies the instability inequality"
    worst_sec = worst_abs = 0.0
    for m0 in targets:
        pipe = analyze_branch(
            build_gibbs(model, m0, GridSpec(panel_degree=60)), 40)
        closed = -1.0 - np.exp(-0.5) * beta * np.sin(beta * m0)
        lam = pipe.mode.lambda_star
        M = full_generator_matrix(pipe.spectrum, pipe.coupling)
        absc = dense_spectrum(M).abscissa
        worst_sec = max(worst_sec, abs(lam - closed))
        worst_abs = max(worst_abs, abs(absc - lam))
    el = time.perf_counter() - t0
    record(2, "closed-form growth rate of the cosine coupling",
           worst_sec < 1e-6 and worst_abs < 1e-8 and el < 10.0,
           f"{len(targets)} branches, |secular-closed| = {worst_sec:.2e}, "
           f"|abscissa-secular| = {worst_abs:.2e}, {el:.2f}s")


def test_c03_eigen_identity(cosine_unstable_root):
    t0 = time.perf_counter()
    model, m0 = cosine_unstable_root
    beta = model.beta
    gibbs = build_gibbs(model, m0, GridSpec(panel_degree=60))
    x = gibbs.rule.nodes
    got = gibbs.moment((x - beta * m0) * (np.cos(x) - m0))
    closed = -np.exp(-0.5) * np.sin(beta * m0)
    el = time.perf_counter() - t0
    record(3, "pairing of the linear mode with the coupling shape",
           abs(got - closed) < 1e-8 and el < 1.0,
           f"|quadrature-closed| = {abs(got - closed):.2e}, {el:.2f}s")


def test_c04_dawson_phase_structure():
    t0 = time.perf_counter()
    model = dawson_model(beta=1.0, sigma=0.6)
    sigma_c = critical_sigma(model, (0.1, 3.0))
    closed = 2 * math.sqrt(2.0) * math.gamma(0.75) / math.gamma(0.25)
    ok = sigma_c is not None and abs(sigma_c - closed) < 1e-8
    ok = ok and abs(sigma_c - SIGMA_C) < 1e-9

    sub = model.with_params(sigma=0.8 * sigma_c)
    rep = self_consistent_roots(sub)
    ok = ok and rep.branch_count == 3
    ok = ok and abs(rep.roots[0] + rep.roots[2]) < 1e-9
    ok = ok and rep.s0_per_root[1] > 1.0
    pipe = analyze_branch(build_gibbs(sub, 0.0), 120)
    lam_sub = pipe.mode.lambda_star
    ok = ok and lam_sub is not None and lam_sub > 0

    sup = model.with_params(sigma=1.2 * sigma_c)
    rep_sup = self_consistent_roots(sup)
    ok = ok and rep_sup.branch_count == 1
    ok = ok and rep_sup.s0_per_root[0] < 1.0
    pipe_sup = analyze_branch(build_gibbs(sup, 0.0), 120)
    lam_sup = pipe_sup.mode.lambda_star
    ok = ok and lam_sup is None
    el = time.perf_counter() - t0
    record(4, "phase structure of the double-well family",
           ok and el < 60.0,
           f"sigma_c = {sigma_c:.9f}, 3 branches below / 1 above, "
           f"rate {lam_sub:.4f} below vs absent above, {el:.1f}s")


def test_c05_selfconsistency_equivalence():
    t0 = time.perf_counter()
    md = dawson_model(beta=1.0, sigma=0.7)
    mr = rescaled_double_well_model(beta=1.0, sigma=0.7)
    dev = max(abs(psi(mr, m) - psi(md, m))
              for m in np.linspace(-0.8, 0.8, 41))
    el = time.perf_counter() - t0
    record(5, "substituted double-well residual equals the plain one",
           dev < 1e-8 and el < 30.0,
           f"max deviation over 41 points = {dev:.2e}, {el:.1f}s")


def _fp_escape_run(branch, roots, delta, t_end=60.0):
    # a stop band factor of 30 lets the full-amplitude run go on to
    # |m - m_root| = 0.3; stride counts steps of the default dt: records
    # 3.6e-2 apart
    res = escape_run(branch, roots, engine="fp", delta=delta, t_end=t_end,
                     stride=4, stop_band_factor=30.0)
    return res.series["t"], np.abs(res.series["pairing"])


def test_c06_linear_growth_rate(dawson08):
    t0 = time.perf_counter()
    lam = dawson08.mode.lambda_star
    delta = 1e-3
    roots = self_consistent_roots(dawson08.gibbs.model).roots
    times, pair = _fp_escape_run(dawson08, roots, delta)
    c0 = pair[0]
    in_win = (pair >= 2 * c0) & (pair <= 10 * c0)
    rate = fit_exp_rate(times, pair,
                        (times[in_win][0], times[in_win][-1]))
    rel = abs(rate - lam) / lam

    # linearity: at the window-entry time of the full run, halving the
    # amplitude halves the observable
    t_ref = times[in_win][0]
    times_h, pair_h = _fp_escape_run(dawson08, roots, delta / 2,
                                     t_end=t_ref + 1.0)
    v_full = float(np.interp(t_ref, times, pair))
    v_half = float(np.interp(t_ref, times_h, pair_h))
    lin = abs(v_half / v_full - 0.5) / 0.5
    el = time.perf_counter() - t0
    record(6, "mean-field escape grows at the spectral rate",
           rel <= 0.10 and lin <= 0.10 and el < 300.0,
           f"rate {rate:.5f} vs {lam:.5f} (rel {rel:.2%}), halving "
           f"response off by {lin:.2%}, {el:.0f}s")


def test_c07_particle_escape(dawson08):
    # NOTE: expected to FAIL at the stated amplitude delta = 1e-3 with
    # N = 1e5; the run is faithful to the stated parameters.
    # - Sign clause.  The prescribed seed delta*<g_M, f*> is +6.4e-4 (and
    #   the m-offset +6.0e-4).  Before the tabulated CDF was the mass left
    #   of each node, the sampled law carried -7.8e-4 and -8.2e-4, i.e.
    #   the deterministic seed had the wrong sign.  With the sampler
    #   fixed, c0 = 6.4e-4 still sits below two noise sources: the i.i.d.
    #   sampling noise of the pairing, sd_mu(f*)/sqrt(N) = 2.0e-3, and the
    #   diffusion-injection floor sigma ||f*'|| / sqrt(2 lambda N) =
    #   4.1e-3.  A seed then picks the right side with probability
    #   Phi(c0 / 4.6e-3) = 0.56, and at least 7 matches in 8 seeds have
    #   probability ~7%.
    # - Ratio clause.  W1 at t = 0 is the empirical floor of N samples,
    #   ~2.3e-3, while at the first record outside the band |m| > 1e-2
    #   W1 is itself ~1e-2, so the ratio is ~4 (3.5-7.4 over the seeds)
    #   rather than > 10.
    # The mean-field engine confirms the predicted escape in criterion 6.
    t0 = time.perf_counter()
    delta = 1e-3
    band = 10 * delta
    roots = self_consistent_roots(dawson08.gibbs.model).roots

    exits = signs_ok = ratio_ok = 0
    details = []
    for seed in range(8):
        # stride counts steps of the default dt: records 8.8e-3 apart;
        # the run stops beyond |m| = 3 bands, as the branch is m = 0
        res = escape_run(dawson08, roots, engine="particles", delta=delta,
                         t_end=40.0, stride=1, stop_band_factor=3.0,
                         n_particles=100_000, seed=seed)
        m, w1 = res.series["m"], res.series["w1"]
        out = np.abs(m) > band
        exited = bool(out.any())
        exits += exited
        sign_match = exited and (np.sign(m[-1])
                                 == np.sign(res.report["initial_pairing"]))
        signs_ok += sign_match
        ratio = float(w1[out][0] / w1[0]) if exited else 0.0
        ratio_ok += ratio > 10.0
        details.append(f"s{seed}:{'+' if sign_match else '-'}"
                       f"r{ratio:.1f}")
    el = time.perf_counter() - t0
    ok = exits == 8 and signs_ok >= 7 and ratio_ok == 8 and el < 600.0
    record(7, "interacting particles leave the unstable branch",
           ok,
           f"exits {exits}/8, sign matches {signs_ok}/8, "
           f"W1 ratio>10 in {ratio_ok}/8 [{' '.join(details)}], {el:.0f}s")


def test_c08_outer_branch_stability(dawson08):
    # the same perturbation direction that destabilizes the symmetric
    # state, applied to the outer branch (re-centered under its law)
    t0 = time.perf_counter()
    model = dawson08.gibbs.model
    rep = self_consistent_roots(model)
    m_plus = rep.roots[-1]
    s0_plus = rep.s0_per_root[-1]
    delta = 1e-3
    pert = make_perturbation(dawson08, delta=delta)
    grid = auto_grid(model, m_values=(0.0, 0.8), n_cells=1600)
    ss = discrete_stationary(model, grid, m_plus)
    h_grid = np.clip(pert.h(grid.centers), -pert.M, pert.M)
    g_M_grid = h_grid - float(np.dot(h_grid, ss.rho) * grid.dx)
    st = state_from_density(ss.rho * (1.0 + delta * g_M_grid), model, grid)
    x, ref_cdf = grid.centers, np.cumsum(ss.rho) * grid.dx
    # stride counts steps of the default dt: records 7.1e-2 apart
    series = fp_evolve(st, model, grid, t_end=10.0,
                       dt=default_dt(model, grid), stride=8,
                       observe=lambda s: {"w1": w1_density(
                           x, np.cumsum(s.rho) * grid.dx, ref_cdf)})
    w1 = series["w1"]
    ratio = float(w1.max() / w1[0])
    el = time.perf_counter() - t0
    record(8, "outer branch absorbs the same perturbation",
           s0_plus < 1.0 and ratio < 5.0 and el < 300.0,
           f"sup W1 / initial = {ratio:.2f}, S0(m_plus) = {s0_plus:.3f}, "
           f"{el:.0f}s")


def test_c09_engine_agreement(dawson08):
    # engines are compared on the relaxing trajectory from the law at
    # m = 0.5 towards the outer branch.  The interaction amplifies the
    # collective fluctuation of m_hat along this trajectory too: over 64
    # independent N = 1e4 runs, sd(m_hat) sqrt(N) rises from 0.53 at t = 0
    # to 0.8-1.0 for t >= 1, while the cross-sectional SD stays at
    # 0.45-0.50, so a bootstrap over one run's particles understates the
    # run-to-run spread by about 1.6-2x (mean-field fluctuation
    # amplification, Dawson 1983).  The compared statistic is therefore the mean of
    # independent runs, with the between-run SD as its error band.  One
    # run is not enough: the particle mean of seed 0's noise increments
    # alone drifts to -3.8 SD by t ~ 1.6.
    t0 = time.perf_counter()
    model = dawson08.gibbs.model
    n = 100_000
    n_runs = 8
    m_start = 0.5
    grid = auto_grid(model, m_values=(0.0, 0.8), n_cells=1600)
    st = init_from_model(model, grid, m_start)
    # stride counts steps of the default dt: FP records 8.9e-2 apart
    fp = fp_evolve(st, model, grid, t_end=5.0, dt=default_dt(model, grid),
                   stride=10)

    gibbs0 = build_gibbs(model, m_start)

    def run(seed):
        xs = sample_measure(gibbs0, n, seed=seed)
        # stride counts steps of the default dt: particle records 2.6e-2
        # apart
        return evolve(make_ensemble(xs, model, seed=seed), model, t_end=5.0,
                      dt=relaxation_dt_bound(model), stride=3)

    # numpy releases the GIL in the particle step, so two threads halve
    # the wall time; runs are keyed by seed and do not depend on order
    with ThreadPoolExecutor(max_workers=2) as ex:
        runs = list(ex.map(run, range(n_runs)))
    m_runs = np.array([ts["m"] for ts in runs])
    ref = np.interp(runs[0]["t"], fp["t"], fp["m"])
    se = m_runs.std(axis=0, ddof=1) / math.sqrt(n_runs)
    z = np.abs(m_runs.mean(axis=0) - ref) / se
    el = time.perf_counter() - t0
    record(9, "particle and transport engines agree on the statistic",
           float(z.max()) < 3.0 and el < 300.0,
           f"max |mean of {n_runs} runs - FP|/between-run SE = "
           f"{z.max():.2f} over t in [0,5], SE {se.min():.1e}"
           f"..{se.max():.1e}, {el:.0f}s")


def test_c10_exact_transport():
    import itertools
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        xs = rng.standard_normal(n) * rng.uniform(0.5, 3)
        ys = rng.standard_normal(n) + rng.uniform(-2, 2)
        # the oracle loops over plain floats: the same IEEE arithmetic as
        # numpy scalars, without their per-operation overhead
        xl, yl = xs.tolist(), ys.tolist()
        brute = min(sum(abs(xl[i] - yl[p[i]]) for i in range(n)) / n
                    for p in itertools.permutations(range(n)))
        worst = max(worst, abs(w1_empirical(xs, ys) - brute))
    el = time.perf_counter() - t0
    record(10, "sorted coupling solves the assignment exactly",
           worst <= 1e-12 and el < 5.0,
           f"max |quantile - assignment| = {worst:.1e} over 200 "
           f"instances, {el:.1f}s")


def test_c11_perturbation_construction(cosine_unstable_root):
    t0 = time.perf_counter()
    cos_model, cos_root = cosine_unstable_root
    setups = [
        analyze_branch(build_gibbs(
            dawson_model(beta=1.0, sigma=0.8 * SIGMA_C), 0.0), 60),
        analyze_branch(build_gibbs(cos_model, cos_root,
                                   GridSpec(panel_degree=60)), 40),
        analyze_branch(build_gibbs(rescaled_double_well_model(
            beta=1.0, sigma=0.8 * SIGMA_C), 0.0), 60),
    ]
    delta = 1e-3
    ok = True
    details = []
    for pipe in setups:
        pert = make_perturbation(pipe, delta=delta)
        mass = pert.law.moment(lambda x: np.ones_like(x))
        g_M = pert.g_M_at(pipe.gibbs.rule.nodes)
        mean_gm = pipe.gibbs.moment(g_M)
        bound = delta * pert.M
        ratio = 1.0 + delta * pert.g_M
        ok_i = (abs(mass - 1.0) < 1e-12
                and np.array_equal(pert.law.density,
                                   ratio * pipe.gibbs.density)
                and ratio.min() > 1.0 - bound - 1e-12
                and ratio.max() < 1.0 + bound + 1e-12
                and abs(mean_gm) < 1e-12
                and pert.gamma <= 0.01)
        ok = ok and ok_i
        details.append(f"{pipe.gibbs.model.name}: mass-1={abs(mass - 1):.0e} "
                       f"gamma={pert.gamma:.1e}")
    el = time.perf_counter() - t0
    record(11, "bounded-ratio perturbations are admissible on every model",
           ok and el < 5.0, "; ".join(details) + f", {el:.1f}s")


def test_c12_propagator_coherence(dawson08):
    t0 = time.perf_counter()
    M = full_generator_matrix(dawson08.spectrum, dawson08.coupling)
    f = dawson08.mode.f_star
    lam = dawson08.mode.lambda_star
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        out = linearized_propagate(M, f, t)
        ref = np.exp(lam * t) * f
        worst = max(worst, np.linalg.norm(out - ref) / np.linalg.norm(ref))
    e0 = np.zeros(M.shape[0])
    e0[0] = 1.0
    const_exact = all(np.array_equal(linearized_propagate(M, e0, t), e0)
                      for t in (0.5, 1.0, 2.0))
    el = time.perf_counter() - t0
    record(12, "matrix exponential respects the unstable mode and constants",
           worst <= 1e-8 and const_exact and el < 5.0,
           f"max relative defect {worst:.1e}, constants exact: "
           f"{const_exact}, {el:.1f}s")
