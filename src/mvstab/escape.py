"""Escape of a perturbed stationary branch, run on either engine: the
transport solver ("fp") or the interacting particles ("particles").
``escape_run`` owns the run's report: it returns the record arrays and
the run's block of ``instability.json``, which the CLI writes as is."""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .fokkerplanck import (auto_grid, default_dt, discrete_stationary,
                           fp_evolve, state_from_density)
from .metrics import empirical_cdf, w1_density
from .numerics import fit_exp_rate
from .particles import evolve, make_ensemble, relaxation_dt_bound
from .perturb import make_perturbation, sample_measure
from .spectrum import BranchAnalysis


@dataclass(frozen=True)
class EscapeResult:
    """What one escape run measured.

    ``series`` is the engine's record: arrays keyed ``t``, ``m``,
    ``pairing`` (f_star pairing minus its value on the branch), ``w1``
    (transport distance to the branch) and, on "fp", ``step_error``,
    ``fallback_steps`` and ``mass_drift``.  ``m_center`` is the engine's
    own branch statistic: the discrete steady state for "fp", the root
    for "particles".  ``report`` is the run's block of
    ``instability.json``: the rate fields are None when inconclusive,
    the escape fields None without escape, and "fp" adds its account of
    the run: the last ``step_error`` (the largest local error estimate
    of ``FpStepper.step``) and ``fallback_steps``, the largest
    ``mass_drift``.
    """

    series: dict[str, np.ndarray]
    m_center: float
    report: dict


def escape_run(branch: BranchAnalysis, roots, *, engine: str, delta: float,
               t_end: float, stride: int, stop_band_factor: float = 3.0,
               dt: float | None = None, n_cells: int = 1600,
               n_particles: int = 100_000, seed: int = 0,
               direction: str = "adjoint-re", M: float | None = None,
               custom_file: str | None = None) -> EscapeResult:
    """Perturb an unstable branch by delta, run one engine, fit the rate.

    ``direction``, ``M`` and ``custom_file`` select the perturbation as
    in ``make_perturbation``: "particles" samples its law, "fp" weights
    the steady cells by 1 + delta ``g_M_at``, and f_star reads 0 beyond
    the quadrature nodes on both.  ``roots`` are all stationary branches of
    the model; they size the transport grid and name the branch the run
    approaches.  The run escapes when |m - m_center| leaves the band
    10 delta and stops beyond ``stop_band_factor`` bands.  The rate is
    fitted while |pairing| crosses [2|c0|, 10|c0|], c0 = delta <g_M,
    f_star> being the predicted initial pairing; fewer than three
    records there, or a fitted slope <= 0, make the run "inconclusive".
    ``dt=None`` picks each engine's default step, for "fp" with its
    growth-rate cap at lambda_star; ``n_cells`` applies to "fp",
    ``n_particles`` and ``seed`` to "particles".
    """
    pert = make_perturbation(branch, delta, direction=direction, M=M,
                             custom_file=custom_file)
    gibbs, model = branch.gibbs, branch.gibbs.model
    nodes = gibbs.rule.nodes
    fstar_nodes = branch.fstar_at(nodes)
    c0 = delta * gibbs.moment(pert.g_M * fstar_nodes)
    band = 10.0 * delta
    stop_level = stop_band_factor * band

    if engine == "fp":
        grid = auto_grid(model, m_values=tuple(roots) + (0.0,),
                         n_cells=n_cells)
        ss = discrete_stationary(model, grid, gibbs.m)
        m_center, x, dx = ss.m, grid.centers, grid.dx
        fstar_x = branch.fstar_at(x)
        ref_cdf = np.cumsum(ss.rho) * dx
        fstar_ref = float(np.dot(fstar_x, ss.rho) * dx)

        def observe(s):
            return {"pairing": float(np.dot(fstar_x, s.rho) * dx) - fstar_ref,
                    "w1": w1_density(x, np.cumsum(s.rho) * dx, ref_cdf)}
        rho0 = ss.rho * (1.0 + delta * pert.g_M_at(x))
        if dt is None:
            dt = default_dt(model, grid, rate=branch.mode.lambda_star)
        run = partial(fp_evolve, state_from_density(rho0, model, grid),
                      model, grid)
    elif engine == "particles":
        m_center, ref_cdf = gibbs.m, gibbs.cdf
        fstar_ref = gibbs.moment(fstar_nodes)

        def observe(e):
            # one sort serves both channels; interp is an order of
            # magnitude faster on sorted positions.  Beyond the nodes
            # f_star reads 0, as ``fstar_at`` does
            s = np.sort(e.positions)
            pairing = float(np.mean(np.interp(s, nodes, fstar_nodes,
                                              left=0.0, right=0.0)))
            return {"pairing": pairing - fstar_ref,
                    "w1": w1_density(nodes, empirical_cdf(s, nodes), ref_cdf)}
        xs = sample_measure(pert.law, n_particles, seed=seed)
        dt = relaxation_dt_bound(model) if dt is None else dt
        run = partial(evolve, make_ensemble(xs, model, seed=seed), model)
    else:
        raise ValueError(f"engine must be fp or particles, got {engine!r}")
    series = run(t_end=t_end, dt=dt, observe=observe, stride=stride,
                 stop_condition=lambda t, m: abs(m - m_center) > stop_level)
    t, m, pair, w1 = (series[k] for k in ("t", "m", "pairing", "w1"))

    escape = np.abs(m - m_center) > band
    side = np.sign(m[-1] - m_center)
    same_side = [r for r in roots
                 if abs(r - gibbs.m) > band and np.sign(r - m_center) == side]
    if escape.any() and same_side:
        # the branch being approached on the departure side
        final_branch = float(min(same_side, key=lambda r: abs(r - m_center)))
    else:
        final_branch = float(min(roots, key=lambda r: abs(r - m[-1])))

    apair = np.abs(pair)
    window = (apair >= 2 * abs(c0)) & (apair <= 10 * abs(c0))
    slope = (fit_exp_rate(t, apair, (float(t[window][0]),
                                     float(t[window][-1])))
             if c0 != 0 and window.sum() >= 3 else 0.0)
    # a pairing that does not grow across the window has no rate
    ok, lam = slope > 0, branch.mode.lambda_star
    report = {
        "status": "ok" if ok else "inconclusive",
        "initial_pairing": float(c0),
        "fitted_rate": slope if ok else None,
        "relative_error": abs(slope - lam) / lam if ok else None,
        "escape_time": float(t[escape][0]) if escape.any() else None,
        "w1_at_escape": float(w1[escape][0]) if escape.any() else None,
        "final_branch": final_branch,
        "w1_initial": float(w1[0]), "w1_final": float(w1[-1]),
        "dt": dt, "steps": int(round(t[-1] / dt))}
    if engine == "fp":
        report.update(step_error=float(series["step_error"][-1]),
                      fallback_steps=int(series["fallback_steps"][-1]),
                      mass_drift=float(series["mass_drift"].max()))
    return EscapeResult(series=series, m_center=float(m_center),
                        report=report)
