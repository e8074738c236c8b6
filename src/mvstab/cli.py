"""Config-driven command line drive of the full analysis pipeline.

Four subcommands cover the workflow:

    mvstab stationary  --config c.ini [--out DIR]   branches and psi curve
    mvstab spectrum    --config c.ini [--out DIR]   spectral verdict per branch
    mvstab instability --config c.ini [--out DIR] [--seed S]   escape run
    mvstab sweep       --config c.ini [--out DIR]   bifurcation table over sigma

Configs are flat INI files (documented in the shipped config.example.ini)
whose keys, defaults and checks all live in ``CONFIG_KEYS``; unknown
sections or keys are rejected.  Reports are JSON in the format that
the schema shipped with the package describes (the test suite validates
every report kind against it), tables are plain CSV, plots static SVG.
Exit codes: 0 success, 2 inconclusive run, 1 error.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import __version__
from .model import BUILTIN_MODELS, ScalarMeanFieldModel, build_model
from .spectrum import analyze_branch, secular_function
from .stationary import (GridSpec, build_gibbs, critical_sigma, psi,
                         self_consistent_roots)

SCHEMA_VERSION = "1"


def _optional(parse):
    return lambda raw: None if raw is None else parse(raw)


def _auto(parse):
    return lambda raw: None if raw == "auto" else parse(raw)


def _choice(*allowed):
    def parse(raw):
        if raw not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, "
                             f"got {raw!r}")
        return raw
    return parse


def _finite(parse):
    def check(raw):
        value = parse(raw)
        if not math.isfinite(value):
            raise ValueError(f"must be finite, got {raw!r}")
        return value
    return check


def _positive(parse, noun, zero_ok=False):
    finite = _finite(parse)

    def check(raw):
        value = finite(raw)
        if not (value > 0 or zero_ok and value == 0):
            raise ValueError(f"must be {noun}, got {raw!r}")
        return value
    return check


_count = _positive(int, "a positive integer")
_positive_float = _positive(float, "positive")


# section -> key -> (parser that also checks the value, default as it would
# be written in the file).  Key names are unique across sections; each
# becomes one ExperimentConfig attribute.
CONFIG_KEYS = {
    "mvstab": {"config_version": (_choice("1"), None)},
    "model": {"name": (_choice(*sorted(BUILTIN_MODELS)), None),
              "beta": (_finite(float), "1.0"),
              "sigma": (_optional(_positive_float), None)},
    "grid": {"L": (_auto(_positive(float, "positive or auto")), "auto"),
             "n_nodes": (_count, "3200")},
    "basis": {"degree": (_count, "120")},
    "stationary": {"scan_min": (_optional(_finite(float)), None),
                   "scan_max": (_optional(_finite(float)), None),
                   "n_scan": (_count, "2001")},
    "spectrum": {"root": (lambda raw: raw if raw == "all"
                          else _finite(float)(raw), "all")},
    "perturbation": {
        "delta": (_positive(float, "nonnegative", zero_ok=True), "1e-3"),
        "M": (_auto(_positive(float, "positive or auto")), "auto"),
        "direction": (_choice("adjoint-re", "custom-file"), "adjoint-re"),
        "custom_file": (_optional(str), None)},
    "simulation": {"engine": (_choice("fp", "particles"), "fp"),
                   "n_particles": (_count, "100000"),
                   "dt": (_auto(_positive(float, "positive or auto")), "auto"),
                   "t_end": (_positive_float, "40.0"),
                   "seed": (_positive(int, "a nonnegative integer",
                                      zero_ok=True), "0"),
                   "stride": (_count, "25"),
                   "n_cells": (_count, "1600"),
                   "stop_band_factor": (_positive_float, "3.0")},
    "sweep": {"sigma_min": (_positive_float, "0.3"),
              "sigma_max": (_positive_float, "1.3"),
              "n_sigma": (_count, "21")},
    "output": {"directory": (str, "out")},
}


class ExperimentConfig(SimpleNamespace):
    """Validated contents of one INI experiment file: one attribute per
    key of ``CONFIG_KEYS``, named after the key."""

    @property
    def scan_range(self) -> tuple[float, float] | None:
        # load_config admits both bounds or neither
        if self.scan_min is None:
            return None
        return (self.scan_min, self.scan_max)

    def build(self) -> ScalarMeanFieldModel:
        return build_model(self.name, beta=self.beta, sigma=self.sigma)

    def grid_spec(self) -> GridSpec:
        panel_degree = max(self.degree + 4, 32)
        n_panels = max(2, math.ceil(self.n_nodes / panel_degree))
        return GridSpec(L=self.L, n_panels=n_panels,
                        panel_degree=panel_degree)


def load_config(path: str) -> ExperimentConfig:
    cp = configparser.ConfigParser()
    cp.optionxform = str        # keys are case-sensitive ("L", "M")
    if not cp.read(path):
        raise ValueError(f"config file {path!r} not found or unreadable")
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ValueError(f"unknown config section [{section}]")
        extra = set(cp.options(section)) - set(CONFIG_KEYS[section])
        if extra:
            raise ValueError(
                f"unknown keys {sorted(extra)} in section [{section}]")
    values = {}
    for section, keys in CONFIG_KEYS.items():
        for key, (parse, default) in keys.items():
            try:
                values[key] = parse(cp.get(section, key, fallback=default))
            except ValueError as exc:
                raise ValueError(f"[{section}] {key}: {exc}") from None
    for key, other in (("scan_min", "scan_max"), ("scan_max", "scan_min")):
        if values[key] is not None and values[other] is None:
            raise ValueError(f"[stationary] {key}: set {other} too, or "
                             "neither")
    custom = values["direction"] == "custom-file"
    if custom != (values["custom_file"] is not None):
        raise ValueError("[perturbation] custom_file: " + (
            "direction = custom-file needs it" if custom
            else "direction = adjoint-re does not read it"))
    for section, lo, hi in (("stationary", "scan_min", "scan_max"),
                            ("sweep", "sigma_min", "sigma_max")):
        if None not in (values[lo], values[hi]) and values[lo] >= values[hi]:
            raise ValueError(f"[{section}] {lo}: must be below {hi} = "
                             f"{values[hi]:g}, got {values[lo]:g}")
    return ExperimentConfig(**values)


def _write_json(path: str, payload: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_report(out_dir: str, name: str, payload: dict) -> str:
    return _write_json(os.path.join(out_dir, name),
                       {"schema_version": SCHEMA_VERSION, **payload})


def write_csv(out_dir: str, name: str, header: list[str],
              columns: list[np.ndarray]) -> str:
    path = os.path.join(out_dir, name)
    arr = np.column_stack(columns)
    np.savetxt(path, arr, delimiter=",", header=",".join(header),
               comments="", fmt="%.17g")
    return path


def write_manifest(out_dir: str, command: str, files: list[str]):
    _write_json(os.path.join(out_dir, "manifest.json"),
                {"command": command, "version": __version__,
                 "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                 "files": sorted(os.path.basename(f) for f in files)})


def svg_line_plot(path: str, title: str, xlabel: str, ylabel: str,
                  series: list[tuple[str, np.ndarray, np.ndarray]],
                  logy: bool = False):
    """Minimal static SVG polyline plot (no third-party plotting)."""
    width, height = 720, 440
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    mleft, mright, mtop, mbot = 70, 20, 40, 50
    pw, ph = width - mleft - mright, height - mtop - mbot

    xs = [np.asarray(x, dtype=float) for _, x, _ in series]
    ys = [np.asarray(y, dtype=float) for _, _, y in series]
    if logy:
        ys = [np.log10(np.maximum(y, 1e-300)) for y in ys]
    xs_all = np.concatenate([x[np.isfinite(x)] for x in xs])
    ys_all = np.concatenate([y[np.isfinite(y)] for y in ys])
    x0, x1 = float(xs_all.min()), float(xs_all.max())
    y0, y1 = float(ys_all.min()), float(ys_all.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return mleft + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return mtop + (1.0 - (y - y0) / (y1 - y0)) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{title}</text>',
        f'<rect x="{mleft}" y="{mtop}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333"/>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{height - 30}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{xv:.3g}</text>')
        lab = 10 ** yv if logy else yv
        parts.append(
            f'<text x="{mleft - 6}" y="{sy(yv):.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{lab:.3g}</text>')
        parts.append(f'<line x1="{mleft}" y1="{sy(yv):.1f}" x2="{width - mright}" '
                     f'y2="{sy(yv):.1f}" stroke="#ddd"/>')
    parts.append(
        f'<text x="{width / 2}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12" font-family="sans-serif">{xlabel}</text>')
    parts.append(
        f'<text x="16" y="{height / 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {height / 2})">'
        f'{ylabel}</text>')
    for k, ((name, _, _), x, y) in enumerate(zip(series, xs, ys)):
        ok = np.isfinite(x) & np.isfinite(y)
        pts = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in
                       zip(x[ok], y[ok]))
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - mright - 10}" y="{mtop + 16 + 16 * k}" '
                     f'text-anchor="end" font-size="11" fill="{color}" '
                     f'font-family="sans-serif">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def _branches(model: ScalarMeanFieldModel, cfg: ExperimentConfig,
              n_scan: int):
    """The branch search over the config's scan window and grid."""
    return self_consistent_roots(model, scan_range=cfg.scan_range,
                                 n_scan=n_scan, grid_spec=cfg.grid_spec())


def _require_branch(rep, model: ScalarMeanFieldModel):
    """Refuse a branch search that found nothing, naming its window."""
    if not rep.roots:
        lo, hi = rep.scan_range
        raise ValueError(
            f"no stationary branch of {model.name} at sigma={model.sigma:g} "
            f"in the scan window [{lo:g}, {hi:g}]; widen scan_min/scan_max")


def _analyze(model, m_root, cfg: ExperimentConfig):
    return analyze_branch(build_gibbs(model, m_root, cfg.grid_spec()),
                          cfg.degree)


def _finish(cfg: ExperimentConfig, command: str,
            model: ScalarMeanFieldModel, report: dict, files: list[str]):
    """Write <command>.json, the report with the command and model
    blocks added, then the manifest over it and ``files``."""
    files.append(write_report(cfg.directory, f"{command}.json", {
        "command": command,
        "model": {"name": model.name, "beta": model.beta,
                  "sigma": model.sigma},
        **report}))
    write_manifest(cfg.directory, command, files)


def cmd_stationary(cfg: ExperimentConfig) -> int:
    model = cfg.build()
    rep = _branches(model, cfg, cfg.n_scan)
    sigma_c = critical_sigma(model, (0.1 * model.sigma, 3.0 * model.sigma),
                             grid_spec=cfg.grid_spec())
    ms = np.linspace(*rep.scan_range, min(cfg.n_scan, 401))
    files = [write_csv(cfg.directory, "psi.csv", ["m", "psi"],
                       [ms, np.array([psi(rep.family, m) for m in ms])])]
    _finish(cfg, "stationary", model, {
        "roots": list(map(float, rep.roots)),
        "s0_per_root": list(map(float, rep.s0_per_root)),
        "fold_flags": list(map(bool, rep.fold_flags)),
        "branch_count": rep.branch_count,
        "sigma_c": sigma_c,
    }, files)
    return 0


def cmd_spectrum(cfg: ExperimentConfig) -> int:
    model = cfg.build()
    rep = _branches(model, cfg, cfg.n_scan)
    if cfg.root == "all":
        targets = rep.roots
    else:
        _require_branch(rep, model)
        targets = [min(rep.roots, key=lambda r: abs(r - cfg.root))]
    blocks, files = [], []
    for i, m_root in enumerate(targets):
        br = _analyze(model, m_root, cfg)
        spectrum, coupling, mode = br.spectrum, br.coupling, br.mode
        lams = np.linspace(0.0, max(1.0, 3 * spectrum.values[1]), 201)
        svals = [secular_function(spectrum, coupling, l) for l in lams]
        files.append(write_csv(cfg.directory, f"secular_root{i}.csv",
                               ["lambda", "S"], [lams, np.array(svals)]))
        blocks.append({
            "m_root": float(m_root),
            "lambda_i": [float(v) for v in spectrum.values[:13]],
            "S0": float(svals[0]),      # S at lams[0] = 0
            "lambda_star": None if mode.lambda_star is None
            else float(mode.lambda_star),
            "lambda0": {"re": mode.lambda0, "im": 0.0},
            "k0": mode.k0,
            "verdict": mode.verdict,
            "f_star": None if mode.f_star is None
            else [float(v) for v in mode.f_star],
        })
    _finish(cfg, "spectrum", model, {"roots": blocks}, files)
    return 0


def cmd_instability(cfg: ExperimentConfig) -> int:
    # imported here: escape brings in both engines, which no other
    # command runs
    from .escape import escape_run

    model = cfg.build()
    rep = _branches(model, cfg, cfg.n_scan)
    _require_branch(rep, model)
    order = np.argsort(rep.s0_per_root)[::-1]
    m_root = rep.roots[int(order[0])]
    branch = _analyze(model, m_root, cfg)
    if branch.mode.verdict != "unstable":
        _finish(cfg, "instability", model, {"status": "no-unstable-mode",
                                            "m_root": float(m_root)}, [])
        print("no unstable mode: every branch has a nonpositive "
              "spectral abscissa")
        return 0

    res = escape_run(branch, rep.roots, engine=cfg.engine, delta=cfg.delta,
                     t_end=cfg.t_end, stride=cfg.stride,
                     stop_band_factor=cfg.stop_band_factor, dt=cfg.dt,
                     n_cells=cfg.n_cells, n_particles=cfg.n_particles,
                     seed=cfg.seed, direction=cfg.direction, M=cfg.M,
                     custom_file=cfg.custom_file)
    t, m, pair, w1 = (res.series.times, res.series["m"],
                      res.series["pairing"], res.series["w1"])
    files = [write_csv(cfg.directory, "series.csv",
                       ["t", "m", "fstar_pairing", "w1"], [t, m, pair, w1])]
    files.append(svg_line_plot(
        os.path.join(cfg.directory, "instability.svg"),
        f"escape from the branch at m={res.m_center:.4g}", "t", "value",
        [("|pairing|", t, np.abs(pair)),
         ("|m - m_root|", t, np.abs(m - res.m_center)),
         ("W1", t, w1)], logy=True))
    report = {
        "status": res.status,
        "m_root": float(m_root),
        "engine": cfg.engine,
        "delta": cfg.delta,
        "seed": cfg.seed,
        "lambda_star": float(branch.mode.lambda_star),
        "initial_pairing": res.initial_pairing,
        "fitted_rate": res.fitted_rate,
        "relative_error": res.relative_error,
        "escape_time": res.escape_time,
        "final_branch": res.final_branch,
        "w1_initial": float(w1[0]),
        "w1_final": float(w1[-1]),
        "w1_at_escape": res.w1_at_escape,
        "dt": res.dt,
        "steps": res.steps,
    }
    if cfg.engine == "fp":
        report.update(step_error=res.step_error,
                      fallback_steps=res.fallback_steps,
                      mass_drift=res.mass_drift)
    _finish(cfg, "instability", model, report, files)
    if res.status == "inconclusive":
        print("inconclusive: the pairing did not grow across the fit "
              "window [2|c0|, 10|c0|] (fewer than three records in it, or "
              "a fitted slope <= 0)")
        return 2
    return 0


def _sweep_point(model, sigma, cfg):
    mdl = model.with_params(sigma=sigma)
    rep = _branches(mdl, cfg, max(401, cfg.n_scan // 4))
    _require_branch(rep, mdl)
    m0 = min(rep.roots, key=abs)
    s0 = rep.s0_per_root[rep.roots.index(m0)]
    try:
        lam = _analyze(mdl, m0, cfg).mode.lambda_star
    except ValueError as exc:
        raise ValueError(f"sweep point sigma={sigma:g}: {exc}") from None
    m_plus = max(rep.roots)
    m_minus = min(rep.roots)
    return {
        "sigma": sigma,
        "branch_count": rep.branch_count,
        "m_minus": m_minus if rep.branch_count > 1 else np.nan,
        "m_zero": m0,
        "m_plus": m_plus if rep.branch_count > 1 else np.nan,
        "s0_zero": s0,
        "lambda_star": np.nan if lam is None else lam,
    }


def cmd_sweep(cfg: ExperimentConfig) -> int:
    model = cfg.build()
    sigmas = np.linspace(cfg.sigma_min, cfg.sigma_max, cfg.n_sigma)
    rows = [_sweep_point(model, float(s), cfg) for s in sigmas]
    cols = ["sigma", "branch_count", "m_minus", "m_zero", "m_plus",
            "s0_zero", "lambda_star"]
    files = [write_csv(cfg.directory, "sweep.csv", cols,
                       [np.array([r[c] for r in rows]) for c in cols])]
    sigma_c = critical_sigma(model, (cfg.sigma_min, cfg.sigma_max),
                             grid_spec=cfg.grid_spec())
    files.append(svg_line_plot(
        os.path.join(cfg.directory, "sweep.svg"),
        "branch structure over the noise level", "sigma", "m, S0",
        [("m_plus", sigmas, np.array([r["m_plus"] for r in rows])),
         ("S0(0)", sigmas, np.array([r["s0_zero"] for r in rows]))]))
    _finish(cfg, "sweep", model, {"sigma_c": sigma_c, "n_points": len(rows)},
            files)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mvstab",
        description="stability analysis of stationary states of 1-D "
                    "mean-field SDEs")
    parser.add_argument("command",
                        choices=["stationary", "spectrum", "instability",
                                 "sweep"])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None,
                        help="output directory (default from config)")
    parser.add_argument("--seed", default=None,
                        help="override the simulation seed")
    try:
        args = parser.parse_args(argv)
    except SystemExit as se:
        # keep exit code 2 reserved for inconclusive runs
        return 0 if se.code == 0 else 1
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.directory = args.out
        if args.seed is not None:
            try:
                cfg.seed = CONFIG_KEYS["simulation"]["seed"][0](args.seed)
            except ValueError as exc:
                raise ValueError(f"--seed: {exc}") from None
        os.makedirs(cfg.directory, exist_ok=True)
        # looked up at call time, so that a cmd_* rebound on the module
        # (as bench/tracer.py does) is the one that runs
        return globals()[f"cmd_{args.command}"](cfg)
    except Exception as exc:     # noqa: BLE001 - single CLI error funnel
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
