import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from mvstab import cli
from mvstab.cli import CONFIG_KEYS, load_config, main
from mvstab.model import dawson_model
from mvstab.particles import relaxation_dt_bound

from conftest import SIGMA_C_DAWSON_BETA1

BASE = """\
[mvstab]
config_version = 1
[model]
name = {name}
beta = {beta}
sigma = {sigma}
[grid]
n_nodes = 2000
[basis]
degree = {degree}
[stationary]
scan_min = -3.0
scan_max = 3.0
n_scan = 801
[perturbation]
delta = {delta}
{perturbation}
[simulation]
engine = {engine}
n_particles = {n_particles}
dt = {dt}
t_end = {t_end}
seed = 0
stride = 40
n_cells = 800
[sweep]
sigma_min = 0.6
sigma_max = 1.3
n_sigma = 8
[output]
directory = {out}
"""


def write_cfg(tmp_path, **kw):
    defaults = dict(name="dawson", beta=1.0,
                    sigma=0.8 * SIGMA_C_DAWSON_BETA1, degree=60,
                    delta=1e-3, engine="fp", n_particles=2000, dt="1e-3",
                    t_end=40.0, perturbation="", out=str(tmp_path / "out"))
    defaults.update(kw)
    p = tmp_path / "exp.ini"
    p.write_text(BASE.format(**defaults))
    return str(p)


def load_report_schema() -> dict:
    ref = resources.files("mvstab") / "schemas" / "report.schema.json"
    return json.loads(ref.read_text(encoding="utf-8"))


REPORT_SCHEMA = load_report_schema()
# every key an "ok" or "inconclusive" FP instability.json holds: the
# schema's instability properties and the envelope's version and model
INSTABILITY_KEYS = {"schema_version", "model"} | set(next(
    kind["properties"] for kind in REPORT_SCHEMA["oneOf"]
    if kind["properties"]["command"] == {"const": "instability"}))
FP_ONLY_KEYS = {"step_error", "fallback_steps", "mass_drift"}


def run(cmd, cfg, *extra):
    """Run one command and validate every JSON report it wrote against
    the shipped schema; the program itself writes them unchecked."""
    write_report, written = cli.write_report, []

    def recording_write_report(*args):
        written.append(write_report(*args))
        return written[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "write_report", recording_write_report)
        code = main([cmd, "--config", cfg, *extra])
    for path in written:
        jsonschema.validate(json.loads(Path(path).read_text()), REPORT_SCHEMA)
    return code


def run_example(cmd, tmp_path, **values):
    """Run one command on config.example.ini with the given model keys
    replaced, writing into tmp_path/out."""
    text = Path("config.example.ini").read_text()
    for key, value in values.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    cfg = tmp_path / "example.ini"
    cfg.write_text(text)
    return run(cmd, str(cfg), "--out", str(tmp_path / "out"))


def report(tmp_path, name):
    return json.loads((tmp_path / "out" / name).read_text())


def fresh_main(cfg, *commands):
    """Run the commands through main in one fresh interpreter.  Returns
    their exit codes and the jsonschema and scipy modules it loaded."""
    code = ("import json, sys; from mvstab.cli import main; "
            "codes = [main([c, '--config', sys.argv[1]]) "
            "for c in sys.argv[2:]]; "
            "print(json.dumps([codes, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('jsonschema', 'scipy'))]))")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, cfg, *commands],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


class TestConfig:
    def test_example_config_parses(self):
        cfg = load_config("config.example.ini")
        assert cfg.name == "dawson"
        assert cfg.L is None and cfg.dt is None

    def test_example_config_lists_every_key(self):
        # commented keys count too: the example documents the whole table
        shown, section = set(), None
        for line in open("config.example.ini", encoding="utf-8"):
            head = re.match(r"\[(\w+)\]", line)
            key = re.match(r"#?\s*(\w+)\s*=", line)
            if head:
                section = head.group(1)
            elif key:
                shown.add((section, key.group(1)))
        table = {(s, k) for s, keys in CONFIG_KEYS.items() for k in keys}
        assert shown == table
        # each key is one ExperimentConfig attribute, so names are unique
        assert len({k for _, k in table}) == len(table)

    def test_every_key_is_read(self):
        # a key that is parsed but never read would be ignored silently
        source = Path(cli.__file__).read_text(encoding="utf-8")
        unread = [k for keys in CONFIG_KEYS.values() for k in keys
                  if k != "config_version"
                  and not re.search(rf"\b(cfg|self)\.{k}\b", source)]
        assert unread == []

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[mvstab]\nconfig_version = 1\n[model]\nname = dawson\n"
                     "beta = 1\nturbo = yes\n")
        with pytest.raises(ValueError, match="unknown keys"):
            load_config(str(p))

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[mvstab]\nconfig_version = 1\n[models]\nname = x\n")
        with pytest.raises(ValueError, match="unknown config section"):
            load_config(str(p))

    def test_version_checked(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[mvstab]\nconfig_version = 2\n[model]\nname = dawson\n")
        with pytest.raises(ValueError, match="config_version"):
            load_config(str(p))

    def test_missing_file_is_cli_error(self, tmp_path):
        assert run("stationary", str(tmp_path / "nope.ini")) == 1

    def test_bad_engine_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, engine="quantum")
        with pytest.raises(ValueError, match="engine"):
            load_config(cfg)

    def test_zero_dt_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, dt="0", t_end=0.5)
        assert run("instability", cfg) == 1
        assert "dt: must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("simulation", "stride", "0"), ("simulation", "stride", "-3"),
        ("simulation", "n_cells", "0"), ("simulation", "n_particles", "0"),
        ("sweep", "n_sigma", "0"), ("basis", "degree", "0"),
        ("spectrum", "root", "abc"), ("simulation", "t_end", "0"),
        ("simulation", "t_end", "-1"), ("perturbation", "delta", "-1e-3"),
        ("grid", "n_nodes", "0"), ("stationary", "n_scan", "0"),
        ("simulation", "t_end", "inf"), ("simulation", "dt", "inf"),
        ("perturbation", "delta", "inf"), ("model", "beta", "nan"),
        ("model", "sigma", "inf"), ("model", "sigma", "-1"),
        ("grid", "L", "inf"), ("grid", "L", "-2"),
        ("simulation", "stop_band_factor", "0"),
        ("simulation", "stop_band_factor", "-1"),
        ("sweep", "sigma_min", "0"), ("sweep", "sigma_min", "nan"),
        ("sweep", "sigma_max", "inf"), ("sweep", "sigma_min", "1.5"),
        ("stationary", "scan_min", "-inf"), ("stationary", "scan_max", "nan"),
        ("stationary", "scan_min", "4"), ("spectrum", "root", "nan"),
        ("spectrum", "root", "inf"), ("perturbation", "M", "nan"),
        ("perturbation", "M", "inf"), ("perturbation", "M", "0"),
        ("perturbation", "M", "-1"), ("simulation", "seed", "-1"),
        ("perturbation", "direction", "adjoint-im"),
        ("stationary", "n_scan", "1"), ("simulation", "n_cells", "1")])
    def test_bad_value_rejected_naming_its_key(self, tmp_path, capsys,
                                               section, key, value):
        path = Path(write_cfg(tmp_path, t_end=0.5))
        line = f"{key} = {value}\n"
        text, found = re.subn(rf"^{key} = .*\n", line, path.read_text(),
                              flags=re.M)
        if not found:       # a key BASE omits goes under its section
            text, found = re.subn(rf"^\[{section}\]\n", rf"\g<0>{line}",
                                  text, flags=re.M)
        path.write_text(text if found else text + f"[{section}]\n{line}")
        assert run("instability", str(path)) == 1
        assert f"error: [{section}] {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key, other", [("scan_min", "scan_max"),
                                            ("scan_max", "scan_min")])
    def test_lone_scan_bound_rejected(self, tmp_path, capsys, key, other):
        # one bound alone would be dropped for the model's default window
        path = Path(write_cfg(tmp_path))
        path.write_text(re.sub(rf"^{other} = .*\n", "", path.read_text(),
                               flags=re.M))
        assert run("stationary", str(path)) == 1
        assert (f"error: [stationary] {key}: set {other} too, or neither"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("perturbation, message", [
        # the file would be silently unread
        ("custom_file = /nonexistent.csv",
         "[perturbation] custom_file: direction = adjoint-re does not read "
         "it"),
        # refused at load, not after the branch search and the spectrum
        ("direction = custom-file",
         "[perturbation] custom_file: direction = custom-file needs it")])
    def test_direction_file_mismatch_rejected(self, tmp_path, capsys,
                                              perturbation, message):
        cfg = write_cfg(tmp_path, t_end=0.5, perturbation=perturbation)
        assert run("instability", cfg) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["stationary", "spectrum"])
    def test_too_few_nodes_rejected_by_every_command(self, tmp_path, capsys,
                                                     command):
        # n_nodes = 100 at degree 120 lays out 2 panels of degree 124:
        # 248 nodes
        path = Path(write_cfg(tmp_path, degree=120))
        path.write_text(path.read_text().replace("n_nodes = 2000",
                                                 "n_nodes = 100"))
        assert run(command, str(path)) == 1
        assert "at least 256 nodes" in capsys.readouterr().err


class TestEmptyScanWindow:
    """cosine at beta = 1 has its one branch near m = 0.52, outside
    [0.9, 1.0]."""

    @staticmethod
    def cfg(tmp_path, root="all"):
        path = Path(write_cfg(tmp_path, name="cosine", beta=1.0,
                              sigma=np.sqrt(2.0), degree=40, t_end=0.5))
        text = re.sub(r"^scan_min = .*\nscan_max = .*\n",
                      "scan_min = 0.9\nscan_max = 1.0\n", path.read_text(),
                      flags=re.M)
        path.write_text(text + f"[spectrum]\nroot = {root}\n")
        return str(path)

    @pytest.mark.parametrize("command, root", [
        ("instability", "all"), ("sweep", "all"), ("spectrum", "0.95")])
    def test_command_names_the_window(self, tmp_path, capsys, command, root):
        assert run(command, self.cfg(tmp_path, root)) == 1
        err = capsys.readouterr().err
        assert "no stationary branch of cosine" in err
        assert "scan window [0.9, 1]" in err

    @pytest.mark.parametrize("command", ["stationary", "spectrum"])
    def test_empty_root_list_reported(self, tmp_path, command):
        assert run(command, self.cfg(tmp_path)) == 0
        assert report(tmp_path, f"{command}.json")["roots"] == []


class TestStationaryCommand:
    def test_three_branches_below_critical(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert run("stationary", cfg) == 0
        rep = report(tmp_path, "stationary.json")
        assert rep["branch_count"] == 3
        assert rep["sigma_c"] == pytest.approx(SIGMA_C_DAWSON_BETA1, abs=1e-6)
        assert rep["s0_per_root"][1] > 1.0
        psi = np.genfromtxt(tmp_path / "out" / "psi.csv", delimiter=",",
                            names=True)
        assert set(psi.dtype.names) == {"m", "psi"}

    def test_beta_zero_single_branch(self, tmp_path):
        cfg = write_cfg(tmp_path, beta=0.0, sigma=0.7)
        assert run("stationary", cfg) == 0
        rep = report(tmp_path, "stationary.json")
        assert rep["branch_count"] == 1
        assert rep["roots"][0] == pytest.approx(0.0, abs=1e-9)
        assert rep["sigma_c"] is None

    @pytest.mark.parametrize("factor, roots, folds", [
        (1.0, [0.0], [True]), (0.8, [-0.719, 0.0, 0.719], [False] * 3)],
        ids=["at_sigma_c", "below_sigma_c"])
    def test_fold_flagged_only_at_critical_noise(self, tmp_path, factor,
                                                 roots, folds):
        # at sigma_c the three branches merge into one root at 0 where
        # psi' = S0 - 1 vanishes; below it every root is transversal
        cfg = write_cfg(tmp_path, sigma=factor * SIGMA_C_DAWSON_BETA1)
        assert run("stationary", cfg) == 0
        rep = report(tmp_path, "stationary.json")
        assert rep["roots"] == pytest.approx(roots, abs=1e-3)
        assert rep["fold_flags"] == folds

    def test_rescaled_psi_curve_matches_dawson(self, tmp_path):
        c1 = write_cfg(tmp_path, name="dawson", sigma=0.7,
                       out=str(tmp_path / "out_d"))
        assert run("stationary", c1) == 0
        c2 = write_cfg(tmp_path, name="rescaled_double_well", sigma=0.7,
                       out=str(tmp_path / "out_r"))
        assert run("stationary", c2) == 0
        a = np.genfromtxt(tmp_path / "out_d" / "psi.csv", delimiter=",",
                          skip_header=1)
        b = np.genfromtxt(tmp_path / "out_r" / "psi.csv", delimiter=",",
                          skip_header=1)
        assert np.abs(a - b).max() < 1e-8

    def test_no_schema_check_at_run_time(self, tmp_path):
        # run() validates the reports; the program needs numpy at run
        # time and scipy only for the FP engine's dgtsv, so a fresh
        # interpreter never imports jsonschema
        codes, loaded = fresh_main(write_cfg(tmp_path), "stationary")
        assert codes == [0]
        assert "jsonschema" not in loaded

    def test_idempotent_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert run("stationary", cfg) == 0
        first = {f.name: f.read_bytes()
                 for f in (tmp_path / "out").iterdir()
                 if f.name != "manifest.json"}
        assert run("stationary", cfg) == 0
        for f in (tmp_path / "out").iterdir():
            if f.name != "manifest.json":
                assert f.read_bytes() == first[f.name]

    def test_manifest_lists_existing_files(self, tmp_path):
        cfg = write_cfg(tmp_path)
        run("stationary", cfg)
        man = report(tmp_path, "manifest.json")
        for name in man["files"]:
            assert (tmp_path / "out" / name).exists()


class TestSpectrumCommand:
    def test_dawson_verdicts_per_root(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert run("spectrum", cfg) == 0
        rep = report(tmp_path, "spectrum.json")
        by_root = {round(b["m_root"], 3): b for b in rep["roots"]}
        assert by_root[0.0]["verdict"] == "unstable"
        assert by_root[0.0]["lambda_star"] > 0
        assert by_root[0.719]["verdict"] == "stable-indicator"
        assert by_root[-0.719]["verdict"] == "stable-indicator"
        assert by_root[0.719]["lambda_star"] is None

    def test_cosine_closed_form_rate(self, tmp_path):
        cfg = write_cfg(tmp_path, name="cosine", beta=12.8,
                        sigma=np.sqrt(2.0), degree=40)
        assert run("spectrum", cfg) == 0
        rep = report(tmp_path, "spectrum.json")
        unstable = [b for b in rep["roots"] if b["verdict"] == "unstable"]
        assert unstable
        for b in unstable:
            m0 = b["m_root"]
            closed = -1.0 - np.exp(-0.5) * 12.8 * np.sin(12.8 * m0)
            assert b["lambda_star"] == pytest.approx(closed, abs=1e-6)

    def test_beta_zero_stable(self, tmp_path):
        cfg = write_cfg(tmp_path, beta=0.0, sigma=0.7)
        assert run("spectrum", cfg) == 0
        rep = report(tmp_path, "spectrum.json")
        assert rep["roots"][0]["verdict"] == "stable-indicator"
        assert rep["roots"][0]["lambda_star"] is None


class TestInstabilityCommand:
    def test_fp_engine_recovers_rate(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert run("instability", cfg) == 0
        rep = report(tmp_path, "instability.json")
        assert rep["status"] == "ok"
        assert rep["relative_error"] < 0.10
        assert rep["escape_time"] is not None
        assert abs(rep["final_branch"]) == pytest.approx(0.7193, abs=1e-3)
        # what the scheme did: every step extrapolated, mass kept
        assert rep["fallback_steps"] == 0
        assert 0.0 <= rep["mass_drift"] < 1e-12
        assert rep.keys() == INSTABILITY_KEYS
        series = np.genfromtxt(tmp_path / "out" / "series.csv",
                               delimiter=",", names=True)
        assert set(series.dtype.names) == {"t", "m", "fstar_pairing", "w1"}
        assert (tmp_path / "out" / "instability.svg").exists()

    def test_fp_rate_capped_step_resolves_a_fast_mode(self, tmp_path):
        # config.example.ini on cosine, beta = 12.8, sigma = sqrt(2):
        # lambda_star = 6.55, so the default step is capped at 2.7e-3 /
        # lambda_star, and its 1,475 steps put enough records in the fit
        # window; at 20 dx/max|b| the run would stop at its first record
        assert run_example("instability", tmp_path, name="cosine",
                           beta="12.8", sigma=repr(math.sqrt(2.0))) == 0
        rep = report(tmp_path, "instability.json")
        assert rep["status"] == "ok"
        assert rep["relative_error"] < 1e-2
        assert rep["fallback_steps"] == 0
        assert rep["dt"] * rep["lambda_star"] == pytest.approx(2.7e-3)

    def test_fp_pairing_ignores_fstar_beyond_the_nodes(self, tmp_path):
        # config.example.ini on rescaled_double_well: the FP grid reaches
        # |x| = 25.9, past the quadrature nodes' 22.26, and there the
        # degree-120 f_star grows to 2.2e32 over cells without mass;
        # taken as 0 there, the pairing starts at c0 and the rate is
        # resolved (relative error 2.65e-4)
        assert run_example("instability", tmp_path,
                           name="rescaled_double_well") == 0
        rep = report(tmp_path, "instability.json")
        assert rep["status"] == "ok"
        assert rep["relative_error"] < 1e-3
        series = np.genfromtxt(tmp_path / "out" / "series.csv",
                               delimiter=",", names=True)
        assert series["fstar_pairing"][0] == pytest.approx(
            rep["initial_pairing"], rel=1e-3)

    def test_zero_amplitude_inconclusive(self, tmp_path):
        cfg = write_cfg(tmp_path, delta=0.0, t_end=2.0)
        assert run("instability", cfg) == 2
        rep = report(tmp_path, "instability.json")
        assert rep["status"] == "inconclusive"

    def test_stable_model_reports_no_mode(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, sigma=1.2 * SIGMA_C_DAWSON_BETA1)
        assert run("instability", cfg) == 0
        rep = report(tmp_path, "instability.json")
        assert rep["status"] == "no-unstable-mode"
        assert rep.keys() == {"schema_version", "command", "model",
                              "status", "m_root"}
        assert "no unstable mode" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["fp", "particles"])
    def test_negative_seed_rejected_before_analysis(self, tmp_path, capsys,
                                                    monkeypatch, engine):
        searches = []
        monkeypatch.setattr(cli, "self_consistent_roots",
                            lambda *a, **kw: searches.append(a))
        cfg = write_cfg(tmp_path, engine=engine, t_end=0.5)
        assert run("instability", cfg, "--seed", "-1") == 1
        err = capsys.readouterr().err
        assert "error: --seed: must be a nonnegative integer" in err
        assert searches == []
        assert not (tmp_path / "out" / "instability.json").exists()

    def test_stock_particle_run_without_growth_is_inconclusive(
            self, tmp_path, capsys):
        # config.example.ini on the particle engine to t = 5: the
        # pairing's noise floor (4.6e-3) is about seven times c0, so the
        # pairing crosses the fit window [2|c0|, 10|c0|] without growing,
        # and a slope <= 0 there is no escape rate
        text = re.sub(r"(?m)^engine = fp$", "engine = particles",
                      Path("config.example.ini").read_text())
        text = re.sub(r"(?m)^t_end = .*$", "t_end = 5", text)
        cfg = tmp_path / "stock.ini"
        cfg.write_text(text)
        assert run("instability", str(cfg), "--out",
                   str(tmp_path / "out")) == 2
        assert "did not grow" in capsys.readouterr().out
        rep = report(tmp_path, "instability.json")
        assert rep["status"] == "inconclusive"
        assert rep["fitted_rate"] is None and rep["relative_error"] is None
        # the window was crossed: the slope, not the record count,
        # made the run inconclusive
        pair = np.abs(np.genfromtxt(tmp_path / "out" / "series.csv",
                                    delimiter=",", names=True)
                      ["fstar_pairing"])
        c0 = abs(rep["initial_pairing"])
        assert np.count_nonzero((pair >= 2 * c0) & (pair <= 10 * c0)) >= 3

    def test_particles_engine_runs_and_seed_changes_series(self, tmp_path):
        cfg = write_cfg(tmp_path, engine="particles", n_particles=2000,
                        dt="auto", t_end=1.0, delta=1e-2)
        guard = relaxation_dt_bound(
            dawson_model(beta=1.0, sigma=0.8 * SIGMA_C_DAWSON_BETA1))
        series = []
        for seed in ("3", "4"):
            code = run("instability", cfg, "--seed", seed)
            rep = report(tmp_path, "instability.json")
            assert (code, rep["status"]) in ((0, "ok"), (2, "inconclusive"))
            # |m| cannot reach the stop level 0.3 by t = 1, so the run
            # takes every step to t_end
            assert rep["dt"] == guard
            assert rep["steps"] == math.ceil(1.0 / guard)
            assert rep.keys() == INSTABILITY_KEYS - FP_ONLY_KEYS
            series.append((tmp_path / "out" / "series.csv").read_bytes())
        assert series[0] != series[1]


def nan_in_h(table):
    table = table.copy()
    table[5, 1] = np.nan
    return table


class TestCustomDirection:
    @staticmethod
    def custom_cfg(tmp_path, M, header="x,h", spoil=lambda table: table):
        x = np.linspace(-3.0, 3.0, 121)
        path = tmp_path / "dir.csv"
        np.savetxt(path, spoil(np.column_stack([x, x + 0.3 * x ** 2])),
                   delimiter=",", header=header, comments="")
        return write_cfg(tmp_path, t_end=20.0, perturbation=(
            f"direction = custom-file\ncustom_file = {path}\nM = {M}"))

    def test_csv_direction_runs(self, tmp_path):
        assert run("instability", self.custom_cfg(tmp_path, "auto")) in (0, 2)
        rep = report(tmp_path, "instability.json")
        assert rep["status"] in ("ok", "inconclusive")
        assert rep["initial_pairing"] != 0.0

    def test_zero_truncation_level_rejected(self, tmp_path, capsys):
        assert run("instability", self.custom_cfg(tmp_path, "0")) == 1
        assert ("error: [perturbation] M: must be positive or auto, got '0'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("header, spoil, problem", [
        ("x,h", lambda table: table[::-1], "needs x strictly increasing"),
        ("y,h", lambda table: table, "needs the columns x and h"),
        ("x,h", nan_in_h, "holds a value that is not finite")],
        ids=["x-decreasing", "no-x-column", "nan-in-h"])
    def test_malformed_file_rejected(self, tmp_path, capsys, header, spoil,
                                     problem):
        cfg = self.custom_cfg(tmp_path, "auto", header, spoil)
        assert run("instability", cfg) == 1
        path = tmp_path / "dir.csv"
        assert (f"error: custom_file {str(path)!r} {problem}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out" / "instability.json").exists()

    @pytest.mark.parametrize("text, problem", [
        (None, "cannot be read: No such file or directory"),
        ("", "is empty"), ("#\n", "is empty")],
        ids=["missing", "empty", "comment-mark-only"])
    def test_unreadable_file_rejected_before_analysis(
            self, tmp_path, capsys, monkeypatch, text, problem):
        searches = []
        monkeypatch.setattr(cli, "self_consistent_roots",
                            lambda *a, **kw: searches.append(a))
        path = tmp_path / "dir.csv"
        if text is not None:
            path.write_text(text)
        cfg = write_cfg(tmp_path, t_end=0.5, perturbation=(
            f"direction = custom-file\ncustom_file = {path}"))
        assert run("instability", cfg) == 1
        assert (f"error: custom_file {str(path)!r} {problem}"
                in capsys.readouterr().err)
        assert searches == []


class TestSweepCommand:
    def test_branch_structure_and_rate_columns(self, tmp_path):
        cfg = write_cfg(tmp_path)
        assert run("sweep", cfg) == 0
        rows = np.genfromtxt(tmp_path / "out" / "sweep.csv", delimiter=",",
                             names=True)
        assert rows["sigma"].size == 8
        below = rows["sigma"] < SIGMA_C_DAWSON_BETA1
        assert np.all(rows["branch_count"][below] == 3)
        assert np.all(rows["branch_count"][~below] == 1)
        # the growth rate is present exactly where the indicator is
        # supercritical
        has_rate = ~np.isnan(rows["lambda_star"])
        assert np.array_equal(has_rate, rows["s0_zero"] > 1.0)
        assert np.all(rows["lambda_star"][has_rate] > 0)
        rep = report(tmp_path, "sweep.json")
        assert rep["sigma_c"] == pytest.approx(SIGMA_C_DAWSON_BETA1, abs=1e-6)

    def test_beta_zero_single_branch_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, beta=0.0, sigma=0.7)
        assert run("sweep", cfg) == 0
        rows = np.genfromtxt(tmp_path / "out" / "sweep.csv", delimiter=",",
                             names=True)
        assert np.all(rows["branch_count"] == 1)
        assert np.abs(rows["m_zero"]).max() < 1e-9
        assert report(tmp_path, "sweep.json")["sigma_c"] is None

    def test_failed_analysis_names_its_sigma(self, tmp_path, monkeypatch,
                                             capsys):
        # a branch analysis that fails at one noise level stops the sweep
        # instead of turning that row's lambda_star into NaN
        analyze, seen = cli._analyze, []

        def failing_third_point(model, m_root, cfg):
            seen.append(model.sigma)
            if len(seen) == 3:
                raise ValueError("inconsistent discretization")
            return analyze(model, m_root, cfg)

        monkeypatch.setattr(cli, "_analyze", failing_third_point)
        assert run("sweep", write_cfg(tmp_path)) == 1
        err = capsys.readouterr().err
        assert f"sigma={seen[-1]:g}" in err
        assert "inconsistent discretization" in err
        assert not (tmp_path / "out" / "sweep.json").exists()

    def test_thread_variable_not_read(self, tmp_path, monkeypatch):
        # the sweep runs its points in order on one thread and reads no
        # environment variable
        monkeypatch.setenv("MVSTAB_THREADS", "abc")
        assert run("sweep", write_cfg(tmp_path)) == 0


class TestMainEntry:
    def test_usage_error_maps_to_one(self):
        assert main(["stationary"]) == 1     # --config missing

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("command", ["stationary", "spectrum",
                                         "instability", "sweep"])
    def test_command_looked_up_on_the_module(self, tmp_path, monkeypatch,
                                             command):
        # bench/tracer.py rebinds cli.cmd_* after import, so main must run
        # what the module holds when it is called
        seen = []
        monkeypatch.setattr(cli, f"cmd_{command}",
                            lambda cfg: seen.append(cfg.name) or 7)
        assert main([command, "--config", write_cfg(tmp_path)]) == 7
        assert seen == ["dawson"]


class TestStartUpImports:
    """scipy costs a fresh process most of its start-up, so only the FP
    engine's tridiagonal solve imports it."""

    def test_no_scipy_outside_the_fp_engine(self, tmp_path):
        cfg = write_cfg(tmp_path, engine="particles", n_particles=2000,
                        dt="auto", t_end=0.5)
        codes, loaded = fresh_main(cfg, "stationary", "spectrum",
                                   "instability")
        assert codes[:2] == [0, 0] and codes[2] in (0, 2)
        assert loaded == []

    def test_fp_engine_loads_scipy_linalg_only(self, tmp_path):
        codes, loaded = fresh_main(write_cfg(tmp_path, t_end=0.5),
                                   "instability")
        assert codes[0] in (0, 2)
        assert "scipy.linalg" in loaded
        assert [m for m in loaded if m.startswith("scipy.interpolate")] == []
