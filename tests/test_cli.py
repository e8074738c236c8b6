import json
import re
from pathlib import Path

import numpy as np
import pytest

from mvstab.cli import CONFIG_KEYS, load_config, load_report_schema, main

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


def run(cmd, cfg, *extra):
    return main([cmd, "--config", cfg, *extra])


def report(tmp_path, name):
    return json.loads((tmp_path / "out" / name).read_text())


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
        ("spectrum", "root", "abc")])
    def test_bad_value_rejected_naming_its_key(self, tmp_path, capsys,
                                               section, key, value):
        path = Path(write_cfg(tmp_path, t_end=0.5))
        line = f"{key} = {value}\n"
        text, found = re.subn(rf"^{key} = .*\n", line, path.read_text(),
                              flags=re.M)
        path.write_text(text if found else text + f"[{section}]\n{line}")
        assert run("instability", str(path)) == 1
        assert f"error: [{section}] {key}: " in capsys.readouterr().err


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

    def test_schema_validates(self, tmp_path):
        import jsonschema
        cfg = write_cfg(tmp_path)
        run("stationary", cfg)
        jsonschema.validate(report(tmp_path, "stationary.json"),
                            load_report_schema())

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
        series = np.genfromtxt(tmp_path / "out" / "series.csv",
                               delimiter=",", names=True)
        assert set(series.dtype.names) == {"t", "m", "fstar_pairing", "w1"}
        assert (tmp_path / "out" / "instability.svg").exists()

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
        assert "no unstable mode" in capsys.readouterr().out

    def test_particles_engine_runs_and_seed_changes_series(self, tmp_path):
        cfg = write_cfg(tmp_path, engine="particles", n_particles=2000,
                        dt="auto", t_end=1.0, delta=1e-2)
        code = run("instability", cfg, "--seed", "3")
        assert code in (0, 2)
        a = (tmp_path / "out" / "series.csv").read_bytes()
        code = run("instability", cfg, "--seed", "4")
        assert code in (0, 2)
        b = (tmp_path / "out" / "series.csv").read_bytes()
        assert a != b


class TestCustomDirection:
    @staticmethod
    def custom_cfg(tmp_path, M):
        x = np.linspace(-3.0, 3.0, 121)
        path = tmp_path / "dir.csv"
        np.savetxt(path, np.column_stack([x, x + 0.3 * x ** 2]),
                   delimiter=",", header="x,h", comments="")
        return write_cfg(tmp_path, t_end=20.0, perturbation=(
            f"direction = custom-file\ncustom_file = {path}\nM = {M}"))

    def test_csv_direction_runs(self, tmp_path):
        assert run("instability", self.custom_cfg(tmp_path, "auto")) in (0, 2)
        rep = report(tmp_path, "instability.json")
        assert rep["status"] in ("ok", "inconclusive")
        assert rep["initial_pairing"] != 0.0

    def test_zero_truncation_level_rejected(self, tmp_path, capsys):
        assert run("instability", self.custom_cfg(tmp_path, "0")) == 1
        assert "truncation level M must be positive" in capsys.readouterr().err


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


class TestMainEntry:
    def test_usage_error_maps_to_one(self):
        assert main(["stationary"]) == 1     # --config missing

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
