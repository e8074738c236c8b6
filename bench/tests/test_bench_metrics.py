"""run.py's per-layer arithmetic, its exit-status accounting and the
end-to-end metrics BENCHMARK.json declares."""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def fake_round(tmp_path: Path, traced: bool) -> dict:
    """One fp-escape round whose trace holds a sweep-like pool wait."""
    out = tmp_path / ("traced" if traced else "plain") / "instability-fp"
    out.mkdir(parents=True)
    (out / "instability.json").write_text(
        json.dumps({"relative_error": 2e-4}))
    if traced:
        spans = [["cli.cmd_sweep", 0.0, 10.0, -1, 1],
                 ["cli._sweep_point", 1.0, 5.0, -1, 2],
                 ["cli._sweep_point", 2.0, 9.0, -1, 3],
                 ["stationary.psi", 2.5, 3.0, 2, 3]]
        Path(str(out) + ".trace.json").write_text(json.dumps(
            {"spans": spans, "counters": {"fokkerplanck.frames_mb": 48.0,
                                          "particles.particle_updates": 0}}))
    return {"commands": [{"command": "instability", "config": "fp",
                          "out": out, "wall_s": 12.0 if traced else 10.0}],
            "wall_s": 12.0 if traced else 10.0}


def test_every_declared_per_layer_metric_is_computed(tmp_path):
    metrics = run.layer_metrics(fake_round(tmp_path, False),
                                fake_round(tmp_path, True))
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["stationary.psi.calls"] == {"value": 1, "unit": "count"}
    assert metrics["numerics.sym_eig.self_s"]["value"] == 0
    assert metrics["cli.sweep_wait_s"]["value"] == pytest.approx(8.0)
    # cmd_sweep self 10 - 0 children on its thread, minus the 8 s wait
    assert metrics["cli.self_s"]["value"] == pytest.approx(
        2.0 + 4.0 + 6.5)
    assert metrics["cli.sweep_worker_busy_s"]["value"] == pytest.approx(11.0)
    assert metrics["bench.trace_overhead_s"]["value"] == pytest.approx(2.0)
    assert metrics["cli.instability.rate_rel_err"]["value"] == 2e-4
    assert metrics["fokkerplanck.frames_mb"]["value"] == 48.0


def test_end_to_end_metrics_are_bounded_and_include_setup():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in names
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


def test_compare_outputs_ignores_only_the_manifest_timestamp(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root, stamp in ((a, "2026-01-01"), (b, "2026-01-02")):
        (root / "cmd").mkdir(parents=True)
        (root / "cmd" / "manifest.json").write_text(
            json.dumps({"command": "x", "timestamp": stamp}))
        (root / "cmd" / "report.json").write_text('{"v": 1}\n')
        (root / "cmd.log").write_text(stamp)
    assert run.compare_outputs(a, b) == []
    (b / "cmd" / "report.json").write_text('{"v": 2}\n')
    (b / "cmd" / "extra.csv").write_text("t\n")
    assert run.compare_outputs(a, b) == ["cmd/extra.csv (only one side)",
                                         "cmd/report.json"]


def test_a_failed_exit_counts_even_when_the_reports_pass(tmp_path):
    """A command can write its checked reports and then fail."""
    beta, sigma = 1.0, 0.7647820759741586
    config = tmp_path / "fp.ini"
    config.write_text(f"[model]\nbeta = {beta}\nsigma = {sigma}\n")
    out = tmp_path / "instability-fp"
    out.mkdir()
    lam = 0.18796
    (out / "instability.json").write_text(json.dumps({
        "status": "ok", "fitted_rate": lam, "lambda_star": lam,
        "initial_pairing": 6.4e-4,
        "final_branch": run.checks.dawson_outer_root(beta, sigma)}))
    rnd = {"commands": [{"command": "instability", "config": "fp",
                         "out": out, "exit": 1}]}
    results = run.check_round("fp-escape", rnd, {"fp": config})
    assert [r.passed for r in results] == [False, True, True]
