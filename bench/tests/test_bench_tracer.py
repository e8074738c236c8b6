"""The tracer's span bookkeeping and its rebinding of mvstab names."""
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_over_two_threads():
    """A worker thread opens spans while the main thread has one open.

    Per-thread stacks keep the worker's spans out of the main thread's
    tree; a single global stack would parent them under "inner".
    """
    clock = ManualClock()
    rec = tracer.Tracer(clock=clock)
    outer = rec.open("outer")                  # t = 0
    clock.now = 1.0
    inner = rec.open("inner")

    def worker():
        clock.now = 2.0
        w = rec.open("worker")
        clock.now = 3.0
        leaf = rec.open("leaf")
        clock.now = 5.0
        rec.close(leaf)
        clock.now = 9.0
        rec.close(w)

    th = threading.Thread(target=worker)
    th.start()
    th.join(timeout=10)
    assert not th.is_alive()
    clock.now = 10.0
    rec.close(inner)
    clock.now = 12.0
    rec.close(outer)

    parents = {s[0]: s[3] for s in rec.spans}
    assert parents == {"outer": -1, "inner": 0, "worker": -1, "leaf": 2}
    totals = tracer.layer_totals(rec.spans)
    assert totals["outer"] == {"calls": 1, "total_s": 12.0, "self_s": 3.0}
    assert totals["inner"] == {"calls": 1, "total_s": 9.0, "self_s": 9.0}
    assert totals["worker"] == {"calls": 1, "total_s": 7.0, "self_s": 5.0}
    assert totals["leaf"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}


def test_self_time_sums_repeated_children():
    spans = [["a", 0.0, 10.0, -1, 1],
             ["b", 1.0, 3.0, 0, 1],
             ["b", 4.0, 7.0, 0, 1],
             ["c", 5.0, 6.0, 2, 1]]
    totals = tracer.layer_totals(spans)
    assert totals["a"]["self_s"] == pytest.approx(5.0)
    assert totals["b"] == {"calls": 2, "total_s": 5.0, "self_s": 4.0}
    assert totals["c"]["self_s"] == pytest.approx(1.0)


def test_parent_on_another_thread_is_rejected():
    with pytest.raises(ValueError):
        tracer.layer_totals([["a", 0.0, 2.0, -1, 1], ["b", 0.5, 1.0, 0, 2]])


def test_wrap_nests_and_counts():
    clock = ManualClock()
    rec = tracer.Tracer(clock=clock)

    def leaf(x):
        clock.now += 1.0
        return x + 1

    wrapped_leaf = rec.wrap("leaf", leaf,
                            hook=lambda t, args, res: t.count("n", args[0]))

    def top(x):
        clock.now += 2.0
        return wrapped_leaf(x) + wrapped_leaf(x)

    assert rec.wrap("top", top)(3) == 8
    totals = tracer.layer_totals(rec.spans)
    assert totals["top"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    assert totals["leaf"]["calls"] == 2
    assert rec.counters == {**dict.fromkeys(tracer.COUNTERS, 0), "n": 6}


def test_install_rebinds_names_imported_elsewhere():
    """cli and stationary import functions by name; calls through either
    namespace must land in the trace."""
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import tracer
from mvstab import cli, model, numerics, spectrum, stationary
rec = tracer.Tracer()
tracer.install(rec)
assert cli.build_gibbs is stationary.build_gibbs
assert stationary.find_roots is numerics.find_roots is spectrum.find_roots
assert cli.build_gibbs.__wrapped__.__module__ == "mvstab.stationary"
spec = stationary.GridSpec(n_panels=4, panel_degree=64)
cli.self_consistent_roots(model.build_model("cosine", beta=1.0),
                          n_scan=41, grid_spec=spec)
calls = tracer.layer_totals(rec.spans)
assert calls["stationary.self_consistent_roots"]["calls"] == 1
assert calls["numerics.find_roots"]["calls"] == 1
assert calls["stationary.psi"]["calls"] > 41
print("ok")
"""
    root = BENCH.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run([sys.executable, "-c", code, str(BENCH)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "ok"
