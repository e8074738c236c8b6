#!/usr/bin/env python3
"""Layered benchmark of the mvstab command line.

    python3 bench/run.py --workload branches --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Every command runs as a fresh
``python3 -m mvstab.cli`` process on configs derived from
``config.example.ini``, so each timing is what a CLI user pays.  The
outputs of every round are checked against computations made apart from
the program (``checks.py``).

--trace 0 measures the end-to-end metrics: set-up time (median of
several bare start-ups), the wall time of one round of the workload's
commands and the peak resident set of those processes.  --trace 1 runs
one untraced and one traced round, checks that their outputs agree byte
for byte (timestamp aside) and reports the per-layer metrics.  The last
line of standard output is one JSON object with the result.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracer  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".bench_out"

# One BLAS thread keeps `stationary` steady (0.42-0.54 s over six runs
# against 0.38-1.03 s at OpenBLAS's default of two threads on 2 CPUs);
# the sweep keeps its own pool of two workers.  A fixed hash seed and a
# fixed address-space layout (see _fixed_layout) make the interpreter's
# heap the same on every run.  Fixed glibc malloc thresholds keep the
# peak resident set from jumping between heap layouts: with glibc's
# adaptive thresholds the FP run's peak read 185 MB on some seeds and
# 199 MB on others (each seed always the same), and on `branches` it
# moved over 102-108 MB with the interleaving of the sweep's threads.  At 32 MB / 64 MB, the ceilings the
# adaptive thresholds rise towards on 64-bit glibc, three seeds of the
# FP run read 191.1-191.2 MB and six sweeps 108.7-109.2 MB; run times
# did not change.  Other C libraries ignore the two variables.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "MVSTAB_THREADS": "2",
             "PYTHONHASHSEED": "0",
             "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
             "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

# (command, config) pairs making one round of each workload
WORKLOADS = {
    "branches": [("stationary", "dawson"), ("spectrum", "dawson"),
                 ("sweep", "dawson"), ("stationary", "cosine"),
                 ("spectrum", "cosine")],
    "fp-escape": [("instability", "fp")],
    "particle-escape": [("instability", "particles")],
}

COMMANDS = ("stationary", "spectrum", "sweep", "instability")

# Per-layer metrics are those BENCHMARK.json declares.  A name
# "<span>.<field>" is read from the traced round's span totals, with the
# aliases below naming their span; the others are derived in
# layer_metrics.
SPAN_FIELDS = ("calls", "self_s", "total_s")
SPAN_ALIASES = {"cli.sweep_worker_busy_s": "cli._sweep_point.total_s"}
def fail(msg: str):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def write_configs(workdir: Path, seed: int) -> dict[str, Path]:
    """The workload configs, derived from config.example.ini.

    The seed moves the psi scan windows by up to a quarter on each side,
    which changes the scan grid every root search starts from but not
    the number of evaluations.  The particle run keeps the stock window
    and particle seed 0 on every benchmark seed: its rate claim fails
    because of a program fault, and that failure must not depend on the
    benchmark seed.
    """
    rng = random.Random(seed)

    def jitter():
        return round(rng.uniform(0.0, 0.25), 6)

    base = configparser.ConfigParser()
    base.optionxform = str
    if not base.read(ROOT / "config.example.ini"):
        fail("config.example.ini not found; run from a source checkout")
    overrides = {
        "dawson": {"stationary": {"scan_min": -3.0 - jitter(),
                                  "scan_max": 3.0 + jitter()}},
        "cosine": {"model": {"name": "cosine", "beta": 12.8,
                             "sigma": math.sqrt(2.0)},
                   "stationary": {"scan_min": -1.0 - jitter(),
                                  "scan_max": 1.0 + jitter()}},
        "particles": {"simulation": {"engine": "particles", "t_end": 5.0,
                                     "seed": 0}},
    }
    overrides["fp"] = {**overrides["dawson"],
                       "simulation": {"engine": "fp"}}
    paths = {}
    for name, sections in overrides.items():
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp.read_dict(base)
        for section, values in sections.items():
            for key, value in values.items():
                cp.set(section, key, repr(value) if isinstance(value, float)
                       else str(value))
        paths[name] = workdir / f"{name}.ini"
        with open(paths[name], "w", encoding="utf-8") as fh:
            cp.write(fh)
    return paths


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _fixed_layout():
    """Turn off address-space randomization in the child (Linux
    personality ADDR_NO_RANDOMIZE).  With it on, the heap fragments
    differently on every run: the FP run's peak resident set spread over
    185-207 MB in ten runs; with it off, nine of ten read 200.8-200.9 MB.
    Where the call is unavailable nothing changes."""
    try:
        libc = ctypes.CDLL(None)
        current = libc.personality(0xFFFFFFFF)
        if current != -1:
            libc.personality(current | 0x0040000)
    except (OSError, AttributeError):
        pass


def run_process(argv, log_path: Path, deadline: float):
    """Run one child to its end: (wall seconds, peak RSS in MB, exit code).

    The child is reaped with wait4 so its own peak resident set comes
    back with it; a child still running at the deadline is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT,
                                preexec_fn=_fixed_layout)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()),
                                proc.send_signal, (signal.SIGKILL,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def setup_time(config: Path, workdir: Path, deadline: float) -> float:
    """Median wall time of fresh processes that import the CLI and load
    the config, the part of every command before its work begins."""
    code = ("import sys; from mvstab.cli import load_config; "
            "load_config(sys.argv[1])")
    times = []
    for i in range(SETUP_SAMPLES):
        wall, _, rc = run_process([sys.executable, "-c", code, str(config)],
                                  workdir / f"setup{i}.log", deadline)
        if rc != 0:
            fail(f"set-up probe exited with {rc}; see {workdir}/setup{i}.log")
        times.append(wall)
    return statistics.median(times)


def run_round(workload: str, configs, round_dir: Path, traced: bool,
              deadline: float) -> dict:
    round_dir.mkdir(parents=True)
    cmds = []
    for command, cfg in WORKLOADS[workload]:
        out = round_dir / f"{command}-{cfg}"
        args = [command, "--config", str(configs[cfg]), "--out", str(out)]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"),
                    str(out) + ".trace.json", *args]
        else:
            argv = [sys.executable, "-m", "mvstab.cli", *args]
        wall, rss, code = run_process(argv, Path(str(out) + ".log"), deadline)
        cmds.append({"command": command, "config": cfg, "out": out,
                     "wall_s": wall, "rss_mb": rss, "exit": code})
        print(f"  {command:<11} {cfg:<9} {wall:8.3f} s {rss:7.1f} MB "
              f"exit {code}")
    return {"commands": cmds,
            "wall_s": sum(c["wall_s"] for c in cmds),
            "rss_mb": max(c["rss_mb"] for c in cmds)}


def check_round(workload: str, rnd: dict, configs) -> list[checks.Outcome]:
    outs = {(c["command"], c["config"]): c["out"] for c in rnd["commands"]}
    results = [checks.check_exit(c["command"], c["config"], c["exit"])
               for c in rnd["commands"]]
    results += checks.run_checks(workload, outs, configs)
    for r in results:
        tag = "ok  " if r.passed else ("KNOWN" if r.known_fault else "FAIL")
        print(f"  [{tag}] {r.name}: {r.detail}")
    return results


def compare_outputs(a: Path, b: Path) -> list[str]:
    """Files that differ between two output trees, manifest timestamp
    aside; logs and traces are not outputs."""
    def outputs(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file()
                and not p.name.endswith((".log", ".trace.json"))}

    names_a, names_b = outputs(a), outputs(b)
    diffs = [f"{rel} (only one side)" for rel in sorted(names_a ^ names_b)]
    for rel in sorted(names_a & names_b):
        da, db = (a / rel).read_bytes(), (b / rel).read_bytes()
        if rel.name == "manifest.json":
            da, db = json.loads(da), json.loads(db)
            da.pop("timestamp", None)
            db.pop("timestamp", None)
        if da != db:
            diffs.append(str(rel))
    return diffs


def declared_per_layer() -> dict[str, str]:
    """Per-layer metric name -> unit, as BENCHMARK.json declares them."""
    path = BENCH.parent / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found next to {BENCH.name}/")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def layer_metrics(plain: dict, traced: dict) -> dict:
    spans = []
    per_command = []
    counters: dict[str, float] = {}
    for c in traced["commands"]:
        path = Path(str(c["out"]) + ".trace.json")
        if not path.is_file():
            fail(f"traced {c['command']} wrote no trace ({path})")
        data = json.loads(path.read_text(encoding="utf-8"))
        per_command.append(data["spans"])
        # span parents index into their own command's list
        offset = len(spans)
        spans.extend([n, s, e, p + offset if p >= 0 else -1, t]
                     for n, s, e, p, t in data["spans"])
        for k, v in data["counters"].items():
            counters[k] = counters.get(k, 0) + v
    totals = tracer.layer_totals(spans)
    values = dict(counters)
    # cmd_sweep's own thread waits while the pool runs the points; that
    # wait (first point start to last point end) is not cli work
    wait = 0.0
    for spans_of_cmd in per_command:
        points = [(s, e) for n, s, e, _, _ in spans_of_cmd
                  if n == "cli._sweep_point"]
        if points:
            wait += max(e for _, e in points) - min(s for s, _ in points)
    values["cli.sweep_wait_s"] = wait
    values["cli.self_s"] = sum(row["self_s"] for span, row in totals.items()
                               if span.startswith("cli.")) - wait
    for command in COMMANDS:
        values[f"cli.{command}.wall_s"] = sum(
            c["wall_s"] for c in plain["commands"] if c["command"] == command)
    values["cli.instability.rate_rel_err"] = 0.0
    for c in plain["commands"]:
        report = c["out"] / "instability.json"
        if report.is_file():
            values["cli.instability.rate_rel_err"] = (
                checks.load_json(report).get("relative_error") or 0.0)
    values["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {}
    for name, unit in declared_per_layer().items():
        if name not in values:
            span, _, field = SPAN_ALIASES.get(name, name).rpartition(".")
            if field not in SPAN_FIELDS:
                fail(f"per-layer metric {name} is neither a span field "
                     f"nor derived")
            values[name] = totals.get(span, {}).get(field, 0)
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "mvstab" / "cli.py").is_file():
        fail("src/mvstab not found; run from the root of a source checkout")

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    configs = write_configs(workdir, args.seed)
    first_cfg = configs[WORKLOADS[args.workload][0][1]]

    outcomes: list[checks.Outcome] = []
    correct = True
    if args.trace:
        print("untraced round")
        plain = run_round(args.workload, configs, workdir / "plain", False,
                          deadline)
        outcomes += check_round(args.workload, plain, configs)
        print("traced round")
        traced = run_round(args.workload, configs, workdir / "traced", True,
                           deadline)
        outcomes += check_round(args.workload, traced, configs)
        diffs = compare_outputs(workdir / "plain", workdir / "traced")
        if diffs:
            correct = False
            print(f"traced outputs differ from untraced: {diffs}")
        metrics = layer_metrics(plain, traced)
    else:
        setup_s = setup_time(first_cfg, workdir, deadline)
        print(f"set-up {setup_s:.4f} s (median of {SETUP_SAMPLES})")
        rounds = []
        start = last = time.monotonic()
        # whole rounds until the time is up, none that would overrun
        while not rounds or (time.monotonic() - start < args.seconds
                             and 2 * time.monotonic() - last < deadline):
            last = time.monotonic()
            print(f"round {len(rounds)}")
            rnd = run_round(args.workload, configs,
                            workdir / f"round{len(rounds)}", False, deadline)
            outcomes += check_round(args.workload, rnd, configs)
            rounds.append(rnd)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds),
                       "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["rss_mb"]
                                                       for r in rounds),
                            "unit": "MB"},
        }
    failed = sum(not o.passed for o in outcomes)
    correct = correct and all(o.passed or o.known_fault for o in outcomes)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
