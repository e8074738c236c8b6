"""Span recorder that times calls into mvstab's layers from outside.

Each wrapped function or method records one span per call: name, start,
end, the index of the enclosing span on the same thread (-1 at the top)
and the thread id.  Spans stay in memory and are written once, when the
traced command ends.  Self time is a span's duration minus the durations
of its direct children, which by construction ran on the same thread.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

MVSTAB_MODULES = ("numerics", "stationary", "spectrum", "perturb",
                  "particles", "fokkerplanck", "metrics", "cli")


# counters the hooks below add to; each trace reports them, 0 where the
# hook never ran
COUNTERS = ("particles.particle_updates", "fokkerplanck.frames_mb")


def _particle_updates(tracer, args, result):
    tracer.count("particles.particle_updates", args[0].n)


def _frames_mb(tracer, args, result):
    # fp_evolve returns (series, frames) when asked to keep its frames
    frames = result[1] if isinstance(result, tuple) else None
    tracer.count("fokkerplanck.frames_mb",
                 0.0 if frames is None else frames.rhos.nbytes / 1e6)


# (module, attribute path, hook run after each call or None).  Besides
# the functions the metrics name, the layer calls the cli makes are
# wrapped so that their time leaves cli's self time.
TARGETS = [
    ("numerics", "composite_gauss_legendre", None),
    ("numerics", "find_roots", None),
    ("numerics", "sym_eig", None),
    ("numerics", "dense_spectrum", None),
    ("stationary", "psi", None),
    ("stationary", "build_gibbs", None),
    ("stationary", "self_consistent_roots", None),
    ("stationary", "critical_sigma", None),
    ("spectrum", "build_basis", None),
    ("spectrum", "dirichlet_matrix", None),
    ("spectrum", "base_spectrum", None),
    ("spectrum", "coupling_vectors", None),
    ("spectrum", "secular_function", None),
    ("spectrum", "unstable_mode", None),
    ("perturb", "make_perturbation", None),
    ("perturb", "sample_measure", None),
    ("fokkerplanck", "discrete_stationary", None),
    ("fokkerplanck", "fp_evolve", _frames_mb),
    ("fokkerplanck", "FpStepper.step", None),
    ("fokkerplanck", "FpStepper.flux_coefficients", None),
    ("particles", "step", _particle_updates),
    ("particles", "evolve", None),
    ("metrics", "empirical_cdf", None),
    ("metrics", "w1_density", None),
    ("cli", "cmd_stationary", None),
    ("cli", "cmd_spectrum", None),
    ("cli", "cmd_instability", None),
    ("cli", "cmd_sweep", None),
    ("cli", "_sweep_point", None),
    ("cli", "write_report", None),
    ("cli", "write_csv", None),
    ("cli", "svg_line_plot", None),
]


class Tracer:
    """In-memory span list with one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []     # [name, start, end, parent, thread]
        self.counters: dict[str, float] = dict.fromkeys(COUNTERS, 0)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float):
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str) -> int:
        stack = self._stack()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, self.clock(), None,
                               stack[-1] if stack else -1,
                               threading.get_ident()])
        stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = self.clock()
        popped = self._stack().pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def install(tracer: Tracer):
    """Wrap every target and rebind it wherever mvstab imported it.

    Modules such as ``cli`` and ``spectrum`` import functions by name, so
    the wrapper replaces the original in every loaded mvstab module that
    holds it, not only in the defining one.  Methods are patched on
    their class, which every caller shares.
    """
    mods = {m: importlib.import_module(f"mvstab.{m}") for m in MVSTAB_MODULES}
    loaded = [mod for key, mod in sys.modules.items()
              if key == "mvstab" or key.startswith("mvstab.")]
    for mod_name, path, hook in TARGETS:
        name = f"{mod_name}.{path}"
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = getattr(mods[mod_name], owner_path)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), hook))
            continue
        original = getattr(mods[mod_name], attr)
        wrapped = tracer.wrap(name, original, hook)
        for mod in loaded:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapped)


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; children share the parent's thread, so the subtraction
    never mixes the clocks of concurrent workers.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, thread in spans:
        if parent >= 0:
            if spans[parent][4] != thread:
                raise ValueError(f"span {name!r} has a parent on another "
                                 f"thread")
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _, _), inner in zip(spans, child_time):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - inner
    return out
