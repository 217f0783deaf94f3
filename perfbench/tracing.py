"""Spans and counters around trajent's public functions, from outside trajent.

Tracing works by replacing, at run time, the module attributes that callers
look up (``trajent.cli.run_ensemble``, ``trajent.quantum_jump.expm``,
``trajent.quantum_jump.trajectory_rng``, ...) with wrappers, and putting the
originals back afterwards.  Nothing under ``src/`` is edited.  A name that a
later version of trajent no longer has is recorded as absent, not raised.

Each wrapped function is a span named ``<layer>.<function>``; the layer is the
trajent module.  A span's self time is its duration minus the time of the
spans it called.  Worker processes forked by trajent's process pool inherit
the wrappers; each worker writes its spans to a file when it exits, and
``Spans.collect_workers`` adds them up, kept apart from the main process.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import pickle
import time
import tracemalloc
from pathlib import Path

import numpy as np

# Timed spans: (span name, the (module, attribute) pairs callers look up).
TIMED = [
    ("cli.main", [("trajent.cli", "main")]),
    ("config.load_scenario", [("trajent.cli", "load_scenario"),
                              ("trajent.config", "load_scenario")]),
    ("quantum_jump.run_ensemble", [("trajent.cli", "run_ensemble"),
                                   ("trajent.quantum_jump", "run_ensemble")]),
    ("diffusion.run_ensemble_qsd", [("trajent.cli", "run_ensemble_qsd"),
                                    ("trajent.diffusion", "run_ensemble_qsd")]),
    ("ensemble.average", [("trajent.cli", "average"),
                          ("trajent.ensemble", "average")]),
    ("ensemble.empirical_density", [("trajent.ensemble", "empirical_density")]),
    ("ensemble.fit_rate_series", [("trajent.cli", "fit_rate_series"),
                                  ("trajent.ensemble", "fit_rate_series")]),
    ("lindblad.evolve_rho", [("trajent.cli", "evolve_rho"),
                             ("trajent.lindblad", "evolve_rho")]),
    ("lindblad.concurrence_series", [("trajent.cli", "concurrence_series"),
                                     ("trajent.lindblad", "concurrence_series")]),
    ("entanglement.concurrence_batch", [("trajent.quantum_jump", "concurrence_batch"),
                                        ("trajent.diffusion", "concurrence_batch")]),
    ("entanglement.concurrence_mixed", [("trajent.lindblad", "concurrence_mixed")]),
    ("linalg.expm", [("trajent.quantum_jump", "expm"), ("trajent.rates", "expm")]),
    ("rates.analytic_mean_concurrence", [("trajent.cli", "analytic_mean_concurrence"),
                                         ("trajent.rates", "analytic_mean_concurrence")]),
    ("rates.rate_report", [("trajent.cli", "rate_report"),
                           ("trajent.rates", "rate_report")]),
    ("optimize.optimize_unraveling", [("trajent.cli", "optimize_unraveling"),
                                      ("trajent.optimize", "optimize_unraveling")]),
]
# Counted only: called tens of thousands of times, so a timer would cost more
# than the call.
COUNTED = [("optimize.mixing_matrix", [("trajent.optimize", "mixing_matrix")])]
# Generator factories: the returned generators are timed per draw.
RNG_SITES = [("trajent.quantum_jump", "trajectory_rng"),
             ("trajent.diffusion", "trajectory_rng")]
# Ensemble functions whose allocation peak and returned records are measured.
MEMORY = [("quantum_jump", [("trajent.cli", "run_ensemble"),
                            ("trajent.quantum_jump", "run_ensemble")]),
          ("diffusion", [("trajent.cli", "run_ensemble_qsd"),
                         ("trajent.diffusion", "run_ensemble_qsd")])]


class Patcher:
    """Replaces module attributes and puts the originals back."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def patch(self, module: str, attr: str, make) -> None:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            self.absent.append(f"{module}.{attr}")
            return
        if not hasattr(mod, attr):
            self.absent.append(f"{module}.{attr}")
            return
        orig = getattr(mod, attr)
        self.saved.append((mod, attr, orig))
        setattr(mod, attr, make(orig))

    def restore(self) -> None:
        for mod, attr, orig in reversed(self.saved):
            setattr(mod, attr, orig)
        self.saved.clear()


class _TimedGenerator:
    """Forwards to a numpy Generator, timing each draw and counting variates."""

    def __init__(self, gen, spans: "Spans"):
        self._gen = gen
        self._spans = spans

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        spans = self._spans

        def draw(*args, **kwargs):
            out = spans.call("rng.draw", attr, args, kwargs)
            spans.count("rng.variates", int(np.size(out)))
            return out
        return draw


class Spans:
    """Per-name call counts, total and child time, in one process."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = worker_dir
        self.stats: dict[str, list] = {}     # name -> [calls, total_s, child_s]
        self.counts: dict[str, int] = {}
        self.stack: list[float] = []         # child time of each open span
        self.first_start: float | None = None

    def call(self, name, fn, args, kwargs):
        if self.first_start is None:
            self.first_start = time.perf_counter()
        self.stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            child = self.stack.pop()
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += dt
            st[2] += child
            if self.stack:
                self.stack[-1] += dt

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    def rng_factory(self, fn):
        def wrapper(*args, **kwargs):
            return _TimedGenerator(self.call("rng.trajectory_rng", fn, args,
                                             kwargs), self)
        return wrapper

    def install(self, patcher: Patcher) -> None:
        for name, sites in TIMED:
            for module, attr in sites:
                patcher.patch(module, attr, lambda f, n=name: self.timed(n, f))
        for name, sites in COUNTED:
            for module, attr in sites:
                patcher.patch(module, attr, lambda f, n=name: self.counted(n, f))
        for module, attr in RNG_SITES:
            patcher.patch(module, attr, self.rng_factory)
        multiprocessing.util.register_after_fork(self, Spans._start_in_worker)

    def _start_in_worker(self) -> None:
        self.stats, self.counts, self.stack = {}, {}, []
        multiprocessing.util.Finalize(self, self._dump, exitpriority=0)

    def _dump(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        path.write_text(json.dumps({"stats": self.stats, "counts": self.counts}))

    def collect_workers(self) -> dict:
        """Sum of the spans written by worker processes that have exited."""
        stats: dict[str, list] = {}
        counts: dict[str, int] = {}
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            path.unlink()
            for name, (calls, total, child) in doc["stats"].items():
                st = stats.setdefault(name, [0, 0.0, 0.0])
                st[0] += calls
                st[1] += total
                st[2] += child
            for name, n in doc["counts"].items():
                counts[name] = counts.get(name, 0) + n
        return {"stats": stats, "counts": counts}


class Memory:
    """tracemalloc peak inside the ensemble functions and size of their result."""

    def __init__(self):
        self.peak_bytes: dict[str, int] = {}
        self.result_bytes: dict[str, int] = {}
        self.clicks = 0
        self.trajectories = 0

    def measured(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak_bytes[layer] = max(self.peak_bytes.get(layer, 0), peak)
            self.result_bytes[layer] = self.result_bytes.get(layer, 0) + len(
                pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL))
            if layer == "quantum_jump":
                self.clicks += sum(len(r.events) for r in out)
                self.trajectories += len(out)
            return out
        return wrapper

    def install(self, patcher: Patcher) -> None:
        for layer, sites in MEMORY:
            for module, attr in sites:
                patcher.patch(module, attr,
                              lambda f, n=layer: self.measured(n, f))
        # workers inherit tracing through fork; only the caller is measured
        multiprocessing.util.register_after_fork(self, Memory._stop_in_worker)

    def _stop_in_worker(self) -> None:
        if tracemalloc.is_tracing():
            tracemalloc.stop()
