"""trajent benchmark: four workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a trajent checkout; the package is imported from its
``src/``.  A run repeats the workload, each repetition in a fresh process
(rep.py), until ``--seconds`` have passed, checks every repetition's outputs
(checks.py) and prints the metrics named in BENCHMARK.json: with
``--trace 0`` the end-to-end ones, with ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; everything a run
measured, with its provenance, is also written to
``perfbench/_work/<workload>-seed<N>-trace<T>/result.json``.

``--smoke`` runs every workload once per mode at a tiny size, asserts that
every metric named in BENCHMARK.json is emitted and that qj_dense_states
gives byte-identical mean_c with 1 and 2 workers.  It takes seconds.

What the workloads are for, how the metrics are defined and what each layer
should move are in NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from speed import Probes

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
REP = ROOT / "perfbench" / "rep.py"
RUN_LIMIT_S = 170.0      # a run must end within 180 s
MB = 1e6


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Rep:
    """One repetition: its process's timings and its check report.

    ``setup_s`` and ``wall_s`` are scaled to the reference speed (speed.py);
    ``raw_setup_s`` and ``raw_wall_s`` are as the clock read them.
    """

    def __init__(self, mode: str, seed: int, d: Path, doc: dict,
                 t_spawn: float, probe: Probes, rc: int, report):
        self.mode, self.seed, self.dir, self.doc, self.report = (
            mode, seed, d, doc, report)
        self.ok = rc == 0 and doc.get("t_loaded") is not None
        if self.ok:
            t_loaded, t_done = doc["t_loaded"], doc["t_done"]
            self.raw_setup_s = t_loaded - t_spawn
            self.raw_wall_s = t_done - t_loaded
            self.setup_speed = probe.factor(t_spawn, t_loaded)
            self.wall_speed = probe.factor(t_loaded, t_done)
            self.setup_s = self.raw_setup_s * self.setup_speed
            self.wall_s = self.raw_wall_s * self.wall_speed
            self.peak_rss_mb = (doc["maxrss_kb"] + doc["maxrss_worker_kb"]) \
                * 1024 / MB


def _cpus(workers: int) -> list[int]:
    """The CPUs a repetition is pinned to: one per process that computes."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-max(1, workers):]


def _run_child(args: dict, d: Path, timeout: float
               ) -> tuple[int, float, Probes]:
    cpus = _cpus(args["size"].get("workers", 1))
    with open(d / "stdout.txt", "w") as out, \
            open(d / "stderr.txt", "w") as err, Probes(cpus) as probe:
        t_spawn = time.perf_counter()
        p = subprocess.Popen([sys.executable, str(REP), json.dumps(args)],
                             stdout=out, stderr=err, start_new_session=True)
        os.sched_setaffinity(p.pid, cpus)       # inherited by its workers
        try:
            rc = p.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            rc = -signal.SIGKILL
    return rc, t_spawn, probe


class Run:
    """The repetitions of one workload and the metrics made from them."""

    def __init__(self, workload: str, seed: int, smoke: bool, work: Path):
        from checks import context
        self.workload = workload
        self.seed = seed
        self.size = workloads.size(workload, smoke)
        self.work = work
        self.scenario_path = work / "dense_scenario.json"
        if workload == "qj_dense_states":
            self.scenario_path.write_text(json.dumps(
                workloads.dense_scenario(self.size["beta"]), indent=2))
        self.ctx = context(self.scenario_path if workload == "qj_dense_states"
                           else None)
        self.reps: list[Rep] = []

    def rep(self, mode: str, seed: int, deadline: float, **override) -> Rep:
        from checks import CHECKS, Report
        d = self.work / f"rep{len(self.reps):03d}-{mode}"
        d.mkdir()
        size = dict(self.size, **override)
        args = {"workload": self.workload, "seed": seed, "mode": mode,
                "size": size, "dir": str(d), "src": str(SRC),
                "scenario": str(self.scenario_path)}
        rc, t_spawn, probe = _run_child(args, d, max(10.0, deadline
                                                      - time.perf_counter()))
        doc = {}
        if (d / "rep.json").exists():
            doc = json.loads((d / "rep.json").read_text())
        report = Report()
        report.check("benchmark process exit 0",
                     lambda: (rc == 0, f"exit {rc}, see {d / 'stderr.txt'}"))
        if doc:
            CHECKS[self.workload](report, d, size, self.ctx, doc["rcs"])
        r = Rep(mode, seed, d, doc, t_spawn, probe, rc, report)
        self.reps.append(r)
        return r

    def of(self, mode: str) -> list[Rep]:
        return [r for r in self.reps if r.mode == mode and r.ok]

    @property
    def attempted(self) -> int:
        return sum(len(r.report.results) for r in self.reps)

    @property
    def failed(self) -> int:
        return sum(len(r.report.failed) for r in self.reps)

    def end_to_end(self) -> dict:
        plain = self.of("plain")
        # seconds to a standard error of 0.01 per grid point; the master
        # equation is exact, so there it is the time of the run
        if self.size["n_traj"]:
            mc_cost = [r.wall_s * r.report.mean_stderr2 / 1e-4 for r in plain
                       if r.report.mean_stderr2 is not None]
        else:
            mc_cost = [r.wall_s for r in plain]
        return {
            "wall_s": _median([r.wall_s for r in plain]),
            "setup_s": _median([r.setup_s for r in plain]),
            "mc_cost_s": _median(mc_cost),
            "peak_rss_mb": _median([r.peak_rss_mb for r in plain]),
            "pass_ratio": (self.attempted - self.failed) / max(1, self.attempted),
        }

    def per_layer(self) -> dict:
        sz = self.size
        n, g = sz["n_traj"], workloads.n_records(sz)
        steps = int(round(sz["t_max"] / sz["dt"])) if "dt" in sz else 0
        per_rep = [self._layer_values(r, n, g, steps) for r in self.of("spans")]
        out = {k: _median([v[k] for v in per_rep]) for k in per_rep[0]}
        mem = [r.doc["memory"] for r in self.of("memory")]
        out["quantum_jump.clicks_per_traj"] = _median(
            [m["clicks"] / max(1, m["trajectories"]) for m in mem])
        out["quantum_jump.result_mb"] = _median(
            [m["result_bytes"].get("quantum_jump", 0) / MB for m in mem])
        for layer in ("quantum_jump", "diffusion"):
            out[f"{layer}.peak_alloc_mb"] = _median(
                [m["peak_bytes"].get(layer, 0) / MB for m in mem])
        plain = self.of("plain")
        out["trace.overhead_s"] = (_median([r.wall_s for r in self.of("spans")])
                                   - _median([r.wall_s for r in plain]))
        mc = [r for r in plain if r.report.bias_sigma is not None]
        out["bias_sigma"] = _median([r.report.bias_sigma for r in mc])
        out["traj_per_s"] = _median([n / r.wall_s for r in mc])
        return out

    @staticmethod
    def _layer_values(r: Rep, n: int, g: int, steps: int) -> dict:
        """Per-layer figures of one traced repetition, times scaled like
        wall_s and setup_s."""
        main, workers = r.doc["spans"], r.doc["worker_spans"]

        def total(name):
            return sum(s["stats"].get(name, [0, 0.0, 0.0])[1]
                       for s in (main, workers))

        def calls(name):
            return sum(s["stats"].get(name, [0, 0.0, 0.0])[0]
                       for s in (main, workers))

        def count(name):
            return sum(s["counts"].get(name, 0) for s in (main, workers))

        qj = total("quantum_jump.run_ensemble")
        qsd = total("diffusion.run_ensemble_qsd")
        evolve = total("lindblad.evolve_rho")
        cli = main["stats"].get("cli.main", [0, 0.0, 0.0])
        v = {
            "quantum_jump.run_ensemble_s": qj,
            "quantum_jump.us_per_traj_record": 1e6 * qj / (n * g) if n else 0.0,
            "rng.draw_s": total("rng.trajectory_rng") + total("rng.draw"),
            "rng.variates": count("rng.variates"),
            "diffusion.run_ensemble_qsd_s": qsd,
            "diffusion.us_per_traj_step":
                1e6 * qsd / (n * steps) if n and steps else 0.0,
            "ensemble.average_s": total("ensemble.average"),
            "ensemble.empirical_density_s": total("ensemble.empirical_density"),
            "ensemble.fit_rate_series_s": total("ensemble.fit_rate_series"),
            "lindblad.evolve_rho_s": evolve,
            "lindblad.us_per_record":
                1e6 * evolve / (calls("lindblad.evolve_rho") * g)
                if calls("lindblad.evolve_rho") else 0.0,
            "lindblad.concurrence_series_s": total("lindblad.concurrence_series"),
            "entanglement.concurrence_batch_s":
                total("entanglement.concurrence_batch"),
            "entanglement.concurrence_batch_calls":
                calls("entanglement.concurrence_batch"),
            "entanglement.concurrence_mixed_s":
                total("entanglement.concurrence_mixed"),
            "entanglement.concurrence_mixed_calls":
                calls("entanglement.concurrence_mixed"),
            "linalg.expm_calls": calls("linalg.expm"),
            "linalg.expm_s": total("linalg.expm"),
            "rates.analytic_mean_concurrence_s":
                total("rates.analytic_mean_concurrence"),
            "rates.rate_report_s": total("rates.rate_report"),
            "optimize.optimize_unraveling_s":
                total("optimize.optimize_unraveling"),
            "optimize.objective_evals": count("optimize.mixing_matrix"),
            "config.load_scenario_s": total("config.load_scenario"),
            "cli.self_s": cli[1] - cli[2],
        }
        for key in v:
            if key.endswith("_s") or ".us_per_" in key:
                v[key] *= r.wall_speed
        for key in ("setup.numpy_s", "setup.scipy_s", "setup.trajent_s"):
            v[key] = r.doc["setup"].get(key, 0.0) * r.setup_speed
        return v

    @staticmethod
    def layer_self_times(r: Rep) -> tuple[dict, dict]:
        """Scaled self seconds per layer in the main process, and busy self
        seconds per layer in the worker processes."""
        own: dict[str, float] = {}
        busy: dict[str, float] = {}
        for spans, acc in ((r.doc["spans"], own), (r.doc["worker_spans"], busy)):
            for name, (_, tot, child) in spans["stats"].items():
                layer = name.split(".")[0]
                acc[layer] = acc.get(layer, 0.0) + (tot - child) * r.wall_speed
        return own, busy


def execute(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> Run:
    """Repeat the workload for ``seconds``; with ``trace``, in rotations of
    an untraced, a spans and a memory repetition."""
    work = WORK / f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, smoke, work)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    cycle = ("plain", "spans", "memory") if trace else ("plain",)
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        for mode in cycle:
            r = run.rep(mode, seed * 1000 + i, deadline)
            if not r.ok:
                return run
        i += 1
    return run


def provenance(run: Run) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "trajent").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "src_sha256": digest.hexdigest(), "workload": run.workload,
            "seed": run.seed, "n_traj": run.size["n_traj"], "size": run.size}


def _print_breakdown(run: Run) -> None:
    """Where the traced repetition's time went, layer by layer."""
    spans = sorted(run.of("spans"), key=lambda r: r.wall_s)
    r = spans[len(spans) // 2]
    own, busy = run.layer_self_times(r)
    window = (r.doc["t_done"] - r.doc["spans"]["first_start"]) * r.wall_speed
    print(f"  median traced repetition: wall_s {r.wall_s:.4f} s; its spans "
          f"cover {window:.4f} s from the first call, self time per layer:")
    for layer, t in sorted(own.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<14} {t:9.4f} s  {100 * t / window:5.1f}%")
    print(f"    {'(outside)':<14} {window - sum(own.values()):9.4f} s")
    if busy:
        print("  worker processes, busy self time per layer: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(busy.items(),
                                                key=lambda kv: -kv[1])))
    if r.doc["absent"]:
        print("  absent from this trajent, reported as 0: "
              + ", ".join(r.doc["absent"]))


def report(run: Run, spec: dict, trace: bool, elapsed: float) -> dict:
    """Print the run's figures; return the metrics BENCHMARK.json asks for."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    plain = run.of("plain")
    print(f"perfbench {run.workload} seed={run.seed} trace={int(trace)}: "
          f"{len(run.reps)} repetitions in {elapsed:.1f} s, size {run.size}")
    for r in run.reps:
        for name, ok, detail in r.report.results:
            if not ok:
                print(f"  FAILED [{r.mode} seed {r.seed}] {name}: {detail}")
    e2e = run.end_to_end()
    raw = {"wall_s": [r.raw_wall_s for r in plain],
           "setup_s": [r.raw_setup_s for r in plain]}
    for name, value in e2e.items():
        note = f"median of {len(plain)}"
        if name in raw:
            note += (f"; unscaled median {_median(raw[name]):.4g} s, "
                     f"{min(raw[name]):.4g} .. {max(raw[name]):.4g}")
        elif name == "pass_ratio":
            note = f"{run.attempted} checks, {run.failed} failed"
        print(f"  {name:<14} {value:12.6g} {units[name]:<6} ({note})")
    mc = [r for r in plain if r.report.bias_sigma is not None]
    if mc:
        print(f"  not gated: bias_sigma "
              f"{_median([r.report.bias_sigma for r in mc]):.3f}, traj_per_s "
              f"{_median([run.size['n_traj'] / r.wall_s for r in mc]):.1f}")
    if trace:
        metrics = run.per_layer()
        _print_breakdown(run)
    else:
        metrics = e2e
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted}


def smoke(spec: dict) -> int:
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in workloads.WORKLOADS:
        run = execute(workload, 1, 0.0, trace=True, smoke=True)
        if not all(r.ok for r in run.reps):
            problems.append(f"{workload}: a repetition failed, see {run.work}")
            continue
        got_e2e, got_layer = set(run.end_to_end()), set(run.per_layer())
        if got_e2e != e2e_names or got_layer != layer_names:
            problems.append(f"{workload}: metrics differ from BENCHMARK.json: "
                            f"{sorted(got_e2e ^ e2e_names)} "
                            f"{sorted(got_layer ^ layer_names)}")
        print(f"smoke {workload}: {len(run.reps)} repetitions, "
              f"{run.attempted} checks, {run.failed} failed")
        if workload == "qj_dense_states":
            import numpy as np
            means = []
            for workers in (1, 2):
                r = run.rep("plain", 7, time.perf_counter() + RUN_LIMIT_S,
                            workers=workers)
                with np.load(r.dir / "dense.npz") as z:
                    means.append(z["mean_c"].tobytes())
            if means[0] != means[1]:
                problems.append("qj_dense_states: mean_c differs between "
                                "1 and 2 workers")
    for p in problems:
        print(f"smoke FAILED {p}", file=sys.stderr)
    print("smoke OK" if not problems else "smoke FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (SRC / "trajent" / "__init__.py").is_file():
        _fail(f"no trajent package under {SRC}; run from a trajent checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        _fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import trajent
    if not Path(trajent.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"imported trajent from {trajent.__file__}, not from {SRC}")
    if args.smoke:
        return smoke(spec)
    if args.workload is None or args.seed < 0:
        _fail("--workload is required and --seed must be >= 0")

    start = time.perf_counter()
    run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    if not run.of("plain") or (args.trace and not (run.of("spans")
                                                   and run.of("memory"))):
        for r in run.reps:
            for name, ok, detail in r.report.results:
                if not ok:
                    print(f"  FAILED [{r.mode}] {name}: {detail}", file=sys.stderr)
        _fail(f"{args.workload}: no complete repetition, nothing to report")
    metrics = report(run, spec, bool(args.trace), time.perf_counter() - start)
    prov = provenance(run)
    (run.work / "result.json").write_text(json.dumps({
        "provenance": prov, "metrics": metrics,
        "checks": [{"mode": r.mode, "seed": r.seed, "results": r.report.results}
                   for r in run.reps],
        "repetitions": [{"mode": r.mode, "seed": r.seed, **(
            {"wall_s": r.wall_s, "setup_s": r.setup_s,
             "raw_wall_s": r.raw_wall_s, "raw_setup_s": r.raw_setup_s,
             "peak_rss_mb": r.peak_rss_mb} if r.ok else {})} for r in run.reps],
    }, indent=1))
    print(json.dumps({"provenance": prov}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
