"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/rep.py '{"workload": ..., "seed": ..., "mode": ...,
                               "size": {...}, "dir": ..., "src": ...,
                               "scenario": ...}'

run.py starts one of these per repetition, so that set-up time and peak
memory are those of a new process, as for a user.  ``mode`` is ``plain``
(untraced), ``spans`` (timed spans around trajent's public functions) or
``memory`` (tracemalloc peak inside the ensemble functions).  Outputs and
``rep.json``, the timings, go into ``dir``.

Times are ``time.perf_counter`` readings, which on Linux share one
monotonic clock across processes, so run.py can subtract the moment it
started this process.
"""

import importlib
import json
import resource
import sys
import time
from pathlib import Path


def _cli(argvs, marks):
    """Run trajent CLI commands in this process; mark the first scenario load."""
    from trajent import cli, config
    owner = cli if hasattr(cli, "load_scenario") else config
    orig = owner.load_scenario

    def load_scenario(path):
        s = orig(path)
        marks.setdefault("loaded", time.perf_counter())
        return s

    owner.load_scenario = load_scenario
    try:
        return [cli.main([str(a) for a in argv]) for argv in argvs], None
    finally:
        owner.load_scenario = orig


def _thermal_bell():
    from trajent.config import bundled_scenario_path
    return bundled_scenario_path("thermal_bell")


def qj_sparse(a, marks):
    sz, w = a["size"], Path(a["dir"])
    return _cli([
        ["simulate", "--config", _thermal_bell(), "--unraveling", "qj",
         "--tmax", sz["t_max"], "--grid", sz["grid"], "--traj", sz["n_traj"],
         "--seed", a["seed"], "--threads", sz["workers"],
         "--out", w / "simulate.csv"],
        ["fit", w / "simulate.csv", "--out", w / "fit.json"],
    ], marks)


def qsd_het(a, marks):
    sz, w = a["size"], Path(a["dir"])
    return _cli([
        ["simulate", "--config", _thermal_bell(),
         "--unraveling", "qsd-heterodyne", "--dt", sz["dt"],
         "--tmax", sz["t_max"], "--grid", sz["grid"], "--traj", sz["n_traj"],
         "--seed", a["seed"], "--threads", sz["workers"],
         "--out", w / "simulate.csv"],
    ], marks)


def master_opt(a, marks):
    sz, w = a["size"], Path(a["dir"])
    tb = _thermal_bell()
    return _cli([
        ["master", "--config", tb, "--tmax", sz["t_max"], "--grid", sz["grid"],
         "--out", w / "master.csv"],
        ["rates", "--config", tb, "--out", w / "rates.json"],
        ["optimize", "--config", tb, "--out", w / "optimize.json"],
    ], marks)


def qj_dense_states(a, marks):
    """The README's library path, keeping states for the density check."""
    import numpy as np
    from trajent import config, ensemble, lindblad, quantum_jump
    sz, w = a["size"], Path(a["dir"])
    s = config.load_scenario(a["scenario"])
    marks["loaded"] = time.perf_counter()
    recs = quantum_jump.run_ensemble(s, sz["t_max"], sz["n_traj"],
                                     seed=a["seed"], record_grid=sz["grid"],
                                     keep_states=True, workers=sz["workers"])
    summary = ensemble.average(recs)
    evo = lindblad.evolve_rho(s, sz["t_max"], record_grid=sz["grid"])
    c_rho = lindblad.concurrence_series(evo)
    np.savez(w / "dense.npz", times=summary.times, mean_c=summary.mean_c,
             stderr=summary.stderr, empirical_rho=summary.empirical_rho,
             master_rho=evo.rhos, c_rho=c_rho)
    return [0], lambda: _density_sigma(recs, w)


def _density_sigma(recs, w):
    """Standard error of each element of the empirical density matrix."""
    import numpy as np
    states = np.stack([r.states for r in recs])            # (N, G, 4)
    n, g = states.shape[:2]
    sigma_re = np.empty((g, 4, 4))
    sigma_im = np.empty((g, 4, 4))
    for i in range(4):
        for j in range(4):
            x = states[:, :, i] * np.conjugate(states[:, :, j])
            sigma_re[:, i, j] = x.real.std(axis=0, ddof=1) / np.sqrt(n)
            sigma_im[:, i, j] = x.imag.std(axis=0, ddof=1) / np.sqrt(n)
    np.savez(w / "dense_sigma.npz", sigma_re=sigma_re, sigma_im=sigma_im)


RUNNERS = {"qj_sparse": qj_sparse, "qj_dense_states": qj_dense_states,
           "qsd_het": qsd_het, "master_opt": master_opt}


def main() -> int:
    a = json.loads(sys.argv[1])
    sys.path.insert(0, a["src"])
    mode = a["mode"]
    setup = {}
    if mode == "spans":
        last = time.perf_counter()
        for key, module in (("setup.numpy_s", "numpy"),
                            ("setup.scipy_s", "scipy.optimize"),
                            ("setup.trajent_s", "trajent.cli")):
            importlib.import_module(module)
            now = time.perf_counter()
            setup[key] = now - last
            last = now
    else:
        importlib.import_module("trajent.cli")

    import tracing
    work = Path(a["dir"])
    patcher = tracing.Patcher()
    spans = memory = None
    if mode == "spans":
        spans = tracing.Spans(work)
        spans.install(patcher)
    elif mode == "memory":
        memory = tracing.Memory()
        memory.install(patcher)

    marks = {}
    try:
        rcs, post = RUNNERS[a["workload"]](a, marks)
        t_done = time.perf_counter()
    finally:
        patcher.restore()
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if post is not None:
        post()

    doc = {"t_loaded": marks.get("loaded"),
           "t_done": t_done, "rcs": rcs, "maxrss_kb": rss_self,
           "maxrss_worker_kb": rss_workers, "setup": setup,
           "absent": patcher.absent}
    if spans is not None:
        doc["spans"] = {"stats": spans.stats, "counts": spans.counts,
                        "first_start": spans.first_start}
        doc["worker_spans"] = spans.collect_workers()
    if memory is not None:
        doc["memory"] = {"peak_bytes": memory.peak_bytes,
                         "result_bytes": memory.result_bytes,
                         "clicks": memory.clicks,
                         "trajectories": memory.trajectories}
    (work / "rep.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
