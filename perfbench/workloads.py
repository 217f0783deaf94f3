"""Workload sizes, shared by run.py and one repetition (rep.py).

Why each workload exists, and what it should and should not move, is in
NOTES.md.  ``SMOKE`` overrides the sizes for the seconds-long self-test.
"""

from __future__ import annotations

WORKLOADS = {
    # trajent simulate --unraveling qj on thermal_bell, then trajent fit
    "qj_sparse": {"n_traj": 6000, "t_max": 3.0, "grid": 0.03, "workers": 1},
    # library pipeline: run_ensemble(keep_states) -> average -> evolve_rho
    # -> concurrence_series on photon counting displaced by beta = 2
    "qj_dense_states": {"n_traj": 3000, "t_max": 3.0, "grid": 0.03,
                        "workers": 2, "beta": 2.0},
    # trajent simulate --unraveling qsd-heterodyne --dt 0.0025 on thermal_bell
    "qsd_het": {"n_traj": 1024, "t_max": 6.0, "grid": 0.06, "dt": 0.0025,
                "workers": 1},
    # trajent master, rates and optimize on thermal_bell; no Monte Carlo
    "master_opt": {"n_traj": 0, "t_max": 20.0, "grid": 0.02, "restarts": 32},
}

SMOKE = {
    "qj_sparse": {"n_traj": 600},
    "qj_dense_states": {"n_traj": 600},
    "qsd_het": {"n_traj": 64, "t_max": 1.2},
    "master_opt": {"t_max": 2.0, "restarts": 4},
}


def size(workload: str, smoke: bool) -> dict:
    """Parameters of a workload, with the smoke overrides if asked for."""
    out = dict(WORKLOADS[workload])
    if smoke:
        out.update(SMOKE[workload])
    return out


def n_records(sz: dict) -> int:
    """Grid points per trajectory or per density-matrix series."""
    return int(round(sz["t_max"] / sz["grid"])) + 1


def dense_scenario(beta: float) -> dict:
    """Photon counting on a Bell pair, each channel split into J +/- beta."""
    amp = 0.5 ** 0.5
    return {
        "preset": "photon_counting",
        "params": {"gamma_a": 1.0, "gamma_b": 1.0,
                   "homodyne_shifts": [[beta, 0.0], [beta, 0.0]]},
        "initial_state": [[amp, 0.0], [0.0, 0.0], [0.0, 0.0], [amp, 0.0]],
    }
