"""Diffusive (quantum-state-diffusion) trajectory unravelings.

Homodyne-type monitoring drives the normalized state with one real Wiener
increment per channel,

    d psi = [ (-i H0 - K) dt
              + sum_m gamma_m ( Re<J_m> J_m - Re<J_m>^2 / 2 ) dt
              + sum_m sqrt(gamma_m) ( J_m - Re<J_m> ) dw_m ] psi ,

heterodyne-type monitoring with one complex increment per channel
(d xi = (dw1 + i dw2)/sqrt(2), <d xi d xi*> = dt, <d xi d xi> = 0),

    d psi = [ (-i H0 - K) dt
              + (1/2) sum_m gamma_m ( <J_m>* J_m - |<J_m>|^2 / 2 ) dt
              + sum_m sqrt(gamma_m) ( (J_m - <J_m>/2) d xi_m
                                      - (<J_m>*/2) d xi_m* ) ] psi .

Both are integrated with Euler-Maruyama and an exact renormalization after
every step (the suppressed drift is O(dt^{3/2}) and sits inside the
first-order convergence budget).  A detector phase theta is applied by
rotating the channel operators J -> e^{-i theta} J before the run (see
`models.with_phase_rotation`).

The same substream discipline as the jump engine applies: trajectory k of a
run draws only from SeedSequence(seed, spawn_key=(k,)), so ensembles are
bit-stable for a given (seed, n_traj) regardless of batching or workers.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np

from .entanglement import concurrence_batch
from .errors import StepSizeError
from .linalg import dag
from .models import Scenario
from .quantum_jump import TrajectoryRecord, record_times, trajectory_rng

__all__ = ["MAX_DIFFUSION_STEP", "wiener_increments", "complex_wiener_increments",
           "step_homodyne", "step_heterodyne",
           "run_trajectory_qsd", "run_ensemble_qsd"]

MAX_DIFFUSION_STEP = 1e-2  # bound on dt * gamma_max
_BATCH = 512

KINDS = ("homodyne", "heterodyne")


def wiener_increments(rng: np.random.Generator, n_steps: int, n_channels: int,
                      dt: float) -> np.ndarray:
    """Real increments dw ~ N(0, dt), shape (n_steps, n_channels)."""
    return np.sqrt(dt) * rng.standard_normal((n_steps, n_channels))


def complex_wiener_increments(rng: np.random.Generator, n_steps: int,
                              n_channels: int, dt: float) -> np.ndarray:
    """Complex increments with <d xi d xi*> = dt and <d xi d xi> = 0.

    Built as (dw1 + i dw2)/sqrt(2) from independent real N(0, dt) pairs;
    the pair for channel m is consumed before the pair for channel m+1.
    """
    raw = rng.standard_normal((n_steps, n_channels, 2))
    return np.sqrt(dt / 2.0) * (raw[..., 0] + 1j * raw[..., 1])


def _check_scenario(s: Scenario, dt: float) -> None:
    if s.time_dependent:
        raise ValueError("diffusive unravelings are defined for static "
                         "channels; remove rotating displacements first")
    if dt * s.gamma_max > MAX_DIFFUSION_STEP + 1e-15:
        raise StepSizeError(f"dt * gamma_max = {dt * s.gamma_max:.3g} > "
                            f"{MAX_DIFFUSION_STEP}; reduce the diffusion step")


def _grid(t_max: float, dt: float,
          record_grid: float | None) -> tuple[np.ndarray, int, float]:
    """(record times, substeps per record, actual step); dt is an upper bound."""
    times = record_times(t_max, record_grid)
    if record_grid is None:
        record_grid = t_max / 100.0
    if not 0 < dt <= record_grid:
        raise ValueError("need 0 < dt <= record_grid <= t_max")
    n_sub = max(1, int(np.ceil(record_grid / dt - 1e-9)))
    return times, n_sub, record_grid / n_sub


def _drift_op(s: Scenario) -> np.ndarray:
    return -1j * s.h0 - s.k_op


def step_homodyne(psi: np.ndarray, s: Scenario, dt: float,
                  rng: np.random.Generator) -> np.ndarray:
    """One Euler-Maruyama step of the homodyne equation; returns unit norm."""
    _check_scenario(s, dt)
    psi = np.asarray(psi, dtype=complex).reshape(4)
    dw = wiener_increments(rng, 1, len(s.channels), dt)[0]
    new = psi + _drift_op(s) @ psi * dt
    for m, ch in enumerate(s.channels):
        j = s.lifted_ops[m]
        jpsi = j @ psi
        ex = complex(np.vdot(psi, jpsi))
        re = ex.real
        new = new + ch.rate * (re * jpsi - 0.5 * re * re * psi) * dt
        new = new + np.sqrt(ch.rate) * (jpsi - re * psi) * dw[m]
    return new / np.linalg.norm(new)


def step_heterodyne(psi: np.ndarray, s: Scenario, dt: float,
                    rng: np.random.Generator) -> np.ndarray:
    """One Euler-Maruyama step of the heterodyne equation; returns unit norm."""
    _check_scenario(s, dt)
    psi = np.asarray(psi, dtype=complex).reshape(4)
    dxi = complex_wiener_increments(rng, 1, len(s.channels), dt)[0]
    new = psi + _drift_op(s) @ psi * dt
    for m, ch in enumerate(s.channels):
        j = s.lifted_ops[m]
        jpsi = j @ psi
        ex = complex(np.vdot(psi, jpsi))
        new = new + 0.5 * ch.rate * (np.conjugate(ex) * jpsi
                                     - 0.5 * abs(ex) ** 2 * psi) * dt
        new = new + np.sqrt(ch.rate) * ((jpsi - 0.5 * ex * psi) * dxi[m]
                                        - 0.5 * np.conjugate(ex)
                                        * np.conjugate(dxi[m]) * psi)
    return new / np.linalg.norm(new)


def _run_batch_qsd(kind: str, s: Scenario, seeds: list[int], indices: list[int],
                   t_max: float, dt: float | None, record_grid: float | None,
                   keep_states: bool) -> list[TrajectoryRecord]:
    if kind not in KINDS:
        raise ValueError(f"unraveling kind must be one of {KINDS}, got {kind!r}")
    if dt is None:
        dt = 0.5 * MAX_DIFFUSION_STEP / max(s.gamma_max, 1e-30)
        dt = min(dt, record_grid if record_grid is not None else t_max / 100.0)
    times, n_sub, h = _grid(t_max, dt, record_grid)
    _check_scenario(s, h)
    n_rec = len(times) - 1
    n_steps = n_rec * n_sub
    b = len(seeds)
    m_ch = len(s.channels)

    ops = s.lifted_ops
    rates = s.rates
    sqrt_rates = np.sqrt(rates)
    a0 = _drift_op(s)

    if kind == "homodyne":
        noise = np.empty((b, n_steps, m_ch))
        for i, (seed, k) in enumerate(zip(seeds, indices)):
            noise[i] = wiener_increments(trajectory_rng(seed, k), n_steps,
                                         m_ch, h)
    else:
        noise = np.empty((b, n_steps, m_ch), dtype=complex)
        for i, (seed, k) in enumerate(zip(seeds, indices)):
            noise[i] = complex_wiener_increments(trajectory_rng(seed, k),
                                                 n_steps, m_ch, h)

    psi = np.broadcast_to(s.initial / np.linalg.norm(s.initial), (b, 4)).copy()
    conc = np.empty((b, n_rec + 1))
    conc[:, 0] = concurrence_batch(psi)
    states = None
    if keep_states:
        states = np.empty((b, n_rec + 1, 4), dtype=complex)
        states[:, 0] = psi

    step = 0
    for rec in range(1, n_rec + 1):
        for _ in range(n_sub):
            jpsi = np.einsum("mij,bj->mbi", ops, psi)          # (M, B, 4)
            ex = np.einsum("bi,mbi->mb", np.conjugate(psi), jpsi)
            new = psi + h * (psi @ a0.T)
            if kind == "homodyne":
                re = ex.real                                    # (M, B)
                new = new + h * np.einsum("mb,mbi->bi", rates[:, None] * re, jpsi)
                new = new - 0.5 * h * ((rates[:, None] * re ** 2).sum(0))[:, None] * psi
                dw = noise[:, step, :].T                        # (M, B)
                new = new + np.einsum("mb,mbi->bi", sqrt_rates[:, None] * dw, jpsi)
                new = new - ((sqrt_rates[:, None] * dw * re).sum(0))[:, None] * psi
            else:
                w = 0.5 * rates[:, None] * np.conjugate(ex)     # (M, B)
                new = new + h * np.einsum("mb,mbi->bi", w, jpsi)
                new = new - 0.25 * h * ((rates[:, None] * np.abs(ex) ** 2).sum(0))[:, None] * psi
                dxi = noise[:, step, :].T                       # (M, B)
                new = new + np.einsum("mb,mbi->bi", sqrt_rates[:, None] * dxi, jpsi)
                new = new - 0.5 * ((sqrt_rates[:, None] * (dxi * ex
                                    + np.conjugate(dxi * ex))).sum(0))[:, None] * psi
            psi = new / np.linalg.norm(new, axis=1, keepdims=True)
            step += 1
        conc[:, rec] = concurrence_batch(psi)
        if keep_states:
            states[:, rec] = psi

    return [TrajectoryRecord(seed=seeds[i], index=indices[i], times=times,
                             concurrences=conc[i], events=(),
                             states=states[i] if keep_states else None)
            for i in range(b)]


def run_trajectory_qsd(kind: str, s: Scenario, t_max: float,
                       dt: float | None = None, seed: int = 0, index: int = 0,
                       record_grid: float | None = None,
                       keep_states: bool = False) -> TrajectoryRecord:
    """Single diffusive trajectory, deterministic for a given (seed, index)."""
    return _run_batch_qsd(kind, s, [seed], [index], t_max, dt, record_grid,
                          keep_states)[0]


def _qsd_chunk(args):
    kind, s, seed, k0, k1, t_max, dt, record_grid, keep_states = args
    out = []
    for b0 in range(k0, k1, _BATCH):
        b1 = min(b0 + _BATCH, k1)
        out.extend(_run_batch_qsd(kind, s, [seed] * (b1 - b0),
                                  list(range(b0, b1)), t_max, dt, record_grid,
                                  keep_states))
    return out


def run_ensemble_qsd(kind: str, s: Scenario, t_max: float, n_traj: int,
                     dt: float | None = None, seed: int = 0,
                     record_grid: float | None = None,
                     keep_states: bool = False,
                     workers: int = 1) -> list[TrajectoryRecord]:
    """Ensemble of diffusive trajectories; bit-stable for fixed (seed, n_traj)."""
    if n_traj <= 0:
        raise ValueError("n_traj must be positive")
    if workers <= 1 or n_traj <= _BATCH:
        return _qsd_chunk((kind, s, seed, 0, n_traj, t_max, dt, record_grid,
                           keep_states))
    n_batches = -(-n_traj // _BATCH)
    per_worker = -(-n_batches // workers)
    tasks = []
    for w in range(workers):
        k0 = w * per_worker * _BATCH
        k1 = min(k0 + per_worker * _BATCH, n_traj)
        if k0 >= k1:
            break
        tasks.append((kind, s, seed, k0, k1, t_max, dt, record_grid,
                      keep_states))
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(tasks)) as ex:
        chunks = list(ex.map(_qsd_chunk, tasks))
    out: list[TrajectoryRecord] = []
    for c in chunks:
        out.extend(c)
    return out
