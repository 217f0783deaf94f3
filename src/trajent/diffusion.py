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
first-order convergence budget).  One step of either kind has the form

    new = (1 + h A0) psi + sum_m coef_m J_m psi - scal psi ,   A0 = -i H0 - K,

    homodyne:    coef_m = h gamma_m Re<J_m> + sqrt(gamma_m) dw_m,
                 scal   = sum_m Re<J_m> (h gamma_m Re<J_m> / 2
                                         + sqrt(gamma_m) dw_m),
    heterodyne:  coef_m = h gamma_m <J_m>* / 2 + sqrt(gamma_m) d xi_m,
                 scal   = sum_m (h gamma_m |<J_m>|^2 / 4
                                 + sqrt(gamma_m) Re(d xi_m <J_m>)),

so the batch kernel advances all its rows with one matmul against the
stacked operators [1 + h A0; J_1; ...; J_M], one expectation contraction and
one coefficient contraction per step.  A detector phase theta is applied by
rotating the channel operators J -> e^{-i theta} J before the run (see
`models.with_phase_rotation`).

The batch kernel is a pure array function: it returns the batch's record
points, concurrences and optional states, which `ensemble` turns into
records or reduces to moments.  Trajectory k of a run draws only from its own
substream `ensemble.trajectory_rng(seed, k)`, so ensembles are bit-stable for
a given (seed, n_traj) regardless of batching or workers.
The kernel steps its rows _ROWS at a time and streams the noise: each row
draws the next block of steps from its substream into a reused buffer of at
most _NOISE_VALUES normals per row block.  A row reads its normals step by
step and, within a step, channel by channel: one normal z per channel for
homodyne, dw_m = sqrt(h) z, and a pair for heterodyne,
d xi_m = sqrt(h/2) (z' + i z''), with the pair of channel m read before that
of channel m+1.  Consecutive draws continue one stream, so the increments
are those of a single whole-horizon draw and memory does not grow with t_max.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .ensemble import (TrajectoryRecord, record_times, run_one, run_records,
                       trajectory_rng)
from .entanglement import concurrence_batch
from .errors import StepSizeError
from .models import Scenario

__all__ = ["MAX_DIFFUSION_STEP", "batch_kernel_qsd", "run_trajectory_qsd",
           "run_ensemble_qsd"]

MAX_DIFFUSION_STEP = 1e-2  # bound on dt * gamma_max
_NOISE_VALUES = 1 << 18  # normals a row block buffers at a time (2 MB)
_ROWS = 512  # rows stepped together; wider blocks are slower (cache, draws)

KINDS = ("homodyne", "heterodyne")


def _check_scenario(s: Scenario, dt: float) -> None:
    if s.time_dependent:
        raise ValueError("diffusive unravelings are defined for static "
                         "channels; remove rotating displacements first")
    if dt * s.gamma_max > MAX_DIFFUSION_STEP + 1e-15:
        raise StepSizeError(f"dt * gamma_max = {dt * s.gamma_max:.3g} > "
                            f"{MAX_DIFFUSION_STEP}; reduce the diffusion step")


def _grid(s: Scenario, t_max: float, dt: float | None,
          record_grid: float | None) -> tuple[np.ndarray, int, float]:
    """(record times, substeps per record, actual step h): h tiles the
    interval times[1] of the one grid rule, `record_times`.  dt bounds h, is
    at most that interval (within the substep count's 1e-9), and defaults to
    half the step bound."""
    times = record_times(t_max, record_grid)
    grid = times[1]
    if dt is None:
        dt = min(0.5 * MAX_DIFFUSION_STEP / max(s.gamma_max, 1e-30), grid)
    if not 0 < dt <= grid * (1 + 1e-9):
        raise ValueError("need 0 < dt <= record_grid <= t_max")
    with np.errstate(over="ignore"):
        n_sub = np.ceil(grid / dt - 1e-9)
    if not (len(times) - 1) * n_sub < 2.0 ** 63:  # also a non-finite grid / dt
        raise ValueError(f"dt = {dt:.3g} asks for {n_sub:.3g} steps per "
                         "record interval; the run's step count must fit in "
                         "int64")
    return times, int(n_sub), grid / n_sub


def _run_batch_qsd(kind: str, s: Scenario, t_max: float, dt: float | None,
                   record_grid: float | None, keep_states: bool, seed: int,
                   indices) -> tuple:
    """Fused Euler-Maruyama kernel, _ROWS rows at a time; no clicks."""
    if kind not in KINDS:
        raise ValueError(f"unraveling kind must be one of {KINDS}, got {kind!r}")
    times, n_sub, h = _grid(s, t_max, dt, record_grid)
    _check_scenario(s, h)
    b = len(indices)
    conc = np.empty((b, len(times)))
    states = (np.empty((b, len(times), 4), dtype=complex) if keep_states
              else None)
    for i in range(0, b, _ROWS):
        j = min(i + _ROWS, b)
        _step_rows(kind == "heterodyne", s, n_sub, h, seed, indices[i:j],
                   conc[i:j], None if states is None else states[i:j])
    return times, conc, states, None


def _step_rows(het: bool, s: Scenario, n_sub: int, h: float, seed: int,
               indices, conc: np.ndarray, states: np.ndarray | None) -> None:
    """Step rows ``indices`` on a (4, B) state, filling their (B, G)
    concurrences and, if given, (B, G, 4) states."""
    n_steps = (conc.shape[1] - 1) * n_sub
    b = len(indices)
    m_ch = len(s.channels)
    per_step = 2 * m_ch if het else m_ch   # normals per row and step
    block = max(1, min(n_steps, _NOISE_VALUES // (b * per_step)))
    gens = [trajectory_rng(seed, k) for k in indices]
    raw = np.empty((b, block * per_step))
    # sqrt(gamma_m) dw_m = sqrt(gamma_m h) z and sqrt(gamma_m) d xi_m =
    # sqrt(gamma_m h / 2) (z' + i z''): a (z', z'') pair read as one complex
    dtype = complex if het else float
    dn = np.empty((block, m_ch, b), dtype=dtype)        # dn[k] is (M, B)
    dn_scale = np.sqrt((0.5 * h if het else h) * s.rates)[:, None]

    stack = np.concatenate([np.eye(4) + h * (-1j * s.h_eff),
                            *s.lifted_ops])
    h_rates = h * s.rates[:, None]
    half_h_rates = 0.5 * h_rates
    quarter_h_rates = 0.25 * h_rates

    psi = np.broadcast_to((s.initial / np.linalg.norm(s.initial))[:, None],
                          (4, b)).copy()                        # (4, B)
    conc[:, 0] = concurrence_batch(psi.T)
    if states is not None:
        states[:, 0] = psi.T

    for b0 in range(0, n_steps, block):
        nb = min(block, n_steps - b0)
        for g, row in zip(gens, raw):
            g.standard_normal(out=row[:nb * per_step])
        z = raw[:, :nb * per_step].view(dtype).reshape(b, nb, m_ch)
        np.multiply(dn_scale, z.transpose(1, 2, 0), out=dn[:nb])
        for k in range(nb):
            y = stack @ psi
            jpsi = y[4:].reshape(m_ch, 4, b)
            ex = (psi.conj() * jpsi).sum(axis=1)                # (M, B)
            if het:
                coef = half_h_rates * ex.conj() + dn[k]
                scal = (quarter_h_rates * (ex * ex.conj()).real
                        + (dn[k] * ex).real).sum(axis=0)
            else:
                re = ex.real
                coef = h_rates * re + dn[k]
                scal = (re * (half_h_rates * re + dn[k])).sum(axis=0)
            new = (coef[:, None] * jpsi).sum(axis=0)
            new += y[:4]
            new -= scal * psi
            psi = new / np.linalg.norm(new, axis=0)
            done, rem = divmod(b0 + k + 1, n_sub)
            if not rem:
                conc[:, done] = concurrence_batch(psi.T)
                if states is not None:
                    states[:, done] = psi.T


def batch_kernel_qsd(kind: str, s: Scenario, t_max: float,
                     dt: float | None = None, record_grid: float | None = None,
                     keep_states: bool = False):
    """The engine as a picklable ``kernel(seed, indices)`` for `ensemble`;
    the grid and step are checked here, before any kernel call."""
    _grid(s, t_max, dt, record_grid)
    return partial(_run_batch_qsd, kind, s, t_max, dt, record_grid,
                   keep_states)


def run_trajectory_qsd(kind: str, s: Scenario, t_max: float,
                       dt: float | None = None, seed: int = 0, index: int = 0,
                       record_grid: float | None = None,
                       keep_states: bool = False) -> TrajectoryRecord:
    """Single diffusive trajectory, deterministic for a given (seed, index)."""
    return run_one(batch_kernel_qsd(kind, s, t_max, dt, record_grid,
                                    keep_states), seed, index)


def run_ensemble_qsd(kind: str, s: Scenario, t_max: float, n_traj: int,
                     dt: float | None = None, seed: int = 0,
                     record_grid: float | None = None,
                     keep_states: bool = False,
                     workers: int = 1) -> list[TrajectoryRecord]:
    """Ensemble of diffusive trajectories; bit-stable for fixed (seed, n_traj)."""
    return run_records(batch_kernel_qsd(kind, s, t_max, dt, record_grid,
                                        keep_states), seed, n_traj, workers)
