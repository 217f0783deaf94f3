"""Jump-counting (photodetection-style) trajectory unraveling, sampled exactly.

Between detector clicks the state follows the no-click propagator
exp(-i H_eff tau) with H_eff = H0 - i K, and its squared norm S(tau) is the
probability of no click during tau.  H_eff is static in every valid scenario
(`models.kernel_oscillation`), so click times are sampled exactly by the
waiting-time method (Dalibard, Castin & Molmer, PRL 68, 580 (1992)): draw a
threshold r uniform in [0, 1), evolve the unnormalized state, and click when
S falls to r.  The click goes to channel m with probability proportional to
gamma_m |J_m(t) psi|^2, and the post-click state J_m psi / |J_m psi| starts a
new waiting time with a fresh threshold.

There is no time step.  `batch_kernel` checks the grid and that K is static
and diagonalizes H_eff = W diag(lambda) W^-1, once, before any kernel call.
Each click round solves S(tau) = r for every active row over its remaining
horizon [t_last, t_max] by a safeguarded Newton iteration.  The record
points are then filled in time order: each row's W^-1 psi is carried to the
next point by exp(-i lambda g), or replaced by its last post-click state if
it clicked in between.  C = |prec(psi)| / |psi|^2 is read from the unnormalized
psi (prec is quadratic); only kept states are normalized.

Reproducibility: the batch kernel returns arrays (record points,
concurrences, optional states, clicks as (row, time, channel)), which
`ensemble` turns into records or reduces to moments.  Trajectory k of a run
with master seed s draws only from its substream `ensemble.trajectory_rng(s,
k)`, read for the whole call by `ensemble.Substreams`: the first threshold,
then per click the channel draw and the next threshold, so it does not
depend on the rows that share its call or on the worker count.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .ensemble import (Substreams, TrajectoryRecord, record_times, run_one,
                       run_records)
from .entanglement import concurrence_batch
from .errors import ConvergenceError, NumericalError
from .models import KERNEL_DRIFT_TOL, Scenario, kernel_oscillation

__all__ = ["batch_kernel", "run_trajectory", "run_ensemble"]

_TAU_TOL = 1e-13  # accuracy of a sampled click time, relative to max(1, span)
_NEWTON_ITERS = 30  # Newton steps before a click-time search only bisects
_MAX_ITERS = _NEWTON_ITERS + 80  # enough bisections to reach _TAU_TOL


def _norm2(psi: np.ndarray) -> np.ndarray:
    return np.einsum("bi,bi->b", np.conjugate(psi), psi).real


def _evolve(c: np.ndarray, mlam: np.ndarray, w: np.ndarray,
            tau: np.ndarray) -> np.ndarray:
    """exp(-i H_eff tau_b) psi_b for rows c_b = W^-1 psi_b; mlam = -i lam."""
    return (c * np.exp(np.multiply.outer(tau, mlam))) @ w.T


def _click_delay(c: np.ndarray, mlam: np.ndarray, w: np.ndarray,
                 k_op: np.ndarray, log_r: np.ndarray,
                 span: np.ndarray) -> np.ndarray:
    """Delay tau in [0, span] at which the no-click norm S(tau) falls to r.

    ``span`` is the row's remaining horizon t_max - t_last, and S(0) > r >=
    S(span).  S falls with dS/dtau = -2 <psi|K|psi>; Newton steps on ln S -
    ln r start at tau = 0.  For H0 = 0, ln S is convex and the steps approach
    the root from below; otherwise a step that leaves the bracket, and every
    step after _NEWTON_ITERS, is replaced by bisection; finished rows drop out.
    """
    tau, rows = np.empty(len(c)), np.arange(len(c))
    lo, t, hi = np.zeros(len(c)), np.zeros(len(c)), np.array(span, float)
    tol = _TAU_TOL * np.maximum(1.0, hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(_MAX_ITERS):
            psi = _evolve(c, mlam, w, t)
            s2 = _norm2(psi)
            f = np.log(s2) - log_r
            below = f <= 0.0
            np.copyto(hi, t, where=below)
            np.copyto(lo, t, where=~below)
            k_mean = np.einsum("bi,ij,bj->b", np.conjugate(psi), k_op,
                               psi).real
            new = t + f * s2 / (2.0 * k_mean)
            bisect = (it >= _NEWTON_ITERS) | (new < lo) | ~(new <= hi)
            if bisect.any():
                new = np.where(bisect, 0.5 * (lo + hi), new)
            done = (np.abs(new - t) <= tol) | (f == 0.0) | (hi - lo <= tol)
            t = new
            if done.any():
                tau[rows[done]] = t[done]
                rows, c, log_r, lo, hi, tol, t = (
                    a[~done] for a in (rows, c, log_r, lo, hi, tol, t))
                if not rows.size:
                    return tau
    raise ConvergenceError("click-time search did not converge")


def _jump(s: Scenario, psi: np.ndarray, t: np.ndarray,
          u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Post-click states and channel indices for unit rows psi clicking at t.

    Channel m is chosen with probability gamma_m |J_m(t) psi|^2 over the sum,
    by the channel draw u.
    """
    amp = s.jump_amplitudes(psi, t)                       # (n, M, 4)
    cum = np.cumsum(s.rates * (np.conjugate(amp) * amp).real.sum(axis=2),
                    axis=1)
    m = np.minimum((cum <= u[:, None] * cum[:, -1:]).sum(axis=1),
                   len(s.channels) - 1)
    after = amp[np.arange(len(m)), m]
    norm = np.linalg.norm(after, axis=1)
    dead = np.flatnonzero(norm <= 1e-150)
    if dead.size:
        raise NumericalError(
            f"click selected on channel {s.channels[m[dead[0]]].id!r} whose "
            "operator annihilates the current state")
    return after / norm[:, None], m


def _run_batch(s: Scenario, t_max: float, times: np.ndarray, mlam: np.ndarray,
               w: np.ndarray, w_inv: np.ndarray, keep_states: bool, seed: int,
               indices) -> tuple:
    """Exact waiting-time kernel evolving a batch of trajectories together.
    A row draws only from its own substream, so it does not depend on its
    batch.  Returns the columns `ensemble.run_batches` takes."""
    b, g = len(indices), len(times)

    draws = Substreams(seed, indices)
    threshold = draws.random(np.arange(b))
    act, t_last = np.arange(b), np.zeros(b)
    c = np.tile(w_inv @ s.psi0, (b, 1))
    segs = [(act, c, t_last)]
    channels = [np.zeros(0, dtype=int)]  # each round's click channels
    while True:
        more = _norm2(_evolve(c, mlam, w, t_max - t_last)) <= threshold[act]
        act, c, t_last = act[more], c[more], t_last[more]
        if not act.size:
            break
        tau = _click_delay(c, mlam, w, s.k_op, np.log(threshold[act]),
                           t_max - t_last)
        t_last = t_last + tau
        at = _evolve(c, mlam, w, tau)
        at /= np.sqrt(_norm2(at))[:, None]
        after, m = _jump(s, at, t_last, draws.random(act))
        channels.append(m)
        threshold[act] = draws.random(act)
        c = after @ w_inv.T
        segs.append((act, c, t_last))

    # A segment (post-click W^-1 psi, click time) starts at `first`, the first
    # record point at or after its click (clipped: a click may round past
    # t_max), and is shifted there.  `order` takes a row's segments in click
    # order and keeps the last of those with one `first`, then sorts them by
    # `first`, the b initial segments leading.  d carries each row's W^-1 psi.
    seg_row, seg_c, seg_t = map(np.concatenate, zip(*segs))
    del segs  # freed, and the outputs taken before the sort: a lower peak
    conc = np.empty((b, g))
    states = np.empty((b, g, 4), dtype=complex) if keep_states else None
    ids = np.array([ch.id for ch in s.channels], dtype=object)
    clicks = seg_row[b:], seg_t[b:], ids[np.concatenate(channels)]
    first = np.minimum(np.searchsorted(times, seg_t), g - 1)
    order = np.argsort(seg_row, kind="stable")
    order = order[np.append(np.diff((first * b + seg_row)[order]) != 0, True)]
    order = order[np.argsort(first[order].astype(np.min_scalar_type(g)),
                             kind="stable")]  # radix sort on a small dtype
    seg_c *= np.exp(np.outer(times[first] - seg_t, mlam))
    start = np.searchsorted(first[order], np.arange(g + 1))  # by point
    d, hop = seg_c[order[:b]], np.exp(times[1] * mlam)  # times[k] = k * grid
    for k in range(g):
        j = order[start[k]:start[k + 1]]
        d[seg_row[j]] = seg_c[j]
        psi = d @ w.T
        n2 = _norm2(psi)
        np.divide(concurrence_batch(psi), n2, out=conc[:, k])
        if keep_states:
            np.divide(psi, np.sqrt(n2)[:, None], out=states[:, k])
        d *= hop
    return times, conc, states, clicks


def batch_kernel(s: Scenario, t_max: float, record_grid: float | None = None,
                 keep_states: bool = False):
    """The engine as a picklable ``kernel(seed, indices)`` for `ensemble`;
    every check runs here, once, before any kernel call."""
    times = record_times(t_max, record_grid)
    if (drift := kernel_oscillation(s)) > KERNEL_DRIFT_TOL:
        raise ValueError(f"damping kernel K(t) oscillates (amplitude "
                         f"{drift:.3g}); the jump engine needs a static "
                         "no-click generator")
    lam, w = np.linalg.eig(s.h_eff)
    if np.linalg.cond(w) > 1e8:
        raise NumericalError("H_eff is (nearly) defective; its eigenvectors "
                             "do not give a stable no-click propagator")
    return partial(_run_batch, s, t_max, times, -1j * lam, w,
                   np.linalg.inv(w), keep_states)


def run_trajectory(s: Scenario, t_max: float, seed: int = 0, index: int = 0,
                   record_grid: float | None = None,
                   keep_states: bool = False) -> TrajectoryRecord:
    """Single trajectory, deterministic for a given (seed, index)."""
    return run_one(batch_kernel(s, t_max, record_grid, keep_states), seed,
                   index)


def run_ensemble(s: Scenario, t_max: float, n_traj: int, seed: int = 0,
                 record_grid: float | None = None, keep_states: bool = False,
                 workers: int = 1) -> list[TrajectoryRecord]:
    """Ensemble of trajectories with per-trajectory substreams; the records
    are identical for any ``workers`` value (`run_batches`)."""
    return run_records(batch_kernel(s, t_max, record_grid, keep_states),
                       seed, n_traj, workers)
