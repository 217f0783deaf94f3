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

There is no time step.  H_eff is diagonalized once per batch.  Each click
round solves S(tau) = r for every active row over its remaining horizon
[t_last, t_max] by a safeguarded Newton iteration; the record points are then
filled from each row's last click at or before them by the exact propagator.

Reproducibility: the batch kernel returns arrays (record points,
concurrences, optional states, clicks as (row, time, channel)), which
`ensemble` turns into records or reduces to moments.  Trajectory k of a run
with master seed s draws only from its substream `ensemble.trajectory_rng(s,
k)`, read for the whole batch by `ensemble.Substreams`: the first threshold,
then per click the channel draw and the next threshold, so it does not
depend on batch layout or worker count.
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


def _evolve(c: np.ndarray, lam: np.ndarray, w: np.ndarray,
            tau: np.ndarray) -> np.ndarray:
    """exp(-i H_eff tau_b) psi_b, each row given as c_b = W^-1 psi_b."""
    return (c * np.exp(-1j * np.multiply.outer(tau, lam))) @ w.T


def _click_delay(c: np.ndarray, lam: np.ndarray, w: np.ndarray,
                 k_op: np.ndarray, log_r: np.ndarray,
                 span: np.ndarray) -> np.ndarray:
    """Delay tau in [0, span] at which the no-click norm S(tau) falls to r.

    ``span`` is the row's remaining horizon t_max - t_last, and S(0) > r >=
    S(span).  S falls with dS/dtau = -2 <psi|K|psi>; Newton steps on ln S -
    ln r start at tau = 0.  For H0 = 0, ln S is convex and the steps approach
    the root from below; otherwise a step that leaves the bracket, and every
    step after _NEWTON_ITERS, is replaced by bisection.
    """
    lo = np.zeros(len(c))
    hi = np.array(span, dtype=float)
    tau = lo.copy()
    tol = _TAU_TOL * np.maximum(1.0, hi)
    todo = np.arange(len(c))
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(_MAX_ITERS):
            t = tau[todo]
            psi = _evolve(c[todo], lam, w, t)
            s2 = _norm2(psi)
            f = np.log(s2) - log_r[todo]
            below = f <= 0.0
            lo[todo] = np.where(below, lo[todo], t)
            hi[todo] = np.where(below, t, hi[todo])
            k_mean = np.einsum("bi,ij,bj->b", np.conjugate(psi), k_op,
                               psi).real
            new = t + f * s2 / (2.0 * k_mean)
            bisect = ((new < lo[todo]) | ~(new <= hi[todo])
                      | (it >= _NEWTON_ITERS))
            new = np.where(bisect, 0.5 * (lo[todo] + hi[todo]), new)
            done = ((np.abs(new - t) <= tol[todo]) | (f == 0.0)
                    | (hi[todo] - lo[todo] <= tol[todo]))
            tau[todo] = new
            todo = todo[~done]
            if not todo.size:
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


def _run_batch(s: Scenario, t_max: float, record_grid: float | None,
               keep_states: bool, seed: int, indices) -> tuple:
    """Exact waiting-time kernel evolving a batch of trajectories together.

    Each round takes every active row's next click, and a row's segments
    (post-click W^-1 psi, click time) then fill its record points.  A row
    draws only from its own substream, so it does not depend on its batch.
    Returns the columns `ensemble.run_batches` takes.
    """
    times = record_times(t_max, record_grid)
    if (drift := kernel_oscillation(s)) > KERNEL_DRIFT_TOL:
        raise ValueError(f"damping kernel K(t) oscillates (amplitude "
                         f"{drift:.3g}); the jump engine needs a static "
                         "no-click generator")
    lam, w = np.linalg.eig(s.h_eff)
    if np.linalg.cond(w) > 1e8:
        raise NumericalError("H_eff is (nearly) defective; its eigenvectors "
                             "do not give a stable no-click propagator")
    w_inv = np.linalg.inv(w)
    b = len(indices)

    draws = Substreams(seed, indices)
    threshold = draws.random(np.arange(b))
    act = np.arange(b)
    c = np.tile(w_inv @ s.initial / np.linalg.norm(s.initial), (b, 1))
    t_last = np.zeros(b)
    segs = [(act, c, t_last)]
    channels = [np.zeros(0, dtype=int)]  # each round's click channels
    while True:
        more = _norm2(_evolve(c, lam, w, t_max - t_last)) <= threshold[act]
        act, c, t_last = act[more], c[more], t_last[more]
        if not act.size:
            break
        tau = _click_delay(c, lam, w, s.k_op, np.log(threshold[act]),
                           t_max - t_last)
        t_last = t_last + tau
        at = _evolve(c, lam, w, tau)
        at /= np.sqrt(_norm2(at))[:, None]
        after, m = _jump(s, at, t_last, draws.random(act))
        channels.append(m)
        threshold[act] = draws.random(act)
        c = after @ w_inv.T
        segs.append((act, c, t_last))

    # Segments by row, in click order; each is current from `first`, the first
    # record point at or after its start (clipped: a click may round past
    # t_max).  cur[i, k] - 1 indexes row i's current segment at point k.
    seg_row, seg_c, seg_t = map(np.concatenate, zip(*segs))
    ids = np.array([ch.id for ch in s.channels], dtype=object)
    clicks = seg_row[b:], seg_t[b:], ids[np.concatenate(channels)]
    order = np.argsort(seg_row, kind="stable")
    seg_c, seg_t = seg_c[order], seg_t[order]
    g = len(times)
    first = np.minimum(np.searchsorted(times, seg_t), g - 1)
    cur = np.bincount(seg_row[order] * g + first, minlength=b * g)
    cur = np.cumsum(cur, out=cur).reshape(b, g)
    seg_c *= np.exp(np.multiply.outer(times[first] - seg_t, -1j * lam))
    hop = np.exp(np.multiply.outer(times, -1j * lam))  # times[n] = n * grid
    conc = np.empty((b, g))
    states = np.empty((b, g, 4), dtype=complex) if keep_states else None
    for k in range(g):
        j = cur[:, k] - 1
        psi = (seg_c.take(j, 0) * hop.take(k - first.take(j), 0)) @ w.T
        psi /= np.sqrt(_norm2(psi))[:, None]
        conc[:, k] = concurrence_batch(psi)
        if keep_states:
            states[:, k] = psi

    return times, conc, states, clicks


def batch_kernel(s: Scenario, t_max: float, record_grid: float | None = None,
                 keep_states: bool = False):
    """The engine as a picklable ``kernel(seed, indices)`` for `ensemble`."""
    return partial(_run_batch, s, t_max, record_grid, keep_states)


def run_trajectory(s: Scenario, t_max: float, seed: int = 0, index: int = 0,
                   record_grid: float | None = None,
                   keep_states: bool = False) -> TrajectoryRecord:
    """Single trajectory, deterministic for a given (seed, index)."""
    return run_one(batch_kernel(s, t_max, record_grid, keep_states), seed,
                   index)


def run_ensemble(s: Scenario, t_max: float, n_traj: int, seed: int = 0,
                 record_grid: float | None = None, keep_states: bool = False,
                 workers: int = 1) -> list[TrajectoryRecord]:
    """Ensemble of trajectories with per-trajectory substreams.

    The records are identical for any ``workers`` value (`run_batches`).
    """
    return run_records(batch_kernel(s, t_max, record_grid, keep_states),
                       seed, n_traj, workers)
