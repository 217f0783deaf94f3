"""Jump-counting (photodetection-style) trajectory unraveling, sampled exactly.

Between detector clicks the state follows the no-click propagator
exp(-i H_eff tau) with H_eff = H0 - i K, and its squared norm S(tau) is the
probability of no click during tau.  H_eff is static: a `Scenario` whose
K(t) oscillates cannot be built (`models.kernel_oscillation`).  So click
times are sampled exactly by the waiting-time method (Dalibard, Castin &
Molmer, PRL 68, 580 (1992)): draw a threshold r uniform in [0, 1), evolve
the unnormalized state, and click when S falls to r.  The click goes to
channel m with probability proportional to gamma_m |J_m(t) psi|^2, and the
post-click state J_m psi / |J_m psi| starts a new waiting time with a fresh
threshold.

There is no time step.  `batch_kernel` checks the grid and diagonalizes
H_eff = W diag(lambda) W^-1, once, before any kernel call; it refuses an
eigenbasis whose propagator W e^{-i lambda t} W^-1 is off from `expm`'s by
more than _PROPAGATOR_TOL, as near an exceptional point of H_eff.  Each
click round solves S(tau) = r for every active row over its remaining
horizon [t_last, t_max] by a safeguarded Newton iteration.  The record
points are then filled in time order: each row's W^-1 psi is carried to the
next point by exp(-i lambda g), or replaced by its last post-click state if
it clicked in between.  C = |prec(psi)| / |psi|^2 is read from the
unnormalized psi (prec is quadratic); only kept states are normalized.

Product states leave early.  A row with one qubit in a basis state (a zero
amplitude in each of the pairs uu, dd and ud, du) has a preconcurrence of
exactly 0, and it keeps one when the scenario keeps zero amplitudes zero:
H_eff is diagonal, and every channel is static, acts on one qubit
(`Scenario.qubits`) and maps each basis state to a multiple of one
(sigma_-, sigma_+, sigma_z).  The kernel's own arithmetic then gives C = 0
exactly at every later point, so unless the caller keeps states or clicks,
such a row leaves the click loop, and the record fill writes C = 0 at its
later points without evolving it: the same concurrences, bit for bit, as a
kernel that samples every click.

Reproducibility: the batch kernel returns arrays (record points,
concurrences, optional states, optional clicks as (row, time, channel)), which
`ensemble` turns into records or reduces to moments.  Trajectory k of a run
with master seed s draws only from its substream, PCG64 seeded by numpy's
SeedSequence(s, spawn_key=(k,)), read as uniforms for the whole call by
`ensemble.Substreams`: the first threshold, then per click the channel draw
and the next threshold, so it does not depend on the rows that share its
call or on the worker count: records are byte-identical for any
``workers``.  For a fixed seed they differ from those of versions before
the real-view contractions (`_norm2`, `_k_mean`, `_scaled`) and before the
real no-click exponentials (-i lambda is kept real when it is, as for every
bundled scenario but the two common-bath ones) at rounding level only, by
at most about 1e-14, with the same click channels.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .ensemble import (Substreams, TrajectoryRecord, record_times, run_one,
                       run_records)
from .entanglement import concurrence_batch
from .errors import ConvergenceError, NumericalError
from .linalg import expm
from .models import Scenario

__all__ = ["batch_kernel", "run_trajectory", "run_ensemble"]

_TAU_TOL = 1e-13  # accuracy of a sampled click time, relative to max(1, span)
_NEWTON_ITERS = 30  # Newton steps before a click-time search only bisects
_MAX_ITERS = _NEWTON_ITERS + 80  # enough bisections to reach _TAU_TOL
_PROPAGATOR_TOL = 1e-10  # entrywise error allowed of the eigenbasis propagator


def _norm2(psi: np.ndarray) -> np.ndarray:
    """|psi_b|^2 for contiguous complex rows psi, through their real view."""
    v = psi.view(float)
    return np.einsum("bi,bi->b", v, v)


def _scaled(psi: np.ndarray, f: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Contiguous complex rows psi_b times real factors f_b, as a multiply
    of their real views (a complex / real divide is slower)."""
    if out is not None:
        out = out.view(float)
    return np.multiply(psi.view(float), f[:, None], out=out).view(complex)


def _k_mean(psi: np.ndarray, k_op: np.ndarray) -> np.ndarray:
    """<psi_b|K|psi_b> for contiguous rows psi and Hermitian K: the real
    part of conj(psi).(K psi), summed over the rows' real views."""
    return np.einsum("bi,bi->b", psi.view(float), (psi @ k_op.T).view(float))


def _evolve(c: np.ndarray, mlam: np.ndarray, w: np.ndarray,
            tau: np.ndarray) -> np.ndarray:
    """exp(-i H_eff tau_b) psi_b for rows c_b = W^-1 psi_b; mlam = -i lam,
    real if it has no imaginary part, so that the exponentials are real."""
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
            new = t + f * s2 / (2.0 * _k_mean(psi, k_op))
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
    n2 = _norm2(amp.reshape(-1, 4)).reshape(amp.shape[:2])  # |J_m psi_b|^2
    cum = np.cumsum(s.rates * n2, axis=1)
    m = np.minimum((cum <= u[:, None] * cum[:, -1:]).sum(axis=1),
                   len(s.channels) - 1)
    rows = np.arange(len(m))
    norm = np.sqrt(n2[rows, m])
    dead = np.flatnonzero(norm <= 1e-150)
    if dead.size:
        raise NumericalError(
            f"click selected on channel {s.channels[m[dead[0]]].id!r} whose "
            "operator annihilates the current state")
    return _scaled(amp[rows, m], 1.0 / norm), m


def _pinned(psi: np.ndarray) -> np.ndarray:
    """Rows with one qubit in a basis state: a zero amplitude in each of the
    pairs (uu, dd) and (ud, du), so both products of prec are exactly 0."""
    z = psi == 0.0
    return (z[..., 0] | z[..., 3]) & (z[..., 1] | z[..., 2])


def _keeps_zeros(s: Scenario, w: np.ndarray, w_inv: np.ndarray) -> bool:
    """Whether every step of the kernel keeps a zero amplitude exactly 0 and
    a `_pinned` row pinned: W and W^-1 (so H_eff diagonal) and every
    channel operator have at most one nonzero per column, and no channel
    acts on both qubits (`Scenario.qubits`; a CNOT would entangle) or
    rotates (only its t = 0 operator is in `lifted_ops`)."""
    return (not s.time_dependent
            and all(q is not None for q in s.qubits[1])
            and all((np.count_nonzero(m, axis=-2) <= 1).all()
                    for m in (w, w_inv, s.lifted_ops)))


def _run_batch(s: Scenario, t_max: float, times: np.ndarray, mlam: np.ndarray,
               w: np.ndarray, w_inv: np.ndarray, keep_states: bool,
               keep_clicks: bool, exits: bool, seed: int, indices) -> tuple:
    """Exact waiting-time kernel evolving a batch of trajectories together.
    A row draws only from its own substream, so it does not depend on its
    batch.  With ``exits``, a `_pinned` row leaves the click loop, and its
    later record points read C = 0.
    Returns the columns `ensemble.run_batches` takes."""
    b, g = len(indices), len(times)

    draws = Substreams(seed, indices)
    threshold = draws.random(np.arange(b))
    act, t_last = np.arange(b), np.zeros(b)
    c = np.tile(w_inv @ s.psi0, (b, 1))
    segs = [(act, c, t_last)]
    channels = [np.zeros(0, dtype=int)]  # each round's click channels
    exit_at = np.full(b, g)  # each row's first record point with C = 0
    if exits and _pinned(s.psi0):
        exit_at[:] = 0
        act, c, t_last = act[:0], c[:0], t_last[:0]
    while True:
        more = _norm2(_evolve(c, mlam, w, t_max - t_last)) <= threshold[act]
        act, c, t_last = act[more], c[more], t_last[more]
        if not act.size:
            break
        tau = _click_delay(c, mlam, w, s.k_op, np.log(threshold[act]),
                           t_max - t_last)
        t_last = t_last + tau
        at = _evolve(c, mlam, w, tau)
        after, m = _jump(s, _scaled(at, 1.0 / np.sqrt(_norm2(at))), t_last,
                         draws.random(act))
        channels.append(m)
        if exits:
            product = _pinned(after)
            exit_at[act[product]] = np.minimum(
                np.searchsorted(times, t_last[product]), g - 1)
            act, after, t_last = (a[~product] for a in (act, after, t_last))
        threshold[act] = draws.random(act)
        c = after @ w_inv.T
        segs.append((act, c, t_last))

    # A segment (post-click W^-1 psi, click time) starts at `first`, the first
    # record point at or after its click (clipped: a click may round past
    # t_max), and is shifted there.  `order` takes a row's segments in click
    # order and keeps the last of those with one `first`, then sorts them by
    # `first`, the b initial segments leading.
    seg_row, seg_c, seg_t = map(np.concatenate, zip(*segs))
    del segs  # freed, and the outputs taken before the sort: a lower peak
    conc = np.zeros((b, g))
    states = np.empty((b, g, 4), dtype=complex) if keep_states else None
    ids = np.array([ch.id for ch in s.channels], dtype=object)
    clicks = (seg_row[b:], seg_t[b:], ids[np.concatenate(channels)]) \
        if keep_clicks else None
    small = np.min_scalar_type(g)  # radix sorts on a small dtype
    first = np.minimum(np.searchsorted(times, seg_t), g - 1)
    order = np.argsort(seg_row, kind="stable")
    order = order[np.append(np.diff((first * b + seg_row)[order]) != 0, True)]
    order = order[np.argsort(first[order].astype(small), kind="stable")]
    seg_c *= np.exp(np.outer(times[first] - seg_t, mlam))
    start = np.searchsorted(first[order], np.arange(g + 1))  # by point
    # `rank` lists the rows by exit point, latest first, so the rows still
    # simulated at point k are its first live[k]; d carries their W^-1 psi
    # in that order, and a row's later points keep C = 0 once it leaves.
    rank = np.argsort((g - exit_at).astype(small), kind="stable")
    pos = np.empty(b, dtype=int)
    pos[rank] = np.arange(b)
    live = b - np.cumsum(np.bincount(exit_at, minlength=g + 1))
    slot, d = pos[seg_row], seg_c[order[:b]][rank]
    hop = np.exp(times[1] * mlam)  # times[k] = k g
    for k in range(g):
        n = live[k]
        if not n:
            break
        j = order[start[k]:start[k + 1]]
        d[slot[j]] = seg_c[j]
        psi = d[:n] @ w.T
        n2 = _norm2(psi)
        if exits:  # rank is not the identity
            conc[rank[:n], k] = concurrence_batch(psi) / n2
        else:
            np.divide(concurrence_batch(psi), n2, out=conc[:, k])
        if keep_states:  # no row leaves, so rank is the identity
            _scaled(psi, 1.0 / np.sqrt(n2), out=states[:, k])
        d[:n] *= hop
    return times, conc, states, clicks


def batch_kernel(s: Scenario, t_max: float, record_grid: float | None = None,
                 keep_states: bool = False, keep_clicks: bool = False):
    """The engine as a picklable ``kernel(seed, indices)`` for `ensemble`;
    every check runs here, once, before any kernel call.

    The kernel returns the clicks only with ``keep_clicks`` (None otherwise).
    When it keeps neither states nor clicks and the scenario keeps zero
    amplitudes zero (`_keeps_zeros`), a row leaves the click loop as soon as
    one of its qubits is in a basis state (`_pinned`): its later record
    points read C = 0, as the records' own do, and its later clicks are not
    sampled.
    """
    times = record_times(t_max, record_grid)
    lam, w = np.linalg.eig(s.h_eff)
    try:  # measured at the first record point and at t_max
        w_inv = np.linalg.inv(w)
        gap = max(np.max(np.abs((w * np.exp(-1j * lam * t)) @ w_inv
                                - expm(-1j * t * s.h_eff)))
                  for t in (times[1], t_max))
    except np.linalg.LinAlgError:  # W is exactly singular
        gap = np.inf
    if not gap <= _PROPAGATOR_TOL:
        raise NumericalError(f"H_eff is (nearly) defective: its eigenbasis "
                             f"propagator is off by {gap:.3g} from expm's "
                             f"(more than {_PROPAGATOR_TOL:g})")
    exits = not (keep_states or keep_clicks) and _keeps_zeros(s, w, w_inv)
    mlam = -1j * lam
    if not mlam.imag.any():  # a real spectrum: real exponentials
        mlam = mlam.real
    return partial(_run_batch, s, t_max, times, mlam, w, w_inv,
                   keep_states, keep_clicks, exits)


def run_trajectory(s: Scenario, t_max: float, seed: int = 0, index: int = 0,
                   record_grid: float | None = None,
                   keep_states: bool = False) -> TrajectoryRecord:
    """Single trajectory, deterministic for a given (seed, index)."""
    return run_one(batch_kernel(s, t_max, record_grid, keep_states,
                                keep_clicks=True), seed, index)


def run_ensemble(s: Scenario, t_max: float, n_traj: int, seed: int = 0,
                 record_grid: float | None = None, keep_states: bool = False,
                 workers: int = 1) -> list[TrajectoryRecord]:
    """Ensemble of trajectories with per-trajectory substreams; the records
    are identical for any ``workers`` value (`run_batches`)."""
    return run_records(batch_kernel(s, t_max, record_grid, keep_states,
                                    keep_clicks=True), seed, n_traj, workers)
