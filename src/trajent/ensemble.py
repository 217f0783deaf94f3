"""The ensemble driver, ensemble reduction and exponential rate estimation.

`run_batches` runs a batch kernel, a pure array function, over trajectories
0..N-1 in fixed batches, split over worker processes if asked, and applies a
per-batch step where each batch is computed.  There are two steps:
- keep the arrays: `run_records` builds the `TrajectoryRecord`s from them in
  the calling process (the library path; memory grows with N);
- reduce the (B, G) concurrences to their count, sum and summed squared
  deviation: `run_average` merges these in batch order by the Chan-Golub-
  LeVeque update into the `EnsembleSummary`, with no records (the CLI path;
  memory is one batch per worker).
`average` reduces records by the same moment formula.  Trajectory k of a run
with master seed s draws only from its own substream, and batches are merged
in a fixed order, so records and summaries are identical for any worker
count and bit-stable for a given (seed, n_traj).

A substream is PCG64 seeded by SeedSequence(s, spawn_key=(k,)), and it has
two readers: `trajectory_rng(s, k)`, a numpy Generator (the QSD engine draws
its normals from it), and `Substreams(s, indices)`, which reads the same
uniforms for a whole batch as arrays, without a Generator per trajectory (the
jump engine).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import logging
import time
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import FitWindowError

__all__ = ["EnsembleSummary", "JumpEvent", "RateFit", "Substreams",
           "TrajectoryRecord", "average", "empirical_density", "fit_rate",
           "fit_rate_series", "record_times", "run_average", "run_batches",
           "run_one", "run_records", "trajectory_rng"]

WINDOW_SNR = 5.0
MIN_FIT_POINTS = 10
_BATCH = 512  # fixed internal batch width; keeps results worker-independent

log = logging.getLogger("trajent")


class JumpEvent(NamedTuple):
    time: float
    channel_id: str


@dataclass
class TrajectoryRecord:
    """One trajectory sampled on a uniform grid."""
    seed: int
    index: int
    times: np.ndarray
    concurrences: np.ndarray
    events: tuple[JumpEvent, ...] = ()
    states: np.ndarray | None = field(default=None, repr=False)


def trajectory_rng(master_seed: int, k: int) -> np.random.Generator:
    """Independent generator for trajectory k of a run seeded with master_seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed,
                                                        spawn_key=(k,)))


# numpy's SeedSequence constants (a pool of 4 uint32 words), and PCG64's
# 128-bit LCG multiplier as 64-bit limbs, the low limb also as 32-bit halves
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875,
                                      0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MUL_HI, _MUL_LO = 2549297995355413924, 4865540595714422341
_MUL_LO0, _MUL_LO1 = _MUL_LO & _M32, _MUL_LO >> 32


def _uint32_words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of an integer, low word first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


class _Hash:
    """SeedSequence's running hash of uint32 columns: xor with the constant,
    advance it, multiply by it and fold the high half down."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _M32
        value = value * np.uint32(self.const)
        return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return z ^ (z >> 16)


def _step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
          inc_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step, state * multiplier + inc mod 2^128, on uint64 limbs.

    The high 64 bits of lo * _MUL_LO come from 32-bit halves, whose partial
    products and sums stay below 2^64.
    """
    lo0, lo1 = lo & np.uint64(_M32), lo >> np.uint64(32)
    t = lo0 * np.uint64(_MUL_LO0)
    u = lo1 * np.uint64(_MUL_LO0) + (t >> np.uint64(32))
    v = lo0 * np.uint64(_MUL_LO1) + (u & np.uint64(_M32))
    carry_hi = (lo1 * np.uint64(_MUL_LO1) + (u >> np.uint64(32))
                + (v >> np.uint64(32)))
    new_lo = lo * np.uint64(_MUL_LO) + inc_lo
    new_hi = (carry_hi + hi * np.uint64(_MUL_LO) + lo * np.uint64(_MUL_HI)
              + inc_hi + (new_lo < inc_lo))
    return new_hi, new_lo


class Substreams:
    """The uniforms of ``trajectory_rng(seed, k).random()`` for a batch of k.

    Row i reads the substream of ``indices[i]`` with no Generator: numpy's
    SeedSequence(seed, spawn_key=(k,)) is mixed for every row at once in
    uint32 columns, PCG64 is seeded from it as numpy does, and each draw
    advances only the rows it is asked for, with the XSL-RR output and
    numpy's 53-bit double.  Indices must be below 2^64.
    """

    def __init__(self, seed: int, indices):
        keys = np.asarray(indices)
        if keys.size and keys.min() < 0:
            raise ValueError("expected non-negative integer")
        keys = keys.astype(np.uint64)
        run = _uint32_words(int(seed))
        run += [0] * (4 - len(run))  # numpy pads the seed when spawned
        b = len(keys)
        entropy = [np.full(b, w, dtype=np.uint32) for w in run]
        entropy += [(keys & np.uint64(_M32)).astype(np.uint32),
                    (keys >> np.uint64(32)).astype(np.uint32)]
        # only rows with k >= 2^32 have the last word, a key's second
        has_word = [True] * (len(entropy) - 1) + [keys > _M32]
        hash_ = _Hash(_INIT_A, _MULT_A)
        pool = [hash_(w) for w in entropy[:4]]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hash_(pool[src]))
        for w, has in zip(entropy[4:], has_word[4:]):
            for dst in range(4):
                pool[dst] = np.where(has, _mix(pool[dst], hash_(w)), pool[dst])
        # generate_state(4, uint64): 8 hashed pool words, low word first
        hash_ = _Hash(_INIT_B, _MULT_B)
        state = [hash_(pool[i % 4]).astype(np.uint64) for i in range(8)]
        s_hi, s_lo, q_hi, q_lo = (state[2 * j] | state[2 * j + 1]
                                  << np.uint64(32) for j in range(4))
        # PCG64 seeding: inc = 2 initseq + 1, state = 0, step, add, step
        self.inc_hi = q_hi << np.uint64(1) | q_lo >> np.uint64(63)
        self.inc_lo = q_lo << np.uint64(1) | np.uint64(1)
        lo = self.inc_lo + s_lo
        hi = self.inc_hi + s_hi + (lo < s_lo)
        self.hi, self.lo = _step(hi, lo, self.inc_hi, self.inc_lo)

    def random(self, rows: np.ndarray) -> np.ndarray:
        """The next uniform in [0, 1) of each row in ``rows`` (distinct)."""
        hi, lo = _step(self.hi[rows], self.lo[rows], self.inc_hi[rows],
                       self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
        return (x >> np.uint64(11)) * 2.0 ** -53


def record_times(t_max: float, record_grid: float | None) -> np.ndarray:
    """Record points 0, g, ..., t_max; g defaults to t_max / 100."""
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    if record_grid is None:
        record_grid = t_max / 100.0
    if not 0 < record_grid <= t_max + 1e-12:
        raise ValueError("need 0 < record_grid <= t_max")
    n_rec = int(round(t_max / record_grid))
    if abs(n_rec * record_grid - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError("record_grid must divide t_max")
    return (t_max / n_rec) * np.arange(n_rec + 1)


def _records(seed: int, k0: int, times: np.ndarray, conc: np.ndarray,
             states: np.ndarray | None,
             clicks: tuple | None) -> list[TrajectoryRecord]:
    """One batch's records, as views of its arrays.  The clicks come in round
    order, so a stable sort by row groups each row's clicks in time order."""
    b = len(conc)
    events = [()] * b
    if clicks is not None:
        row, t, channel = clicks
        order = np.argsort(row, kind="stable")
        flat = list(map(JumpEvent._make,
                        zip(t[order].tolist(), channel[order].tolist())))
        ends = np.cumsum(np.bincount(row, minlength=b)).tolist()
        events = [tuple(flat[i:j]) for i, j in zip([0] + ends, ends)]
    return [TrajectoryRecord(seed=seed, index=k0 + i, times=times,
                             concurrences=conc[i], events=events[i],
                             states=None if states is None else states[i])
            for i in range(b)]


def run_one(kernel, seed: int, index: int) -> TrajectoryRecord:
    """Trajectory ``index`` of ``kernel``, equal to that record of a run."""
    return _records(seed, index, *kernel(seed, [index]))[0]


@dataclass(frozen=True)
class EnsembleSummary:
    """Pointwise ensemble statistics of the concurrence on a shared grid."""
    times: np.ndarray
    mean_c: np.ndarray
    stderr: np.ndarray
    n_traj: int
    empirical_rho: np.ndarray | None = field(default=None, repr=False)


class _Moments(NamedTuple):
    """Count, sum and summed squared deviation of concurrences per grid point."""
    n: int
    total: np.ndarray
    m2: np.ndarray


def _moments(conc: np.ndarray) -> _Moments:
    """The moments of (B, G) concurrences, two-pass as numpy's mean and std."""
    n, total = len(conc), conc.sum(axis=0)
    return _Moments(n, total, ((conc - total / n) ** 2).sum(axis=0))


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """Chan, Golub & LeVeque's pairwise update (Am. Stat. 37, 242 (1983))."""
    n = a.n + b.n
    delta = b.total / b.n - a.total / a.n
    return _Moments(n, a.total + b.total,
                    a.m2 + b.m2 + delta ** 2 * (a.n * b.n / n))


def _summary(times: np.ndarray, m: _Moments,
             rho: np.ndarray | None = None) -> EnsembleSummary:
    mean = m.total / m.n
    stderr = np.sqrt(m.m2 / (m.n - 1)) / np.sqrt(m.n) if m.n > 1 \
        else np.zeros_like(mean)
    return EnsembleSummary(times=times, mean_c=mean, stderr=stderr, n_traj=m.n,
                           empirical_rho=rho)


def _keep(batch: tuple) -> tuple:
    """The records step: a batch's arrays, as the kernel returned them."""
    return batch


def _reduce(batch: tuple) -> tuple:
    """The streamed step: a batch's record points and concurrence moments."""
    return batch[0], _moments(batch[1])


def _chunk(kernel, step, seed: int, k0: int, k1: int) -> list:
    return [step(kernel(seed, range(b0, min(b0 + _BATCH, k1))))
            for b0 in range(k0, k1, _BATCH)]


def run_batches(kernel, seed: int, n_traj: int, workers: int, step=_keep):
    """Yield ``step(kernel(seed, indices))`` for trajectories 0..n_traj-1,
    _BATCH at a time, in batch order.

    A kernel returns ``(times, conc, states, clicks)``: the record points, the
    (B, G) concurrences, the (B, G, 4) states or None, and the clicks as
    (row, time, channel id) arrays or None.  ``step`` runs where the batch is
    computed: `_keep` passes the arrays on, `_reduce` makes them moments.
    Workers split the index range on fixed batch boundaries, so the batches
    are the same for any ``workers``; ``kernel`` must pickle (e.g. a partial
    of a module-level function).  Progress is logged at INFO as each batch,
    or each worker's share, arrives.
    """
    if n_traj <= 0:
        raise ValueError("n_traj must be positive")
    span = _BATCH  # trajectories per chunk: one batch, or a worker's share
    if workers > 1:
        span *= -(-n_traj // _BATCH // workers)
    starts = range(0, n_traj, span)
    ends = [min(k0 + span, n_traj) for k0 in starts]
    pool = (concurrent.futures.ProcessPoolExecutor(max_workers=len(ends))
            if workers > 1 and len(ends) > 1 else None)
    t0 = time.perf_counter()
    with pool or contextlib.nullcontext():
        chunks = (pool.map if pool else map)(
            _chunk, repeat(kernel), repeat(step), repeat(seed), starts, ends)
        for done, chunk in zip(ends, chunks):
            elapsed = time.perf_counter() - t0
            log.info("ensemble: %d/%d trajectories, %.2f s elapsed, ETA %.2f s",
                     done, n_traj, elapsed, elapsed * (n_traj / done - 1))
            yield from chunk


def run_records(kernel, seed: int, n_traj: int,
                workers: int) -> list[TrajectoryRecord]:
    """The records path: every trajectory's record, built in this process
    from the kept arrays.  All records share the first batch's grid."""
    records = []
    for times, *arrays in run_batches(kernel, seed, n_traj, workers):
        records += _records(seed, len(records),
                            records[0].times if records else times, *arrays)
    return records


def run_average(kernel, seed: int, n_traj: int,
                workers: int) -> EnsembleSummary:
    """The streamed path: `average` of `run_records` without the records.

    Each batch is reduced to moments where it is computed, and the moments
    are merged here in batch order, so the summary is bit-identical for any
    ``workers`` and memory does not grow with ``n_traj``.
    """
    batches = run_batches(kernel, seed, n_traj, workers, step=_reduce)
    times, acc = next(batches)
    for _, m in batches:
        acc = _merge(acc, m)
    return _summary(times, acc)


def _common_grid(records: list[TrajectoryRecord]) -> np.ndarray:
    if not records:
        raise ValueError("cannot average an empty ensemble")
    t0 = records[0].times
    if not all(r.times is t0 or np.array_equal(r.times, t0) for r in records):
        raise ValueError("trajectory records lie on different time grids")
    return t0


def average(records: list[TrajectoryRecord]) -> EnsembleSummary:
    """Mean and standard error of the concurrence; empirical density if kept."""
    times = _common_grid(records)
    rho = None
    if all(r.states is not None for r in records):
        rho = empirical_density(records)
    return _summary(times, _moments(np.stack([r.concurrences for r in records])),
                    rho)


def empirical_density(records: list[TrajectoryRecord]) -> np.ndarray:
    """Mean projector (1/N) sum_k |psi_k(t)><psi_k(t)| on the grid, (G,4,4)."""
    _common_grid(records)
    if any(r.states is None for r in records):
        raise ValueError("records were produced without keep_states")
    states = np.stack([r.states for r in records], axis=1)  # (G, N, 4)
    return states.transpose(0, 2, 1) @ np.conjugate(states) / states.shape[1]


@dataclass(frozen=True)
class RateFit:
    """Weighted log-linear fit mean_c ~ c0 exp(-rate t)."""
    rate: float
    rate_stderr: float
    c0: float
    window: tuple[float, float]
    n_points: int
    r_squared: float


def fit_rate_series(times: np.ndarray, mean_c: np.ndarray,
                    stderr: np.ndarray | None = None) -> RateFit:
    """Exponential decay rate from a mean-concurrence series.

    The fit runs on ln(mean_c) over the maximal initial window in which the
    signal is significant (mean_c > 5 stderr and positive).  Points are
    weighted by (mean_c/stderr)^2 — the variance of the log — with exact
    (zero stderr) points pinned at the largest finite weight; a fully exact
    series falls back to an ordinary least-squares fit.

    Raises
    ------
    FitWindowError
        If fewer than ``MIN_FIT_POINTS`` usable points remain.
    """
    times = np.asarray(times, dtype=float)
    mean_c = np.asarray(mean_c, dtype=float)
    stderr = np.zeros_like(mean_c) if stderr is None \
        else np.asarray(stderr, dtype=float)
    if times.shape != mean_c.shape or times.shape != stderr.shape:
        raise ValueError("times, mean_c and stderr must have matching shapes")

    usable = (mean_c > WINDOW_SNR * stderr) & (mean_c > 0.0)
    n_win = int(np.argmin(usable)) if not usable.all() else usable.size
    if n_win < MIN_FIT_POINTS:
        raise FitWindowError(
            f"only {n_win} leading points have mean concurrence above "
            f"{WINDOW_SNR} standard errors (need {MIN_FIT_POINTS}); "
            "not enough signal to fit a decay rate")

    t = times[:n_win]
    y = np.log(mean_c[:n_win])
    se = stderr[:n_win]
    positive = se > 0.0
    if positive.any():
        w = np.zeros_like(se)
        w[positive] = (mean_c[:n_win][positive] / se[positive]) ** 2
        w[~positive] = w[positive].max()
        known_variance = True
    else:
        w = np.ones_like(se)
        known_variance = False

    x = np.column_stack([np.ones_like(t), t])
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(x * sw[:, None], y * sw, rcond=None)
    resid = y - x @ beta
    xtwx_inv = np.linalg.inv((x * w[:, None]).T @ x)
    if known_variance:
        var_slope = xtwx_inv[1, 1]
    else:
        dof = max(1, n_win - 2)
        var_slope = xtwx_inv[1, 1] * float(w @ resid ** 2) / dof
    y_bar = float(w @ y) / float(w.sum())
    ss_tot = float(w @ (y - y_bar) ** 2)
    ss_res = float(w @ resid ** 2)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    return RateFit(rate=float(-beta[1]),
                   rate_stderr=float(np.sqrt(max(0.0, var_slope))),
                   c0=float(np.exp(beta[0])),
                   window=(float(t[0]), float(t[-1])),
                   n_points=n_win,
                   r_squared=r2)


def fit_rate(summary: EnsembleSummary) -> RateFit:
    """Exponential decay rate of an ensemble's mean concurrence."""
    return fit_rate_series(summary.times, summary.mean_c, summary.stderr)
