"""The ensemble driver, ensemble reduction and exponential rate estimation.

`run_batches` runs a batch kernel, a pure array function, over trajectories
0..N-1, split over processes if asked: the calling process computes every
workers-th kernel call and a pool of workers - 1 processes the others.  A
pooled call writes its arrays to a file in the run's temporary directory
(pickle protocol 5 out-of-band buffers, PEP 574) and sends only a small
pickle through the result pipe; the calling process reads the file into one
buffer, unlinks it, and unpickles arrays that are views of that buffer, so
neither process holds a second copy of them.  A kernel call covers up to
3584 rows (7 batches, as many as run on one OpenBLAS thread; a worker's
share if that is less), and its arrays are cut into fixed 512-row batches,
the unit of steps, merge order and progress.  A per-batch step runs where
the call is computed.  There are two steps:
- keep the arrays: `run_records` builds the `TrajectoryRecord`s from them in
  the calling process (the library path; memory grows with N).  A record's
  concurrences, states and click columns are views of its batch's arrays,
  so building one costs the same at any click count; its `JumpEvent`s are
  built only when `events` is read;
- reduce the batch: `run_average` reduces each batch to one set of moments,
  the count, the sum and summed squared deviation of the (B, G)
  concurrences, and, if the kernel kept states, the projector sum
  sum_k |psi_k><psi_k|.  It merges them in batch order by the Chan-Golub-
  LeVeque update into the `EnsembleSummary`, with no records (the CLI path;
  memory is one kernel call, O(3584 G), per process).
`average` stacks records 512 at a time, as the batches are, and reduces and
merges them the same way, so `average(run_records(...))` is
`run_average(...)` bit for bit (the jump engine's records keep clicks and
its streamed kernel does not; their concurrences agree bit for bit too), and
its memory does not grow with N beyond the records.  Trajectory k of a run
with master seed s draws only from its own substream, and batches are merged
in a fixed order, so records and summaries are identical for any worker
count and bit-stable for a given (seed, n_traj).

A substream is PCG64 seeded by SeedSequence(s, spawn_key=(k,)), and it has
one reader, `Substreams(s, indices)`, which reads a whole batch's substreams
as arrays, without a numpy Generator per trajectory: uniforms, numpy's
``Generator.random()`` (the jump engine), or raw 64-bit words,
``PCG64.random_raw`` (the QSD engine's signs).
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import logging
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, FitWindowError
from .linalg import one_thread_rows

__all__ = ["EnsembleSummary", "JumpEvent", "RateFit", "Substreams",
           "TrajectoryRecord", "average", "fit_rate", "fit_rate_series",
           "run_average", "run_batches", "run_one", "run_records"]

WINDOW_SNR = 5.0
MIN_FIT_POINTS = 10
_BATCH = 512  # rows per batch: the unit of steps, merges and progress
# Rows per kernel call at most: whole batches, so many that the jump
# kernel's (rows, 4) @ (4, 4) complex products run on one thread (3,584).
_CALL_ROWS = one_thread_rows(16, complex) // _BATCH * _BATCH

log = logging.getLogger("trajent")


class JumpEvent(NamedTuple):
    time: float
    channel_id: str


_NO_TIMES = np.zeros(0)
_NO_CHANNELS = np.zeros(0, dtype=object)


@dataclass
class TrajectoryRecord:
    """One trajectory sampled on a uniform grid, with its clicks in time order
    as two columns: ``click_times`` and ``click_channels`` (channel ids).
    From a run, the arrays are views of the batch's arrays."""
    seed: int
    index: int
    times: np.ndarray
    concurrences: np.ndarray
    click_times: np.ndarray = field(default_factory=lambda: _NO_TIMES)
    click_channels: np.ndarray = field(default_factory=lambda: _NO_CHANNELS)
    states: np.ndarray | None = field(default=None, repr=False)

    @property
    def events(self) -> tuple[JumpEvent, ...]:
        """The clicks as `JumpEvent`s, built from the columns on each read."""
        return tuple(map(JumpEvent._make, zip(self.click_times.tolist(),
                                              self.click_channels.tolist())))


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


def _output(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's XSL-RR output of a state: hi ^ lo rotated right by hi >> 58."""
    x, rot = hi ^ lo, hi >> np.uint64(58)
    return x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))


class Substreams:
    """The substreams of trajectories ``indices`` of a run seeded with seed.

    Row i reads PCG64 seeded by numpy's SeedSequence(seed,
    spawn_key=(indices[i],)) with no Generator: the SeedSequence is mixed for
    every row at once in uint32 columns, and PCG64 is seeded from it as numpy
    does.  `random` gives numpy's ``Generator.random()`` and `raw` gives
    ``PCG64.random_raw``, bit for bit; both advance one stream per row.
    Indices must be below 2^64.  So no engine imports ``numpy.random``,
    which numpy 2 loads, for milliseconds, on first use.
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
        """The next uniform in [0, 1) of each row in ``rows`` (distinct), as
        numpy's 53-bit double of the next word."""
        hi, lo = _step(self.hi[rows], self.lo[rows], self.inc_hi[rows],
                       self.inc_lo[rows])
        self.hi[rows], self.lo[rows] = hi, lo
        return (_output(hi, lo) >> np.uint64(11)) * 2.0 ** -53

    def raw(self, n: int) -> np.ndarray:
        """The next n 64-bit words of every row, (n, B) uint64: column i is
        ``random_raw(n)`` of row i's PCG64."""
        out = np.empty((n, len(self.hi)), dtype=np.uint64)
        for word in out:
            self.hi, self.lo = _step(self.hi, self.lo, self.inc_hi,
                                     self.inc_lo)
            word[:] = _output(self.hi, self.lo)
        return out


def _records(seed: int, k0: int, times: np.ndarray, conc: np.ndarray,
             states: np.ndarray | None,
             clicks: tuple | None) -> list[TrajectoryRecord]:
    """One batch's records, as views of its arrays.  The clicks come in round
    order, so a stable sort by row groups each row's clicks in time order,
    and each record's click columns are a slice of the sorted arrays."""
    b = len(conc)
    click_times, click_channels = [_NO_TIMES] * b, [_NO_CHANNELS] * b
    if clicks is not None:
        row, t, channel = clicks
        order = np.argsort(row, kind="stable")
        t, channel = t[order], channel[order]
        ends = np.cumsum(np.bincount(row, minlength=b)).tolist()
        for i, (j0, j1) in enumerate(zip([0] + ends, ends)):
            if j1 > j0:
                click_times[i], click_channels[i] = t[j0:j1], channel[j0:j1]
    return [TrajectoryRecord(seed=seed, index=k0 + i, times=times,
                             concurrences=conc[i],
                             click_times=click_times[i],
                             click_channels=click_channels[i],
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
    """Count, sum and summed squared deviation of concurrences per grid point,
    and the summed projectors sum_k |psi_k><psi_k| (G, 4, 4) if states were
    kept."""
    n: int
    total: np.ndarray
    m2: np.ndarray
    rho: np.ndarray | None = None


def _moments(conc: np.ndarray, states: np.ndarray | None = None) -> _Moments:
    """The moments of (B, G) concurrences, two-pass as numpy's mean and std,
    and the projector sum of (B, G, 4) states: per grid point one (4, B) by
    (B, 4) matmul, on views that have the same strides for a kernel batch and
    for a stack of records."""
    n, total = len(conc), conc.sum(axis=0)
    rho = None
    if states is not None:
        rho = (states.transpose(1, 2, 0)
               @ np.conjugate(states).transpose(1, 0, 2))
    return _Moments(n, total, ((conc - total / n) ** 2).sum(axis=0), rho)


def _merge(a: _Moments, b: _Moments) -> _Moments:
    """Chan, Golub & LeVeque's pairwise update (Am. Stat. 37, 242 (1983))."""
    n = a.n + b.n
    delta = b.total / b.n - a.total / a.n
    return _Moments(n, a.total + b.total,
                    a.m2 + b.m2 + delta ** 2 * (a.n * b.n / n),
                    None if a.rho is None else a.rho + b.rho)


def _summary(times: np.ndarray, m: _Moments) -> EnsembleSummary:
    mean = m.total / m.n
    stderr = np.sqrt(m.m2 / (m.n - 1)) / np.sqrt(m.n) if m.n > 1 \
        else np.zeros_like(mean)
    return EnsembleSummary(times=times, mean_c=mean, stderr=stderr, n_traj=m.n,
                           empirical_rho=None if m.rho is None
                           else m.rho / m.n)


def _keep(batch: tuple) -> tuple:
    """The records step: a batch's arrays, as the kernel returned them."""
    return batch


def _reduce(batch: tuple) -> tuple:
    """The streamed step: a batch's record points and moments, with the
    projector sum if the kernel kept states."""
    return batch[0], _moments(batch[1], batch[2])


def _cut(arrays: tuple, i: int, j: int) -> tuple:
    """Rows i..j-1 of a kernel call's arrays, with clicks re-based to row i."""
    times, conc, states, clicks = arrays
    if clicks is not None:
        row, t, channel = clicks
        mine = (row >= i) & (row < j)
        clicks = row[mine] - i, t[mine], channel[mine]
    return (times, conc[i:j], None if states is None else states[i:j],
            clicks)


def _chunk(kernel, step, seed: int, k0: int, k1: int) -> list:
    """One kernel call over k0..k1-1, cut into batches, a step for each."""
    arrays = kernel(seed, range(k0, k1))
    return [step(_cut(arrays, i, min(i + _BATCH, k1 - k0)))
            for i in range(0, k1 - k0, _BATCH)]


def _pooled_chunk(kernel, step, seed: int, k0: int, k1: int, directory: str,
                  i: int) -> tuple[bytes, list[int]]:
    """`_chunk` in a pool process.  Its result is pickled with protocol 5,
    whose out-of-band buffers (the arrays' memory, uncopied) are written to
    ``<directory>/<i>``, each padded to 64 bytes; only the in-band pickle and
    the buffers' sizes go back through the result pipe."""
    buffers = []
    head = pickle.dumps(_chunk(kernel, step, seed, k0, k1), protocol=5,
                        buffer_callback=buffers.append)
    sizes = [buf.raw().nbytes for buf in buffers]
    path = os.path.join(directory, str(i))
    try:
        with open(path, "wb") as f:
            for buf, n in zip(buffers, sizes):
                f.write(buf)
                f.write(bytes(-n % 64))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    return head, sizes


def _received(directory: str, i: int, head: bytes, sizes: list[int]) -> list:
    """The result of `_pooled_chunk` call i: its file is read into one
    buffer and unlinked, and the arrays unpickled are views of that buffer."""
    path = os.path.join(directory, str(i))
    padded = [n + -n % 64 for n in sizes]
    data = bytearray(sum(padded))
    with open(path, "rb") as f:
        f.readinto(data)
    os.unlink(path)
    view, starts = memoryview(data), np.cumsum([0] + padded).tolist()
    return pickle.loads(head, buffers=[view[j:j + n]
                                       for j, n in zip(starts, sizes)])


def run_batches(kernel, seed: int, n_traj: int, workers: int, step=_keep):
    """Yield ``step(kernel(seed, indices))`` for trajectories 0..n_traj-1,
    _BATCH at a time, in batch order.

    A kernel returns ``(times, conc, states, clicks)``: the record points, the
    (B, G) concurrences, the (B, G, 4) states or None, and the clicks as
    (row, time, channel id) arrays or None.  A kernel call covers up to
    _CALL_ROWS trajectories, a worker's share if that is less, and its arrays
    are cut into batches; a row does not depend on the rows that share its
    call, so the batches are the same for any ``workers``.  ``step`` runs
    where the batch is computed: `_keep` passes the arrays on, `_reduce`
    makes them moments.  Call i runs in this process when ``i % workers`` is
    0; the others go to a pool of at most ``workers - 1`` processes, all
    submitted up front, and none is started for one call or one worker.  A
    pooled call hands its arrays back through a file in one temporary
    directory of the run (`_pooled_chunk`, `_received`), made only when a
    pool is; a directory that cannot be made or written raises ConfigError.
    ``kernel`` must pickle (e.g. a partial of a module-level function).
    Progress is logged at INFO as each batch is yielded.
    """
    if n_traj <= 0:
        raise ValueError("n_traj must be positive")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    share = -(-n_traj // _BATCH // workers)  # batches per worker
    span = min(_BATCH * share, _CALL_ROWS)  # trajectories per kernel call
    calls = [(k0, min(k0 + span, n_traj)) for k0 in range(0, n_traj, span)]
    n_proc = min(workers, len(calls)) - 1
    try:
        directory = (tempfile.TemporaryDirectory() if n_proc
                     else contextlib.nullcontext())
    except OSError as exc:
        raise ConfigError(f"cannot make a temporary directory: {exc}") \
            from exc
    pool = (concurrent.futures.ProcessPoolExecutor(max_workers=n_proc)
            if n_proc else None)
    t0, done = time.perf_counter(), 0
    # the pool shuts down before the directory, and its files, are removed
    with directory as path, pool or contextlib.nullcontext():
        pooled = {i: pool.submit(_pooled_chunk, kernel, step, seed, k0, k1,
                                 path, i)
                  for i, (k0, k1) in enumerate(calls) if i % workers}
        for i, (k0, k1) in enumerate(calls):
            chunk = (_received(path, i, *pooled.pop(i).result())
                     if i in pooled else _chunk(kernel, step, seed, k0, k1))
            for batch in chunk:
                # a call's rows are all computed before its first batch
                done = min(done + _BATCH, n_traj)
                elapsed = time.perf_counter() - t0
                log.info("ensemble: %d/%d trajectories, %.2f s elapsed, "
                         "ETA %.2f s", done, n_traj, elapsed,
                         elapsed * (n_traj / k1 - 1))
                yield batch


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
    ``workers`` and to `average` of the records, and memory does not grow
    with ``n_traj``.  A kernel that keeps states gives ``empirical_rho``.
    """
    batches = run_batches(kernel, seed, n_traj, workers, step=_reduce)
    times, first = next(batches)
    return _summary(times, reduce(_merge, (m for _, m in batches), first))


def _common_grid(records: list[TrajectoryRecord]) -> np.ndarray:
    if not records:
        raise ValueError("cannot average an empty ensemble")
    t0 = records[0].times
    if not all(r.times is t0 or np.array_equal(r.times, t0) for r in records):
        raise ValueError("trajectory records lie on different time grids")
    return t0


def average(records: list[TrajectoryRecord]) -> EnsembleSummary:
    """Mean and standard error of the concurrence, and the empirical density
    (1/N) sum_k |psi_k(t)><psi_k(t)|, (G, 4, 4), if every record kept states.

    The records are stacked and reduced _BATCH at a time, as the kernel
    batches are, and merged in order, so for records from `run_records` this
    is `run_average`, bit for bit."""
    times = _common_grid(records)
    states = all(r.states is not None for r in records)
    blocks = (records[i:i + _BATCH] for i in range(0, len(records), _BATCH))
    return _summary(times, reduce(_merge, (
        _moments(np.stack([r.concurrences for r in block]),
                 np.stack([r.states for r in block]) if states else None)
        for block in blocks)))


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

    ``rate_stderr`` is the slope's standard error for independent points.
    The points of an ensemble mean are not independent (each averages the
    same trajectories), so it understates the seed-to-seed spread of the
    rate: about fivefold for photon counting at N = 1500, T = 3, 101 points
    (0.0018 against 0.0085 over seeds 0-19).

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
