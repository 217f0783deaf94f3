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

Both are integrated by one split step, the Kraus form of Rouchon & Ralph,
PRA 91, 012118 (2015): the exact no-click drift E = exp(h A0), A0 = -i H0 -
K = -i H_eff, after one factor per channel, and a renormalization,

    psi' = E F_{M-1} ... F_1 F_0 psi / |.| ,   F_m = (1 - scal_m) 1 + coef_m J_m,

    homodyne:    coef_m = h gamma_m Re<J_m> + sqrt(gamma_m) dw_m,
                 scal_m = Re<J_m> (h gamma_m Re<J_m> / 2 + sqrt(gamma_m) dw_m),
    heterodyne:  coef_m = h gamma_m <J_m>* / 2 + sqrt(gamma_m) d xi_m,
                 scal_m = h gamma_m |<J_m>|^2 / 4
                          + sqrt(gamma_m) Re(d xi_m <J_m>),

with every <J_m> read from the state before the step.  To first order in h
this is the Euler-Maruyama step, and unlike it the split step is exact where
the dynamics is: a local scenario's factors and E are local, so a product
state stays a product state, and collective decay from a single-excitation
state reaches C = 0 at the time the jump engine does.  E is static, so it is
computed once, with `linalg.expm`, when the kernel is built.  A detector
phase theta is applied by rotating the channel operators J -> e^{-i theta} J
before the run (see `models.with_phase_rotation`).

The mean concurrence is an expectation, so only weak convergence matters,
and the increments are two-point (the simplified weak Euler scheme, Kloeden
& Platen, Numerical Solution of SDEs, 14.1): dw_m = +-sqrt(h) and d xi_m =
sqrt(h/2) (s' + i s''), each sign +1 or -1 with probability 1/2.  They keep
the first three moments of the Gaussian increments: E dw = 0, E dw^2 = h,
E d xi = 0, E |d xi|^2 = h and E d xi^2 = 0.

`batch_kernel_qsd` checks the kind, the grid, the step bound and that the
channels are static, once, before any kernel call.  The batch kernel is then
a pure array function: it returns the batch's record points, concurrences
and optional states, which `ensemble` turns into records or reduces to
moments.  It steps its rows B = `_rows(M)` at a time as one (4 + 4M, B)
block [psi; J_0 psi; ...; J_{M-1} psi]: a step is one (4 + 4M, 4) @ (4, 2B)
real matmul by [1; J_0; ...] E on the block's float view, which also gives
every <J_m> of the next step, and one (4, 4) @ (4, 2B) real matmul for each
channel after the first.  The float view of C-contiguous complex rows holds
Re and Im interleaved by column, so one real matmul by Re op acts on both;
an operator with an imaginary part takes a second real matmul by Im op.
No complex matmul is left in a step.

Trajectory k of a run with master seed s reads only its own substream
(`ensemble.Substreams`), so ensembles are bit-stable for a given
(seed, n_traj) regardless of batching or workers.  Its signs are the bits
of the substream's raw 64-bit words, s = 1 - 2 bit, read within a word from
the least significant bit up: step by step, each step from a new byte,
within a step channel by channel, and a heterodyne channel's real part
before its imaginary part.  So bit j of a step's bytes is the sign of
channel j (homodyne) or of channel j // 2 (heterodyne), and a step reads
ceil(M / 8) or ceil(M / 4) bytes.  The signs are never expanded to numbers:
each byte indexes a table of its channels' increments for all 256 values.
A row block reads its words _BLOCK steps at a time, so memory does not grow
with t_max.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

from .ensemble import (Substreams, TrajectoryRecord, record_times, run_one,
                       run_records)
from .entanglement import concurrence_batch
from .errors import StepSizeError
from .linalg import expm
from .models import Scenario

__all__ = ["MAX_DIFFUSION_STEP", "batch_kernel_qsd", "run_trajectory_qsd",
           "run_ensemble_qsd"]

MAX_DIFFUSION_STEP = 1e-2  # bound on dt * gamma_max
# Multiply-adds per real matmul at most; it sizes the row blocks (`_rows`).
# OpenBLAS hands a GEMM to its thread pool above 65,536 x 4 = 262,144
# multiply-adds, a complex one from 65,536, and a threaded product stalls
# for milliseconds while another process holds the other CPU.  With two
# workers, 4,096 heterodyne rows of thermal_bell at detector phase 0.3
# (complex J, M = 4) to T = 3 took 3.3-3.7 s in 1,024-row blocks of complex
# matmuls, against 1.0-1.5 s in 512-row blocks and in 1,024-row blocks of
# real ones.  numpy's OpenBLAS 0.3.31 keeps a real (20, 4) @ (4, n) or
# (36, 4) @ (4, n) product on one CPU (process CPU time / wall time 1.00)
# up to 1,000,000 multiply-adds, its small-matrix kernel's bound on an
# AVX-512 Xeon, and threads it from 1,000,080 (1.96); the generic bound
# kept here holds on a CPU without that kernel too.
_GEMM_MADDS = 262_144
_BLOCK = 512  # steps whose words a row block reads at once; a multiple of 8

KINDS = ("homodyne", "heterodyne")


def _grid(s: Scenario, t_max: float, dt: float | None,
          record_grid: float | None) -> tuple[np.ndarray, int, float]:
    """(record times, substeps per record, actual step h): h tiles the
    interval times[1] of the one grid rule, `record_times`.  dt bounds h, is
    at most that interval (within the substep count's 1e-9), and defaults to
    half the step bound; h * gamma_max must be within it, and the channels
    static."""
    if s.time_dependent:
        raise ValueError("diffusive unravelings are defined for static "
                         "channels; remove rotating displacements first")
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
    h = grid / n_sub
    if h * s.gamma_max > MAX_DIFFUSION_STEP + 1e-15:
        raise StepSizeError(f"dt * gamma_max = {h * s.gamma_max:.3g} > "
                            f"{MAX_DIFFUSION_STEP}; reduce the diffusion step")
    return times, int(n_sub), h


class _Step(NamedTuple):
    """One split step's operators, built once with the kernel; each is
    held as `_split` parts."""
    het: bool
    rows: int  # rows stepped together, `_rows(M)`
    ops: tuple  # (4 + 4M, 4): 1; J_0; ...; J_{M-1} stacked
    prop_ops: tuple  # ops @ E, E = exp(h A0)
    jumps: tuple  # J_1, ..., J_{M-1}
    half_drift: np.ndarray  # (M, 1): h gamma_m / 2 (homodyne), h gamma_m / 4
    tables: tuple  # per byte of a step: (first channel, (c, 256) increments)


def _rows(m_ch: int) -> int:
    """Rows stepped together: the largest power of two B for which the
    widest product, (4 + 4M, 4) @ (4, 2B), is within _GEMM_MADDS."""
    return 1 << (max(_GEMM_MADDS // (32 * (1 + m_ch)), 1).bit_length() - 1)


def _split(op: np.ndarray) -> tuple:
    """(Re op, Im op), float64 and C-contiguous, with None for an Im op
    that is zero."""
    im = np.ascontiguousarray(op.imag, dtype=float) if np.any(op.imag) \
        else None
    return np.ascontiguousarray(op.real, dtype=float), im


def _apply(op: tuple, x: np.ndarray) -> np.ndarray:
    """op @ x for C-contiguous complex rows x, as real matmuls on x's float
    view, in which Re x and Im x alternate by column."""
    re, im = op
    xf = x.view(float)
    out = (re @ xf).view(complex)
    if im is not None:
        out += 1j * (im @ xf).view(complex)
    return out


def _tables(het: bool, scale: np.ndarray) -> tuple:
    """The increments of every value of every byte of a step's signs.

    Byte j of a step holds the signs of channels j c, ..., j c + c - 1,
    c = 8 (homodyne) or 4 (heterodyne), fewer in the last byte, whose unused
    high bits are skipped.  Entry [i, v] of byte j's table is the increment
    of its i-th channel when the byte reads v: scale s for homodyne and
    scale (s' + i s'') for heterodyne, s = 1 - 2 bit, with the bits of the
    i-th channel at i (homodyne) or 2i and 2i + 1 (heterodyne) of v.
    """
    per = 2 if het else 1
    signs = 1.0 - 2.0 * (np.arange(256) >> np.arange(8)[:, None] & 1)
    unit = signs[::2] + 1j * signs[1::2] if het else signs
    return tuple((c0, scale[c0:c0 + 8 // per, None] * unit[:len(scale) - c0])
                 for c0 in range(0, len(scale), 8 // per))


def _bytes(words: np.ndarray, n_steps: int, per_step: int) -> np.ndarray:
    """(n_steps, per_step, B) bytes of the (W, B) words of a row block:
    byte j of step k is byte k per_step + j of a row's stream, and byte i of
    the stream is bits 8 (i % 8) to 8 (i % 8) + 7 of word i // 8."""
    b = words.shape[1]
    stream = words.astype("<u8", copy=False).view(np.uint8)
    return (stream.reshape(-1, b, 8).transpose(0, 2, 1).reshape(-1, b)
            [:n_steps * per_step].reshape(n_steps, per_step, b))


def _run_batch_qsd(step: _Step, psi0: np.ndarray, times: np.ndarray,
                   n_sub: int, keep_states: bool, seed: int,
                   indices) -> tuple:
    """The split-step kernel, step.rows rows at a time; no clicks."""
    b = len(indices)
    conc = np.empty((b, len(times)))
    states = (np.empty((b, len(times), 4), dtype=complex) if keep_states
              else None)
    for i in range(0, b, step.rows):
        j = min(i + step.rows, b)
        _step_rows(step, psi0, n_sub, seed, indices[i:j], conc[i:j],
                   None if states is None else states[i:j])
    return times, conc, states, None


def _step_rows(step: _Step, psi0: np.ndarray, n_sub: int, seed: int,
               indices, conc: np.ndarray, states: np.ndarray | None) -> None:
    """Step rows ``indices``, filling their (B, G) concurrences and, if
    given, (B, G, 4) states.

    The rows are held as z = [psi; J_0 psi; ...; J_{M-1} psi], (4 + 4M, B),
    with psi unnormalized: each step ends with z = [E; J_0 E; ...] @ phi, and
    the next one reads |psi|^2 and every <psi|J_m|psi> from z at once and
    folds 1 / |psi| into the first channel's factor.
    """
    n_steps = (conc.shape[1] - 1) * n_sub
    b = len(indices)
    m_ch = len(step.half_drift)
    per_step = len(step.tables)  # bytes of signs a step reads
    draws = Substreams(seed, indices)
    dn = np.empty((m_ch, b), dtype=step.half_drift.dtype)
    z = _apply(step.ops, np.repeat(psi0[:, None], b, 1))
    for k in range(n_steps + 1):
        psi = z[:4]
        q = (psi.conj() * z.reshape(m_ch + 1, 4, b)).sum(axis=1)
        inv_n2 = 1.0 / q[0].real
        done, rem = divmod(k, n_sub)
        if not rem:
            conc[:, done] = concurrence_batch(psi.T) * inv_n2
            if states is not None:
                states[:, done] = (psi * np.sqrt(inv_n2)).T
        if k == n_steps:
            break
        if not k % _BLOCK:
            nb = min(_BLOCK, n_steps - k)
            signs = _bytes(draws.raw(-(-nb * per_step // 8)), nb, per_step)
        for (c0, table), byte in zip(step.tables, signs[k % _BLOCK]):
            np.take(table, byte, axis=1, out=dn[c0:c0 + len(table)])
        # with x = <J> (heterodyne) or Re<J> (homodyne) and a = drift x* / 2:
        # coef = 2a + dn and scal = Re(x (a + dn)); the first channel's
        # factor also takes 1 / |psi|.  Complex arrays meet only complex
        # ones, as a mixed multiply is slower.
        x = (q[1:] * (1.0 / q[0]) if step.het
             else q[1:].real * inv_n2)
        a = step.half_drift * x.conj()
        w = a + dn
        coef = w + a
        keep = 1.0 - (x * w).real
        f = np.sqrt(inv_n2)
        keep[:1] *= f
        coef[:1] *= f.astype(coef.dtype)
        coef = coef.astype(complex, copy=False)
        keep = keep.astype(complex)
        phi = psi  # z is read; its rows are overwritten in place
        for m in range(m_ch):
            jphi = z[4:8] if m == 0 else _apply(step.jumps[m - 1], phi)
            jphi *= coef[m]
            phi *= keep[m]
            phi += jphi
        z = _apply(step.prop_ops, phi)


def batch_kernel_qsd(kind: str, s: Scenario, t_max: float,
                     dt: float | None = None, record_grid: float | None = None,
                     keep_states: bool = False):
    """The engine as a picklable ``kernel(seed, indices)`` for `ensemble`;
    every check runs here, once, before any kernel call."""
    if kind not in KINDS:
        raise ValueError(f"unraveling kind must be one of {KINDS}, got {kind!r}")
    het = kind == "heterodyne"
    times, n_sub, h = _grid(s, t_max, dt, record_grid)
    per = 2 if het else 1
    ops = np.concatenate([np.eye(4), *s.lifted_ops])
    step = _Step(het=het, rows=_rows(len(s.channels)), ops=_split(ops),
                 prop_ops=_split(ops @ expm(-1j * h * s.h_eff)),
                 jumps=tuple(map(_split, s.lifted_ops[1:])),
                 half_drift=((0.5 * h / per) * s.rates[:, None]).astype(
                     complex if het else float),
                 tables=_tables(het, np.sqrt(h / per * s.rates)))
    return partial(_run_batch_qsd, step, s.psi0, times, n_sub, keep_states)


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
