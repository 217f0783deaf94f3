"""Ensemble reduction and exponential rate estimation.

Averaging is done centrally over the per-trajectory series, stacked in
trajectory order, so results do not depend on how the ensemble was split
across batches or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitWindowError
from .quantum_jump import TrajectoryRecord

__all__ = ["EnsembleSummary", "RateFit", "average", "empirical_density",
           "fit_rate", "fit_rate_series"]

WINDOW_SNR = 5.0
MIN_FIT_POINTS = 10


@dataclass(frozen=True)
class EnsembleSummary:
    """Pointwise ensemble statistics of the concurrence on a shared grid."""
    times: np.ndarray
    mean_c: np.ndarray
    stderr: np.ndarray
    n_traj: int
    empirical_rho: np.ndarray | None = field(default=None, repr=False)


def _common_grid(records: list[TrajectoryRecord]) -> np.ndarray:
    if not records:
        raise ValueError("cannot average an empty ensemble")
    t0 = seen = records[0].times
    for r in records[1:]:
        if r.times is seen:  # the records of one batch share their grid
            continue
        if r.times.shape != t0.shape or not np.array_equal(r.times, t0):
            raise ValueError("trajectory records lie on different time grids")
        seen = r.times
    return t0


def average(records: list[TrajectoryRecord]) -> EnsembleSummary:
    """Mean and standard error of the concurrence; empirical density if kept."""
    times = _common_grid(records)
    c = np.stack([r.concurrences for r in records])
    n = c.shape[0]
    mean = c.mean(axis=0)
    stderr = (c.std(axis=0, ddof=1) / np.sqrt(n)) if n > 1 \
        else np.zeros_like(mean)
    rho = None
    if all(r.states is not None for r in records):
        rho = empirical_density(records)
    return EnsembleSummary(times=times, mean_c=mean, stderr=stderr, n_traj=n,
                           empirical_rho=rho)


def empirical_density(records: list[TrajectoryRecord]) -> np.ndarray:
    """Mean projector (1/N) sum_k |psi_k(t)><psi_k(t)| on the grid, (G,4,4)."""
    _common_grid(records)
    if any(r.states is None for r in records):
        raise ValueError("records were produced without keep_states")
    states = np.stack([r.states for r in records])          # (N, G, 4)
    return np.einsum("ngi,ngj->gij", states, np.conjugate(states)) \
        / states.shape[0]


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
