"""Closed-form mean-concurrence decay rates for monitored two-qubit systems.

For independent local channels the ensemble-averaged concurrence of jump or
diffusion trajectories decays as C(t) = C(0) e^{-kappa t}, with a rate that
depends on the monitoring scheme but not on the (entangled) initial state.
All rates reduce to sums of single-channel contributions:

    jump counting     kappa = sum_m gamma_m [ tr(J^dag J)/2 - |det J| ]
    homodyne          kappa = sum_m gamma_m [ tr(J^dag J)/2 - Re det J
                                              - (Im tr J)^2 / 2 ]
    best homodyne     kappa = sum_m gamma_m [ tr(J^dag J)/2
                                              - |det J - (tr J)^2/4|
                                              - |tr J|^2/4 ]
    heterodyne        kappa = sum_m gamma_m [ tr(J^dag J)/2 - |tr J|^2/4 ]

(J is the channel's 2x2 operator; static displacements J -> J + alpha enter
literally, rotating displacements drop out).  The jump-counting rate is also
a sum of two explicit non-negative squares per channel, which proves
kappa >= 0; the homodyne rate depends on the monitoring phase theta through
J -> e^{-i theta} J while the jump-counting rate does not.

The common bath (one collective channel sigma_-^A + sigma_-^B) does not decay
exponentially; its exact mean-concurrence curve, vanishing time, and residual
entanglement are provided separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_pure
from .linalg import dag, det2, require_finite, trace2
from .models import COLLECTIVE_DECAY, Scenario

__all__ = [
    "ChannelRateTerms", "RateReport", "CommonBathCurve",
    "kappa_qj", "kappa_opt_thermal", "kappa_ho", "kappa_ho_opt", "kappa_het",
    "rate_report", "mean_concurrence_independent",
    "common_bath_mean", "common_bath_vanish_time", "analytic_mean_concurrence",
]


def _local_rate_ops(s: Scenario) -> list[tuple[float, np.ndarray, str]]:
    ops = []
    for ch in s.channels:
        if ch.locality == "joint":
            raise ValueError(
                f"channel {ch.id!r} acts on both qubits; the closed-form "
                "decay rates are defined for independent local channels only")
        ops.append((ch.rate, ch.rate_operator(), ch.id))
    return ops


def _channel_terms(j: np.ndarray) -> tuple[float, float, float, float]:
    """The (qj, ho, ho_opt, het) brackets of the module docstring for J."""
    half = 0.5 * trace2(dag(j) @ j).real
    det = det2(j)
    tr = trace2(j)
    return (half - abs(det),
            half - det.real - 0.5 * tr.imag ** 2,
            half - abs(det - 0.25 * tr * tr) - 0.25 * abs(tr) ** 2,
            half - 0.25 * abs(tr) ** 2)


def kappa_qj(s: Scenario) -> float:
    """Mean-concurrence decay rate under jump counting."""
    return rate_report(s).kappa_qj


def kappa_opt_thermal(gamma_plus_a: float, gamma_minus_a: float,
                      gamma_plus_b: float, gamma_minus_b: float) -> float:
    """Best achievable jump-counting rate for independent thermal baths.

    Reached by mixing each qubit's sigma_+/sigma_- channels with the balanced
    two-output unitary (|u_{mu m}| = 1/sqrt(2)):

        kappa_opt = (1/2) sum_i (sqrt(gamma_-^i) - sqrt(gamma_+^i))^2.
    """
    return float(0.5 * ((np.sqrt(gamma_minus_a) - np.sqrt(gamma_plus_a)) ** 2
                        + (np.sqrt(gamma_minus_b) - np.sqrt(gamma_plus_b)) ** 2))


def kappa_ho(s: Scenario) -> float:
    """Mean-concurrence decay rate under homodyne-type diffusion."""
    return rate_report(s).kappa_ho


def kappa_ho_opt(s: Scenario) -> float:
    """Homodyne rate minimized over the monitoring phase of each channel."""
    return rate_report(s).kappa_ho_opt


def kappa_het(s: Scenario) -> float:
    """Mean-concurrence decay rate under heterodyne-type diffusion."""
    return rate_report(s).kappa_het


@dataclass(frozen=True)
class ChannelRateTerms:
    """Single-channel contributions to each closed-form rate."""
    channel_id: str
    rate: float
    qj: float
    ho: float
    ho_opt: float
    het: float


@dataclass(frozen=True)
class RateReport:
    """All closed-form decay rates of a scenario, with per-channel terms.

    ``kappa_qj_opt_thermal`` is filled only for scenarios built from
    independent thermal (or zero-temperature) baths, where the optimal
    channel mixing is known in closed form.
    """
    kappa_qj: float
    kappa_ho: float
    kappa_ho_opt: float
    kappa_het: float
    kappa_qj_opt_thermal: float | None
    per_channel: tuple[ChannelRateTerms, ...]


def rate_report(s: Scenario) -> RateReport:
    terms = [ChannelRateTerms(cid, g, *(g * x for x in _channel_terms(j)))
             for g, j, cid in _local_rate_ops(s)]
    opt = None
    if s.thermal_rates is not None:
        opt = kappa_opt_thermal(*s.thermal_rates)
    return RateReport(
        kappa_qj=float(sum(t.qj for t in terms)),
        kappa_ho=float(sum(t.ho for t in terms)),
        kappa_ho_opt=float(sum(t.ho_opt for t in terms)),
        kappa_het=float(sum(t.het for t in terms)),
        kappa_qj_opt_thermal=opt,
        per_channel=tuple(terms))


def mean_concurrence_independent(c0: float, kappa: float, t) -> np.ndarray:
    """Exponential mean-concurrence curve C(t) = C0 e^{-kappa t}."""
    return c0 * np.exp(-kappa * np.asarray(t, dtype=float))


# --------------------------------------------------------------------------
# Common bath: exact mean concurrence under jump counting.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CommonBathCurve:
    """Initial-state data entering the collective-decay concurrence curve.

    c_plus/c_minus are the symmetric/antisymmetric single-excitation
    amplitudes c_ud +/- c_du; the antisymmetric component is dark (the
    collective jump operator annihilates it), which is why c_minus survives
    at long times.
    """
    gamma: float
    c_uu: complex
    c_dd: complex
    c_plus: complex
    c_minus: complex

    @classmethod
    def from_state(cls, psi: np.ndarray, gamma: float) -> "CommonBathCurve":
        psi = require_finite(psi, "initial state").reshape(4)
        n = np.linalg.norm(psi)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"initial state must be normalized, |psi| = {n}")
        if not np.isfinite(gamma) or gamma <= 0:
            raise ValueError("collective decay rate must be positive")
        return cls(gamma=float(gamma),
                   c_uu=complex(psi[0]), c_dd=complex(psi[3]),
                   c_plus=complex(psi[1] + psi[2]),
                   c_minus=complex(psi[1] - psi[2]))


def common_bath_mean(curve: CommonBathCurve, t) -> np.ndarray:
    """Exact ensemble-mean concurrence under collective jump counting.

    The no-jump and one-jump histories contribute

        C(t) = |c_-^2 - c_+^2 e^{-2 g t} + 4 c_uu c_dd e^{-g t}| / 2
               + 2 |c_uu|^2 g t e^{-2 g t},

    and histories with two jumps end in |dd> with no concurrence (the
    collective operator is nilpotent of order 3).
    """
    t = np.asarray(t, dtype=float)
    g = curve.gamma
    e = np.exp(-g * t)
    nj = 0.5 * np.abs(curve.c_minus ** 2 - curve.c_plus ** 2 * e ** 2
                      + 4.0 * curve.c_uu * curve.c_dd * e)
    oj = 2.0 * abs(curve.c_uu) ** 2 * g * t * e ** 2
    return nj + oj


def common_bath_vanish_time(curve: CommonBathCurve) -> float | None:
    """Finite time at which the collective-decay mean concurrence vanishes.

    Only states with no doubly-excited amplitude and aligned single-excitation
    phases (c_ud, c_du both nonzero with equal argument) reach zero at a
    finite, nonzero time; there the curve is |c_-^2 - c_+^2 e^{-2gt}|/2 and

        t0 = ln|c_+ / c_-| / gamma.

    Returns None when no such crossing exists.
    """
    if abs(curve.c_uu) > 1e-12:
        return None
    a, b = 0.5 * (curve.c_plus + curve.c_minus), 0.5 * (curve.c_plus - curve.c_minus)
    if abs(a) < 1e-12 or abs(b) < 1e-12:
        return None
    phase_gap = np.angle(a) - np.angle(b)
    phase_gap = (phase_gap + np.pi) % (2.0 * np.pi) - np.pi
    if abs(phase_gap) > 1e-10:
        return None
    ratio = abs(curve.c_plus) / abs(curve.c_minus) if abs(curve.c_minus) > 0 else np.inf
    if not np.isfinite(ratio) or ratio <= 1.0:
        return None
    return float(np.log(ratio) / curve.gamma)


def common_bath_residual(curve: CommonBathCurve) -> float:
    """Long-time limit |c_-|^2 / 2 protected by the dark antisymmetric state."""
    return 0.5 * abs(curve.c_minus) ** 2


# --------------------------------------------------------------------------
# Dispatcher used by the command-line tool.
# --------------------------------------------------------------------------

_UNRAVELING_RATES = {
    "qj": kappa_qj,
    "qsd-homodyne": kappa_ho,
    "qsd-heterodyne": kappa_het,
}


def analytic_mean_concurrence(s: Scenario, unraveling: str, times
                              ) -> np.ndarray | None:
    """Closed-form mean-concurrence curve for a scenario, if one is known.

    Independent local channels give C0 e^{-kappa t} with the rate matching
    the requested unraveling; the collective-decay scenario has its exact
    jump-counting curve.  Returns None when no closed form applies.
    """
    times = np.asarray(times, dtype=float)
    joint = [ch for ch in s.channels if ch.locality == "joint"]
    if joint:
        if len(joint) == 1 and len(s.channels) == 1 and unraveling == "qj":
            ch = joint[0]
            if (not ch.rotates and np.max(np.abs(s.h0)) == 0.0
                    and np.allclose(ch.operator(), COLLECTIVE_DECAY,
                                    atol=1e-12)):
                curve = CommonBathCurve.from_state(s.psi0, ch.rate)
                return common_bath_mean(curve, times)
        return None
    fn = _UNRAVELING_RATES.get(unraveling)
    if fn is None:
        return None
    return mean_concurrence_independent(concurrence_pure(s.psi0), fn(s), times)
