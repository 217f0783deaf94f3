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

(J is the channel's 2x2 operator read by `Scenario.qubits`, so a 4x4 one
that factors counts; static displacements J -> J + alpha enter literally,
rotating ones drop out).  They hold for a local H0 = A (x) 1 + 1 (x) B,
which only multiplies each qubit's no-click determinant by a phase; an H0
that couples the qubits has no closed form here.  The jump-counting rate is
also a sum of two explicit non-negative squares per channel, which proves
kappa >= 0; the homodyne rate depends on the monitoring phase theta through
J -> e^{-i theta} J while the jump-counting rate does not.

For independent thermal baths the jump-counting rate is also minimized over
the monitoring scheme, by the balanced channel mixing (`optimize_unraveling`).

The common bath (one collective channel sigma_-^A + sigma_-^B) does not decay
exponentially; its exact mean-concurrence curve, vanishing time, and residual
entanglement are provided separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .entanglement import concurrence_pure
from .errors import ConfigError
from .linalg import dag, det2, require_finite, trace2
from .models import COLLECTIVE_DECAY, Scenario, preset_rotated_thermal

__all__ = [
    "ChannelRateTerms", "RateReport", "CommonBathCurve",
    "kappa_qj", "kappa_opt_thermal", "kappa_ho", "kappa_ho_opt", "kappa_het",
    "rate_report", "mean_concurrence_independent",
    "UnravelingOptimum", "optimize_unraveling",
    "common_bath_mean", "common_bath_vanish_time", "analytic_mean_concurrence",
]


def _local_rate_ops(s: Scenario) -> list[tuple[float, np.ndarray, str]]:
    h0, view = s.qubits
    if h0 is None:
        raise ValueError(
            "H0 couples the qubits; the closed-form decay rates are defined "
            "for a local H0 = A (x) 1 + 1 (x) B only")
    for ch, q in zip(s.channels, view):
        if q is None:
            raise ValueError(
                f"channel {ch.id!r} acts on both qubits; the closed-form "
                "decay rates are defined for independent local channels only")
    return [(ch.rate, j, ch.id) for ch, (_, j) in zip(s.channels, view)]


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

    ``kappa_qj_opt_thermal`` is filled only for scenarios whose channels are
    independent thermal (or zero-temperature) baths (`Scenario.thermal_rates`),
    where the optimal channel mixing is known in closed form.
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


# The balanced mixing (phi = pi/4); rows are the detectors mu, columns (+, -).
_BALANCED = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


@dataclass(frozen=True)
class UnravelingOptimum:
    """Best mixing per qubit, with the closed-form reference value."""
    u_a: np.ndarray
    u_b: np.ndarray
    phases_a: np.ndarray
    phases_b: np.ndarray
    achieved: float
    reference: float


def optimize_unraveling(s: Scenario) -> UnravelingOptimum:
    """The jump-counting decay rate minimized over per-qubit channel mixings;
    channels that are not thermal baths are a `ConfigError`.

    Independent thermal baths leave freedom in *how* the two emission and
    absorption channels of each qubit are monitored: any unitary re-mixing

        L_mu = sum_m u_{mu m} sqrt(gamma_m) sigma_m        (columns orthonormal)

    gives the same ensemble dynamics but a different jump-counting rate, the
    bracket of the module docstring summed over the detectors mu,

        kappa(u) = sum_mu [ tr(L_mu^dag L_mu) / 2 - |det L_mu| ]
                 = (1/2)(gamma_+ + gamma_-) - sqrt(gamma_+ gamma_-) sum_mu
                                                  |u_{mu +} u_{mu -}| .

    The two qubits decouple.  For u in U(2) the moduli are fixed by one
    angle, |u_{0 +}| = |u_{1 -}| = cos(phi) and |u_{0 -}| = |u_{1 +}| =
    sin(phi), so kappa(phi) = (1/2)(gamma_+ + gamma_-) - sqrt(gamma_+ gamma_-)
    sin(2 phi) per qubit, for every pair of rates smallest at the balanced
    mixing phi = pi/4, |u_{mu m}| = 1/sqrt(2): kappa = (1/2)(sqrt(gamma_-) -
    sqrt(gamma_+))^2 (`kappa_opt_thermal`), at the rates
    `Scenario.thermal_rates` reads from the channels.  The achieved rate is
    the bracket on the channels of the mixed scenario that
    `preset_rotated_thermal` builds, independent of that closed form, and
    each detector's homodyne phase is half the argument of det J_mu (0 where
    it vanishes).
    """
    if (g := s.thermal_rates) is None:
        raise ConfigError(
            "the mixing optimizer needs a thermal-type scenario: local "
            "channels only, whose generator on each qubit is that of "
            "sigma_+ and sigma_- at some rates")
    best = replace(preset_rotated_thermal(_BALANCED, _BALANCED, *g,
                                          initial=s.initial), h0=s.h0)
    ops = _local_rate_ops(best)  # mix1-A, mix2-A, mix1-B, mix2-B
    det = np.array([det2(j) for _, j, _ in ops])
    phases = np.mod(np.where(np.abs(det) > 1e-14, 0.5 * np.angle(det), 0.0),
                    np.pi)
    return UnravelingOptimum(
        u_a=_BALANCED.copy(), u_b=_BALANCED.copy(),
        phases_a=phases[:2], phases_b=phases[2:],
        achieved=float(sum(r * _channel_terms(j)[0] for r, j, _ in ops)),
        reference=kappa_opt_thermal(*g))


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
        if not np.isfinite(gamma) or gamma < 0:
            raise ValueError("collective decay rate must be finite and >= 0")
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

    t0 holds for every unraveling and on every trajectory: c_uu stays 0, a
    click ends in |dd>, and c_+ / c_- falls as e^{-gamma t} between clicks
    and at every diffusive step.  Returns None when no such crossing exists,
    as at gamma = 0, where the curve is the constant C(0).
    """
    if abs(curve.c_uu) > 1e-12 or curve.gamma == 0.0:
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
    jump-counting curve.  Returns None when no closed form applies, as for
    an H0 that couples the qubits.
    """
    times = np.asarray(times, dtype=float)
    h0, view = s.qubits
    if h0 is None:
        return None
    if any(q is None for q in view):
        ch = s.channels[0]
        if (len(s.channels) == 1 and unraveling == "qj" and not ch.rotates
                and not s.h0.any()
                and np.allclose(ch.operator(), COLLECTIVE_DECAY, atol=1e-12)):
            curve = CommonBathCurve.from_state(s.psi0, ch.rate)
            return common_bath_mean(curve, times)
        return None
    fn = _UNRAVELING_RATES.get(unraveling)
    if fn is None:
        return None
    return mean_concurrence_independent(concurrence_pure(s.psi0), fn(s), times)
