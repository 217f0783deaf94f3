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

A common bath (H0 = 0, every channel a multiple of sigma_-^A + sigma_-^B)
does not decay exponentially; it has an exact jump-counting curve and a
vanishing time.  Each closed form has one public route, which takes a
`Scenario`: `rate_report`, `analytic_mean_concurrence` and
`common_bath_vanish_time`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .entanglement import concurrence_pure
from .errors import ConfigError
from .linalg import dag, det2, trace2
from .models import COLLECTIVE_DECAY, Scenario, preset_rotated_thermal

__all__ = [
    "UNRAVELINGS", "ChannelRateTerms", "RateReport", "kappa_opt_thermal",
    "rate_report", "UnravelingOptimum", "optimize_unraveling",
    "common_bath_vanish_time", "analytic_mean_concurrence",
]

# the unravelings with a rate, and the `simulate --unraveling` choices
UNRAVELINGS = ("qj", "qsd-homodyne", "qsd-heterodyne")


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


def kappa_opt_thermal(gamma_plus_a: float, gamma_minus_a: float,
                      gamma_plus_b: float, gamma_minus_b: float) -> float:
    """Best achievable jump-counting rate for independent thermal baths.

    Reached by mixing each qubit's sigma_+/sigma_- channels with the balanced
    two-output unitary (|u_{mu m}| = 1/sqrt(2)):

        kappa_opt = (1/2) sum_i (sqrt(gamma_-^i) - sqrt(gamma_+^i))^2.
    """
    return float(0.5 * ((np.sqrt(gamma_minus_a) - np.sqrt(gamma_plus_a)) ** 2
                        + (np.sqrt(gamma_minus_b) - np.sqrt(gamma_plus_b)) ** 2))


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


# Common bath: exact mean concurrence under jump counting.

def _common_bath_rate(s: Scenario) -> float | None:
    """gamma of a common bath, read from the operators; else None.

    A common bath has H0 = 0 and static channels that are each a multiple
    z_m L of L = sigma_-^A + sigma_-^B (entrywise within 1e-12), with
    z_m = <L, J_m> / <L, L> and <L, L> = 4; it decays as one channel L at
    gamma = sum_m gamma_m |z_m|^2, whatever the detector phases or splits.
    """
    if s.h0.any() or s.time_dependent:
        return None
    z = np.einsum("ij,mij->m", COLLECTIVE_DECAY.conj(), s.lifted_ops) / 4.0
    if np.max(np.abs(s.lifted_ops - z[:, None, None] * COLLECTIVE_DECAY),
              initial=0.0) > 1e-12:
        return None
    return float(s.rates @ np.abs(z) ** 2)


def _common_bath_mean(s: Scenario, gamma: float, t: np.ndarray) -> np.ndarray:
    """Exact ensemble-mean concurrence under collective jump counting.

    With c_+/- = c_ud +/- c_du the symmetric/antisymmetric single-excitation
    amplitudes of the start state, the no-jump and one-jump histories
    contribute

        C(t) = |c_-^2 - c_+^2 e^{-2 g t} + 4 c_uu c_dd e^{-g t}| / 2
               + 2 |c_uu|^2 g t e^{-2 g t},

    and histories with two jumps end in |dd> with no concurrence (the
    collective operator is nilpotent of order 3).  The antisymmetric
    component is dark (L annihilates it), so at long times the curve tends
    to |c_-|^2 / 2.
    """
    c_uu, c_ud, c_du, c_dd = s.psi0
    c_plus, c_minus = c_ud + c_du, c_ud - c_du
    e = np.exp(-gamma * t)
    nj = 0.5 * np.abs(c_minus ** 2 - c_plus ** 2 * e ** 2
                      + 4.0 * c_uu * c_dd * e)
    oj = 2.0 * abs(c_uu) ** 2 * gamma * t * e ** 2
    return nj + oj


def common_bath_vanish_time(s: Scenario) -> float | None:
    """Finite time at which a common bath's mean concurrence vanishes.

    Only states with no doubly-excited amplitude and aligned single-excitation
    phases (c_ud, c_du both nonzero with equal argument) reach zero at a
    finite, nonzero time; there the curve is |c_-^2 - c_+^2 e^{-2gt}|/2 and

        t0 = ln|c_+ / c_-| / gamma.

    t0 holds for every unraveling and on every trajectory: c_uu stays 0, a
    click ends in |dd>, and c_+ / c_- falls as e^{-gamma t} between clicks
    and at every diffusive step.  Returns None when no such crossing exists,
    as at gamma = 0, where the curve is the constant C(0); a scenario that
    is not a common bath is a ValueError.
    """
    if (gamma := _common_bath_rate(s)) is None:
        raise ValueError("not a common bath: the vanishing time needs H0 = 0 "
                         "and static multiples of sigma_-^A + sigma_-^B")
    c_uu, c_ud, c_du, _ = s.psi0
    if (abs(c_uu) > 1e-12 or gamma == 0.0
            or abs(c_ud) < 1e-12 or abs(c_du) < 1e-12):
        return None
    phase_gap = np.angle(c_ud) - np.angle(c_du)
    phase_gap = (phase_gap + np.pi) % (2.0 * np.pi) - np.pi
    if abs(phase_gap) > 1e-10:
        return None
    c_minus = abs(c_ud - c_du)
    ratio = abs(c_ud + c_du) / c_minus if c_minus > 0 else np.inf
    if not np.isfinite(ratio) or ratio <= 1.0:
        return None
    return float(np.log(ratio) / gamma)


# the RateReport field of each unraveling's rate
_RATE_FIELDS = dict(zip(UNRAVELINGS, ("kappa_qj", "kappa_ho", "kappa_het")))


def analytic_mean_concurrence(s: Scenario, unraveling: str, times
                              ) -> np.ndarray | None:
    """Closed-form mean-concurrence curve for a scenario, if one is known.

    Independent local channels give C0 e^{-kappa t} with the `rate_report`
    rate matching the requested unraveling; a common bath has its exact
    jump-counting curve.  Returns None when no closed form applies, as for
    an H0 that couples the qubits.  An unraveling other than qj,
    qsd-homodyne and qsd-heterodyne is a ValueError.
    """
    if unraveling not in _RATE_FIELDS:
        raise ValueError(f"unknown unraveling {unraveling!r}; expected one "
                         f"of {UNRAVELINGS}")
    times = np.asarray(times, dtype=float)
    h0, view = s.qubits
    if h0 is None:
        return None
    if all(q is not None for q in view):
        kappa = getattr(rate_report(s), _RATE_FIELDS[unraveling])
        return concurrence_pure(s.psi0) * np.exp(-kappa * times)
    if unraveling == "qj" and (gamma := _common_bath_rate(s)) is not None:
        return _common_bath_mean(s, gamma, times)
    return None
