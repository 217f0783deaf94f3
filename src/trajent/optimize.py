"""The channel mixing that slows entanglement loss the most, in closed form.

Independent thermal baths leave freedom in *how* the two emission/absorption
channels of each qubit are monitored: any unitary re-mixing

    L_mu = sum_m u_{mu m} sqrt(gamma_m) sigma_m        (columns orthonormal)

gives the same ensemble dynamics but a different jump-counting decay rate,
the bracket of `rates` summed over the detectors mu,

    kappa(u) = sum_mu [ tr(L_mu^dag L_mu) / 2 - |det L_mu| ]
             = (1/2)(gamma_+ + gamma_-) - sqrt(gamma_+ gamma_-) sum_mu
                                              |u_{mu +} u_{mu -}| .

The two qubits decouple.  For u in U(2) the moduli are fixed by one angle,
|u_{0 +}| = |u_{1 -}| = cos(phi) and |u_{0 -}| = |u_{1 +}| = sin(phi), so
kappa(phi) = (1/2)(gamma_+ + gamma_-) - sqrt(gamma_+ gamma_-) sin(2 phi) per
qubit, for every pair of rates smallest at the balanced mixing phi = pi/4,
|u_{mu m}| = 1/sqrt(2): kappa = (1/2)(sqrt(gamma_-) - sqrt(gamma_+))^2
(``rates.kappa_opt_thermal``), at the rates `Scenario.thermal_rates` reads
from the channels.  The achieved rate is the bracket on the L_mu of the
returned u, independent of that closed form, and each detector's homodyne
phase is half the argument of det L_mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import SIGMA_MINUS, SIGMA_PLUS, det2
from .models import Scenario
from .rates import _channel_terms, kappa_opt_thermal

__all__ = ["UnravelingOptimum", "optimize_unraveling"]

# The balanced mixing (phi = pi/4); rows are the detectors mu, columns (+, -).
_BALANCED = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


def _mixed_qubit(u: np.ndarray, g_plus: float,
                 g_minus: float) -> tuple[float, np.ndarray]:
    """Jump-counting rate and detector phases of one qubit mixed by u.

    A detector whose det L_mu vanishes gets phase 0 by convention.
    """
    ops = (np.multiply.outer(np.sqrt(g_plus) * u[:, 0], SIGMA_PLUS)
           + np.multiply.outer(np.sqrt(g_minus) * u[:, 1], SIGMA_MINUS))
    det = np.array([det2(op) for op in ops])
    phases = np.where(np.abs(det) > 1e-14, 0.5 * np.angle(det), 0.0)
    return (float(sum(_channel_terms(op)[0] for op in ops)),
            np.mod(phases, np.pi))


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
    channels that are not thermal baths are a `ConfigError`."""
    if (g := s.thermal_rates) is None:
        raise ConfigError(
            "the mixing optimizer needs a thermal-type scenario: local "
            "channels only, whose generator on each qubit is that of "
            "sigma_+ and sigma_- at some rates")
    u_a, u_b = _BALANCED.copy(), _BALANCED.copy()
    rate_a, phases_a = _mixed_qubit(u_a, *g[:2])
    rate_b, phases_b = _mixed_qubit(u_b, *g[2:])
    return UnravelingOptimum(
        u_a=u_a, u_b=u_b, phases_a=phases_a, phases_b=phases_b,
        achieved=rate_a + rate_b,
        reference=kappa_opt_thermal(*g))
