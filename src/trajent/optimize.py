"""The channel mixing that slows entanglement loss the most, in closed form.

Independent thermal baths leave freedom in *how* the two emission/absorption
channels of each qubit are monitored: any unitary re-mixing

    J_mu = sum_m u_{mu m} sqrt(gamma_m) sigma_m        (columns orthonormal)

gives the same ensemble dynamics but a different jump-counting decay rate

    kappa(u) = sum_mu (1/2) ( sqrt(gamma_-) |u_{mu -}|
                              - sqrt(gamma_+) |u_{mu +}| )^2 .

The two qubits decouple.  For u in U(2) the moduli are fixed by one angle,
|u_{0 +}| = |u_{1 -}| = cos(phi) and |u_{0 -}| = |u_{1 +}| = sin(phi), so per
qubit

    kappa(phi) = (1/2)(gamma_+ + gamma_-) - sqrt(gamma_+ gamma_-) sin(2 phi),

which for every pair of rates is smallest at phi = pi/4: the balanced mixing
|u_{mu m}| = 1/sqrt(2), with kappa = (1/2)(sqrt(gamma_-) - sqrt(gamma_+))^2
(``rates.kappa_opt_thermal``).  The achieved rate is evaluated from the
general kappa(u) above at the returned u, independently of that closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rates import kappa_opt_thermal

__all__ = ["UnravelingOptimum", "optimize_unraveling"]

# The balanced mixing (phi = pi/4); rows are the detectors mu, columns (+, -).
_BALANCED = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0)


def _qubit_rate(u: np.ndarray, g_plus: float, g_minus: float) -> float:
    a = np.sqrt(g_minus) * np.abs(u[:, 1]) - np.sqrt(g_plus) * np.abs(u[:, 0])
    return float(0.5 * np.sum(a * a))


def _detector_phases(u: np.ndarray, g_plus: float, g_minus: float) -> np.ndarray:
    """Homodyne phase per mixed channel: half the argument of det J_mu.

    det J_mu = -gamma-geometric-mean u_{mu +} u_{mu -}; channels with
    vanishing determinant get phase 0 by convention.
    """
    det = -np.sqrt(g_plus * g_minus) * u[:, 0] * u[:, 1]
    phases = np.where(np.abs(det) > 1e-14, 0.5 * np.angle(det), 0.0)
    return np.mod(phases, np.pi)


@dataclass(frozen=True)
class UnravelingOptimum:
    """Best mixing per qubit, with the closed-form reference value."""
    u_a: np.ndarray
    u_b: np.ndarray
    phases_a: np.ndarray
    phases_b: np.ndarray
    achieved: float
    reference: float


def optimize_unraveling(gamma_plus_a: float, gamma_minus_a: float,
                        gamma_plus_b: float, gamma_minus_b: float
                        ) -> UnravelingOptimum:
    """The jump-counting decay rate minimized over per-qubit channel mixings."""
    for g in (gamma_plus_a, gamma_minus_a, gamma_plus_b, gamma_minus_b):
        if not np.isfinite(g) or g < 0:
            raise ValueError(f"rates must be finite and >= 0, got {g}")
    u_a, u_b = _BALANCED.copy(), _BALANCED.copy()
    return UnravelingOptimum(
        u_a=u_a, u_b=u_b,
        phases_a=_detector_phases(u_a, gamma_plus_a, gamma_minus_a),
        phases_b=_detector_phases(u_b, gamma_plus_b, gamma_minus_b),
        achieved=(_qubit_rate(u_a, gamma_plus_a, gamma_minus_a)
                  + _qubit_rate(u_b, gamma_plus_b, gamma_minus_b)),
        reference=kappa_opt_thermal(gamma_plus_a, gamma_minus_a,
                                    gamma_plus_b, gamma_minus_b))
