"""Wootters concurrence and entanglement of formation for two qubits.

For a pure state psi = sum_{s,s'} c_ss' |s,s'> the preconcurrence is the
complex bilinear

    prec(psi) = 2 (c_ud* c_du* - c_uu* c_dd*),

equal to the expectation <sigma_y (x) sigma_y . T> of the spin-flip operation
(T is complex conjugation in the product basis).  Its modulus is the
concurrence.  Mixed states go through the standard square-root construction:
C(rho) = max(0, l1 - l2 - l3 - l4) where the l_i are the descending
eigenvalues of sqrt(sqrt(rho) rho_tilde sqrt(rho)).

Entanglement of formation is reported in nats throughout.
"""

from __future__ import annotations

import numpy as np

from .linalg import SYSY, require_finite

__all__ = [
    "preconcurrence", "preconcurrence_batch", "concurrence_pure",
    "concurrence_batch", "eof_from_concurrence", "concurrence_mixed",
]

_NORM_TOL = 1e-6
_HERM_TOL = 1e-10  # entrywise |rho - rho^dag| a density matrix may carry
EIG_FLOOR = -1e-8  # eigenvalues in [EIG_FLOOR, 0) are roundoff, clipped


def _check_state(psi: np.ndarray) -> np.ndarray:
    psi = require_finite(psi, "state").reshape(4)
    n = np.linalg.norm(psi)
    if abs(n - 1.0) > _NORM_TOL:
        raise ValueError(f"state is not normalized: |psi| = {n:.9f}")
    return psi


def preconcurrence_batch(states: np.ndarray) -> np.ndarray:
    """Complex preconcurrences prec(psi) of a stack of states, shape (..., 4)."""
    c = np.conjugate(np.asarray(states, dtype=complex))
    return 2.0 * (c[..., 1] * c[..., 2] - c[..., 0] * c[..., 3])


def preconcurrence(psi: np.ndarray) -> complex:
    """Complex preconcurrence of a normalized pure two-qubit state."""
    return complex(preconcurrence_batch(_check_state(psi)))


def concurrence_pure(psi: np.ndarray) -> float:
    """Concurrence |prec(psi)| of a normalized pure state."""
    return abs(preconcurrence(psi))


def concurrence_batch(states: np.ndarray) -> np.ndarray:
    """Concurrences of a stack of normalized states, shape (..., 4)."""
    return np.abs(preconcurrence_batch(states))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation (nats) as a function of concurrence.

    f(c) = h((1 + sqrt(1 - c^2)) / 2) with h the natural-log binary entropy;
    monotone and convex on [0, 1], f(0) = 0, f(1) = ln 2.
    """
    c = float(c)
    if not np.isfinite(c):
        raise ValueError("concurrence must be finite")
    if c < -1e-9 or c > 1.0 + 1e-9:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(max(c, 0.0), 1.0)
    x = 0.5 * (1.0 + np.sqrt(max(0.0, 1.0 - c * c)))
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log(x) - (1.0 - x) * np.log(1.0 - x))


def concurrence_mixed(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit density matrix, or of a stack.

    ``rho`` is one (4, 4) matrix, which gives a float, or a stack (..., 4, 4),
    which gives an array (...) from one batched evaluation.  The lambda_i are
    the square roots of the eigenvalues of the Hermitian product
    sqrt(rho) rho_tilde sqrt(rho), taken here as the singular values of its
    factor A = sqrt(rho) (sigma_y(x)sigma_y) sqrt(rho)* (note A A^dag equals
    the Hermitian product).  Going through the SVD keeps the error of the
    small lambda_i at machine precision even for rank-deficient rho, where
    square-rooting near-zero eigenvalues would lose half the digits.  Every
    matrix must be finite and Hermitian within 1e-10; eigenvalues in
    [-1e-8, 0) are clipped to zero before the square root, anything below
    -1e-8 is an error.
    """
    rho = require_finite(rho, "density matrix")
    stack = rho.reshape(-1, 4, 4)
    rho_dag = np.conjugate(stack.transpose(0, 2, 1))
    asym = np.max(np.abs(stack - rho_dag), axis=(1, 2))
    bad = np.flatnonzero(asym > _HERM_TOL)
    if bad.size:
        raise ValueError(f"density matrix {bad[0]} is not Hermitian: "
                         f"max |rho - rho^dag| = {asym[bad[0]]:.3e}")
    w, v = np.linalg.eigh(0.5 * (stack + rho_dag))
    bad = np.flatnonzero(w[:, 0] < EIG_FLOOR)
    if bad.size:
        raise ValueError(f"density matrix {bad[0]} has negative eigenvalue "
                         f"{w[bad[0], 0]:.3e}")
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) \
        @ np.conjugate(v.transpose(0, 2, 1))
    lam = np.linalg.svd(sqrt_rho @ SYSY @ np.conjugate(sqrt_rho),
                        compute_uv=False)
    c = np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])
    if rho.ndim < 3:
        return float(c[0])
    return c.reshape(rho.shape[:-2])
