"""Wootters concurrence and entanglement of formation for two qubits.

For a pure state psi = sum_{s,s'} c_ss' |s,s'> the preconcurrence is the
complex bilinear

    prec(psi) = 2 (c_ud* c_du* - c_uu* c_dd*),

equal to the expectation <sigma_y (x) sigma_y . T> of the spin-flip operation
(T is complex conjugation in the product basis).  Its modulus is the
concurrence.  Mixed states take Wootters' formula
C(rho) = max(0, l1 - l2 - l3 - l4), the l_i the descending eigenvalues of
sqrt(sqrt(rho) rho_tilde sqrt(rho)), read in rho's eigenbasis from one
Hermitian eigendecomposition (`concurrence_mixed`).

Entanglement of formation is reported in nats throughout.
"""

from __future__ import annotations

import numpy as np

from .linalg import require_finite

__all__ = [
    "preconcurrence", "preconcurrence_batch", "concurrence_pure",
    "concurrence_batch", "eof_from_concurrence", "concurrence_mixed",
]

_NORM_TOL = 1e-6
_HERM_TOL = 1e-10  # entrywise |rho - rho^dag| a density matrix may carry
EIG_FLOOR = -1e-8  # eigenvalues in [EIG_FLOOR, 0) are roundoff, clipped
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])


def _check_state(psi: np.ndarray) -> np.ndarray:
    psi = require_finite(psi, "state").reshape(4)
    n = np.linalg.norm(psi)
    if abs(n - 1.0) > _NORM_TOL:
        raise ValueError(f"state is not normalized: |psi| = {n:.9f}")
    return psi


def _prec_conj(states: np.ndarray) -> np.ndarray:
    c = np.asarray(states, dtype=complex)
    return 2.0 * (c[..., 1] * c[..., 2] - c[..., 0] * c[..., 3])


def preconcurrence_batch(states: np.ndarray) -> np.ndarray:
    """Complex preconcurrences prec(psi) of a stack of states, shape (..., 4)."""
    return np.conjugate(_prec_conj(states))


def preconcurrence(psi: np.ndarray) -> complex:
    """Complex preconcurrence of a normalized pure two-qubit state."""
    return complex(preconcurrence_batch(_check_state(psi)))


def concurrence_pure(psi: np.ndarray) -> float:
    """Concurrence |prec(psi)| of a normalized pure state."""
    return abs(preconcurrence(psi))


def concurrence_batch(states: np.ndarray) -> np.ndarray:
    """Concurrences of a stack of normalized states, shape (..., 4).

    The modulus of prec read without its conjugation (|conj z| = |z|), so
    bit for bit |`preconcurrence_batch`|.
    """
    return np.abs(_prec_conj(states))


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


def _flip(v: np.ndarray) -> np.ndarray:
    """V^dag (sigma_y (x) sigma_y) V* for a stack of 4x4 matrices V in one
    batched product: sigma_y (x) sigma_y is a signed permutation, so
    V^dag (sigma_y (x) sigma_y) is V^dag with its columns reversed and
    multiplied by (-1, 1, 1, -1), bit for bit the product with the matrix."""
    return ((np.conjugate(v.transpose(0, 2, 1))[:, :, ::-1] * _FLIP_SIGNS)
            @ np.conjugate(v))


def _wootters(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrences and smallest eigenvalues of a finite (G, 4, 4) stack,
    by the eigenbasis form of `concurrence_mixed` from one `eigh`.  A matrix
    not Hermitian within 1e-10 is a ValueError; the caller checks the floor.
    """
    rho_dag = np.conjugate(stack.transpose(0, 2, 1))
    asym = np.max(np.abs(stack - rho_dag), axis=(1, 2))
    bad = np.flatnonzero(asym > _HERM_TOL)
    if bad.size:
        raise ValueError(f"density matrix {bad[0]} is not Hermitian: "
                         f"max |rho - rho^dag| = {asym[bad[0]]:.3e}")
    w, v = np.linalg.eigh(0.5 * (stack + rho_dag))
    r = np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(r[:, :, None] * _flip(v) * r[:, None, :],
                        compute_uv=False)
    return (np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]),
            w[:, 0])


def concurrence_mixed(rho: np.ndarray) -> float | np.ndarray:
    """Wootters concurrence of a two-qubit density matrix, or of a stack.

    ``rho`` is one (4, 4) matrix, which gives a float, or a stack (..., 4, 4),
    which gives an array (...) from one batched evaluation.  The lambda_i are
    the singular values of sqrt(rho) (sigma_y(x)sigma_y) sqrt(rho)*.  With
    rho = V diag(w) V^dag the unitary factors drop out, leaving the singular
    values of diag(sqrt w) V^dag (sigma_y(x)sigma_y) V* diag(sqrt w): one
    `eigh` serves the positivity check and the formula, sqrt(rho) is never
    formed, and the small lambda_i keep machine precision even for
    rank-deficient rho, with no square root of near-zero eigenvalues of
    the Hermitian product sqrt(rho) rho_tilde sqrt(rho).  Every matrix must
    be finite and Hermitian within 1e-10; eigenvalues in [-1e-8, 0) are
    clipped to zero, anything below -1e-8 is an error.
    """
    rho = require_finite(rho, "density matrix")
    c, w0 = _wootters(rho.reshape(-1, 4, 4))
    bad = np.flatnonzero(w0 < EIG_FLOOR)
    if bad.size:
        raise ValueError(f"density matrix {bad[0]} has negative eigenvalue "
                         f"{w0[bad[0]]:.3e}")
    if rho.ndim < 3:
        return float(c[0])
    return c.reshape(rho.shape[:-2])
