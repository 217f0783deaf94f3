"""Small dense complex linear algebra for the two-qubit state space.

Everything in this package lives in C^2 or C^4 = C^2 (x) C^2 with the product
basis ordered {uu, ud, du, dd}; qubit A is the left tensor factor.  States are
flat complex128 arrays, operators are (2,2) or (4,4) arrays.  The routines here
are deliberately small and allocation-light because the trajectory engines call
them in tight loops.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID2", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SIGMA_PLUS", "SIGMA_MINUS",
    "SYSY", "UP", "DOWN",
    "kron2", "dag", "det2", "trace2", "trace4",
    "ptrace_a", "ptrace_b",
    "require_finite", "normalized",
]

UP = 0
DOWN = 1

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |u><d|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |d><u|

# sigma_y (x) sigma_y, the spin-flip kernel entering the concurrence.
SYSY = np.kron(SIGMA_Y, SIGMA_Y)


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a.view(float))):
        raise ValueError(f"{what} contains NaN or Inf entries")
    return a


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with qubit A as the left factor (basis {uu,ud,du,dd})."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dag(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.asarray(a).T)


def det2(m: np.ndarray) -> complex:
    """Determinant of a 2x2 matrix, written out to avoid LU overhead."""
    m = np.asarray(m)
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def trace2(m: np.ndarray) -> complex:
    m = np.asarray(m)
    return complex(m[0, 0] + m[1, 1])


def trace4(m: np.ndarray) -> complex:
    m = np.asarray(m)
    return complex(m[0, 0] + m[1, 1] + m[2, 2] + m[3, 3])


def normalized(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n


def ptrace_b(rho: np.ndarray) -> np.ndarray:
    """Reduced state of qubit A (trace out the right factor)."""
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3)


def ptrace_a(rho: np.ndarray) -> np.ndarray:
    """Reduced state of qubit B (trace out the left factor)."""
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=0, axis2=2)
