"""Small dense complex linear algebra for the two-qubit state space.

Everything in this package lives in C^2 or C^4 = C^2 (x) C^2 with the product
basis ordered {uu, ud, du, dd}; qubit A is the left tensor factor.  States are
flat complex128 arrays, operators are (2,2) or (4,4) arrays.  The routines here
are deliberately small and allocation-light because the trajectory engines call
them in tight loops.  `expm` is the package's one matrix exponential, so the
runtime needs numpy alone.  The engines share the record grid (`record_times`),
its propagator powers (`power_rows`) and OpenBLAS's one-thread bound
(`one_thread_rows`), each stated here once.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ID2", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "SIGMA_PLUS", "SIGMA_MINUS",
    "SYSY",
    "kron2", "dag", "det2", "trace2", "expm",
    "require_finite", "one_thread_rows", "power_rows", "record_times",
]

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |u><d|
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |d><u|

# sigma_y (x) sigma_y, the spin-flip kernel entering the concurrence.
SYSY = np.kron(SIGMA_Y, SIGMA_Y)

# Pade [13/13] coefficients, divided by the first so that expm(0) is exactly
# the identity, and the 1-norm up to which the approximant meets double
# precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005),
# Table 2.3).
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
_THETA13 = 5.371920351148152


def require_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains NaN or Inf entries")
    return a


def kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with qubit A as the left factor (basis {uu,ud,du,dd})."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def dag(a: np.ndarray) -> np.ndarray:
    return np.conjugate(np.asarray(a).T)


def det2(m: np.ndarray) -> complex:
    """Determinant of a 2x2 matrix, written out to avoid LU overhead."""
    m = np.asarray(m)
    return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def trace2(m: np.ndarray) -> complex:
    m = np.asarray(m)
    return complex(m[0, 0] + m[1, 1])


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a Pade [13/13] step.

    a is scaled by 2^-s so that its 1-norm is at most theta_13, the
    approximant r = (V - U)^-1 (V + U) is formed from the even powers
    A^2, A^4, A^6, and r is squared s times.
    """
    a = require_finite(a, "matrix")
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    a = a / 2.0 ** s
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=complex)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


# OpenBLAS 0.3.31 runs a GEMM of up to 262,144 real or 65,535 complex
# multiply-adds on one thread and wakes its thread pool for a larger one,
# which then stalls while another process holds the other CPU.  Per-thread
# CPU ticks in fresh processes (2-CPU Xeon): complex (256, 16) @ (16, 16)
# and (4096, 4) @ (4, 4), 65,536 each, ran on two threads, with a row fewer
# on one.  A real (8, 4) @ (4, 16384), 524,288, ran on one, in AVX-512's
# small-matrix kernel; the generic real bound kept holds without it too.
def one_thread_rows(madds_per_row: int, dtype) -> int:
    """The most rows, at least one, that a product of ``madds_per_row``
    multiply-adds per row of ``dtype`` can have and stay on one thread."""
    bound = 65_535 if np.dtype(dtype).kind == "c" else 262_144
    return max(bound // madds_per_row, 1)


# Rows per product of `power_rows` at most (128): the largest power of two
# h for which a complex (h, 16) @ (16, 16) product runs on one thread.
_WALK_ROWS = 1 << (one_thread_rows(16 * 16, complex).bit_length() - 1)


def power_rows(p: np.ndarray, v0: np.ndarray, n: int) -> np.ndarray:
    """Rows v0 P^k, k < n, by repeated squaring: P^h carries rows [0, h) to
    [h, 2h) and is squared, up to h = _WALK_ROWS, then carries each h-row
    block to the next, so n rows take O(log n + n / _WALK_ROWS) products."""
    out = np.empty((n, len(v0)), dtype=np.result_type(p, v0))
    out[0] = v0
    i, h = 1, 1
    while i < n:
        k = min(h, n - i)
        out[i:i + k] = out[i - h:i - h + k] @ p
        i += k
        if h < _WALK_ROWS:
            p, h = p @ p, 2 * h
    return out


def record_times(t_max: float, record_grid: float | None) -> np.ndarray:
    """Record points 0, g, ..., t_max; g defaults to t_max / 100."""
    if not 0 < t_max < np.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if record_grid is None:
        record_grid = t_max / 100.0
    if not 0 < record_grid <= t_max + 1e-12:
        raise ValueError("need 0 < record_grid <= t_max")
    if not np.isfinite(t_max / record_grid):
        raise ValueError(f"t_max / record_grid = {t_max} / {record_grid} "
                         "is not finite")
    n_rec = int(round(t_max / record_grid))
    if abs(n_rec * record_grid - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError("record_grid must divide t_max")
    return (t_max / n_rec) * np.arange(n_rec + 1)
