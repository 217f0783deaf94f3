"""Ensemble (Lindblad) evolution of the two-qubit density matrix.

The master equation

    d rho / dt = -i [H0, rho]
                 + sum_m gamma_m ( J_m rho J_m^dag
                                   - (1/2) {J_m^dag J_m, rho} )

is linear with the static 16x16 generator L of
`models.lindblad_superoperator`, so it is solved exactly: the propagator
P = expm(L g) over one record interval g is computed once (`linalg.expm`,
scaling and squaring with a Pade [13/13] step), and vec rho_k = P^k vec
rho_0 (column-stacked) on the record points of `ensemble.record_times`, the
grid of the trajectory engines.  The powers come by repeated squaring:
P^h carries records [0, h) to [h, 2h) in one product and is squared, up to
h = 256, after which P^256 carries each block of 256 records to the next,
so G records take O(log G + G / 256) products.  The run
starts from |psi0><psi0| with the scenario's `Scenario.psi0`, the start
state of every engine and closed form.  There is no time step and the
trace is not renormalized.  Each recorded rho is decomposed once, by the
Wootters routine `concurrence_mixed` also runs: one Hermitian
eigendecomposition gives the smallest eigenvalue and, in rho's eigenbasis,
the concurrence C_rho, so sqrt(rho) is never formed.  Trace drift and the
smallest eigenvalue are reported over the record points; a matrix that is
not finite or not Hermitian within 1e-10 is a ValueError, and an
eigenvalue below `entanglement.EIG_FLOOR`, the floor `concurrence_mixed`
also enforces, aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import record_times
from .entanglement import EIG_FLOOR, _wootters
from .errors import PositivityError
from .linalg import expm, require_finite
from .models import Scenario, lindblad_superoperator

__all__ = ["DensityEvolution", "density_from_state", "evolve_rho",
           "concurrence_series"]

# most rows per propagation product: 256 x 16 by 16 x 16 is 65,536 complex
# multiply-adds, the size from which OpenBLAS threads a complex GEMM
_ROWS = 256


def density_from_state(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(4)
    return np.outer(psi, np.conjugate(psi))


@dataclass(frozen=True)
class DensityEvolution:
    times: np.ndarray
    rhos: np.ndarray          # (G, 4, 4)
    max_trace_drift: float
    min_eigenvalue: float
    c_rho: np.ndarray         # (G,) Wootters concurrence of each rho


def evolve_rho(s: Scenario, t_max: float,
               record_grid: float | None = None) -> DensityEvolution:
    """Propagate the master equation exactly from |psi0><psi0| and record
    rho on a uniform grid; ``record_grid`` (default t_max / 100) must
    divide ``t_max``.
    """
    times = record_times(t_max, record_grid)
    # a row of vecs is vec rho, so hop = (P^h)^T carries row k to row k + h
    hop, h = expm(lindblad_superoperator(s) * times[1]).T, 1
    vecs = np.empty((len(times), 16), dtype=complex)
    vecs[0] = density_from_state(s.psi0).reshape(16, order="F")
    i = 1
    while i < len(vecs):
        n = min(h, len(vecs) - i)
        vecs[i:i + n] = vecs[i - h:i - h + n] @ hop
        i += n
        if h < _ROWS:
            hop, h = hop @ hop, 2 * h
    rhos = np.ascontiguousarray(vecs.reshape(-1, 4, 4).transpose(0, 2, 1))

    drift = np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0)
    c_rho, w0 = _wootters(require_finite(rhos, "density matrix"))
    bad = np.flatnonzero(w0 < EIG_FLOOR)
    if bad.size:
        raise PositivityError(
            f"density matrix eigenvalue {w0[bad[0]]:.3e} < "
            f"{EIG_FLOOR:.1e} at t = {times[bad[0]]:.4f}")
    return DensityEvolution(times=times, rhos=rhos,
                            max_trace_drift=float(drift.max()),
                            min_eigenvalue=float(w0.min()), c_rho=c_rho)


def concurrence_series(evolution: DensityEvolution) -> np.ndarray:
    """Mixed-state concurrence at every recorded time, as `evolve_rho`
    computed it with the positivity check."""
    return evolution.c_rho
