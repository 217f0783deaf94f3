"""Ensemble (Lindblad) evolution of the two-qubit density matrix.

The master equation

    d rho / dt = -i [H0, rho]
                 + sum_m gamma_m ( J_m rho J_m^dag
                                   - (1/2) {J_m^dag J_m, rho} )

is linear with the static 16x16 generator L of
`models.lindblad_superoperator`, so it is solved exactly: the propagator
P = expm(L g) over one record interval g is computed once (`linalg.expm`,
scaling and squaring with a Pade [13/13] step), and
vec rho_{k+1} = P vec rho_k (column-stacked) on the record points of
`ensemble.record_times`, the grid of the trajectory engines.  There is no
time step and the trace is not renormalized.  Trace drift and the smallest
eigenvalue are reported over the record points: eigenvalues in [-1e-8, 0)
are tolerated as roundoff, anything below -1e-6 aborts the run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import record_times
from .entanglement import concurrence_mixed
from .errors import PositivityError
from .linalg import dag, expm, require_finite
from .models import Scenario, lindblad_superoperator

__all__ = ["DensityEvolution", "density_from_state", "validate_density_matrix",
           "evolve_rho", "concurrence_series"]

EIG_FLOOR_SOFT = -1e-8
EIG_FLOOR_HARD = -1e-6
_HERM_TOL = 1e-9
_TRACE_TOL = 1e-9


def density_from_state(psi: np.ndarray) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex).reshape(4)
    return np.outer(psi, np.conjugate(psi))


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace, and near-positivity; return as (4,4)."""
    rho = require_finite(rho, "density matrix").reshape(4, 4)
    herm = np.max(np.abs(rho - dag(rho)))
    if herm > _HERM_TOL:
        raise ValueError(f"density matrix not Hermitian: deviation {herm:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {tr:.12f} != 1")
    w = np.linalg.eigvalsh(0.5 * (rho + dag(rho)))
    if w[0] < EIG_FLOOR_SOFT:
        raise ValueError(f"density matrix has eigenvalue {w[0]:.3e} "
                         f"< {EIG_FLOOR_SOFT:.1e}")
    return rho


@dataclass(frozen=True)
class DensityEvolution:
    times: np.ndarray
    rhos: np.ndarray          # (G, 4, 4)
    max_trace_drift: float
    min_eigenvalue: float


def evolve_rho(s: Scenario, t_max: float, record_grid: float | None = None,
               rho0: np.ndarray | None = None) -> DensityEvolution:
    """Propagate the master equation exactly and record rho on a uniform grid.

    ``record_grid`` (default t_max / 100) must divide ``t_max``.
    """
    times = record_times(t_max, record_grid)
    rho = density_from_state(s.initial) if rho0 is None else \
        validate_density_matrix(rho0).astype(complex)

    step = expm(lindblad_superoperator(s) * times[1])
    vecs = np.empty((len(times), 16), dtype=complex)
    vecs[0] = rho.reshape(16, order="F")
    for i in range(1, len(times)):
        vecs[i] = step @ vecs[i - 1]
    rhos = np.ascontiguousarray(vecs.reshape(-1, 4, 4).transpose(0, 2, 1))

    drift = np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0)
    w0 = np.linalg.eigvalsh(rhos)[:, 0]
    bad = np.flatnonzero(w0 < EIG_FLOOR_HARD)
    if bad.size:
        raise PositivityError(
            f"density matrix eigenvalue {w0[bad[0]]:.3e} < "
            f"{EIG_FLOOR_HARD:.1e} at t = {times[bad[0]]:.4f}")
    return DensityEvolution(times=times, rhos=rhos,
                            max_trace_drift=float(drift.max()),
                            min_eigenvalue=float(w0.min()))


def concurrence_series(evolution: DensityEvolution) -> np.ndarray:
    """Mixed-state concurrence at every recorded time, in one batched call."""
    return concurrence_mixed(evolution.rhos)
