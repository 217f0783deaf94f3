"""Entanglement dynamics of two monitored qubits.

Simulates quantum-jump and quantum-state-diffusion trajectory unravelings of
two-qubit decay alongside the ensemble (Lindblad) evolution, tracks Wootters
concurrence on single trajectories and in the mean, and provides the
closed-form disentanglement rates of the different monitoring schemes
together with the best channel mixing for thermal baths.
"""

from .config import load_scenario, scenario_from_dict
from .diffusion import run_ensemble_qsd, run_trajectory_qsd
from .ensemble import (EnsembleSummary, JumpEvent, RateFit, TrajectoryRecord,
                       average, empirical_density, fit_rate, fit_rate_series)
from .entanglement import (concurrence_batch, concurrence_mixed,
                           concurrence_pure, eof_from_concurrence,
                           preconcurrence)
from .errors import (ConfigError, ConvergenceError, FitWindowError,
                     NumericalError, PositivityError, StepSizeError)
from .lindblad import DensityEvolution, concurrence_series, evolve_rho
from .models import (JumpChannel, Scenario, bell_state,
                     lindblad_superoperator, preset_common_bath,
                     preset_dephasing, preset_photon_counting,
                     preset_rotated_thermal, preset_thermal,
                     scenario_from_channels, state_from_amplitudes,
                     with_heterodyne, with_homodyne_shift, with_phase_rotation)
from .quantum_jump import run_ensemble, run_trajectory
from .rates import (RateReport, UnravelingOptimum, analytic_mean_concurrence,
                    common_bath_vanish_time, kappa_opt_thermal,
                    optimize_unraveling, rate_report)

__version__ = "0.1.0"
