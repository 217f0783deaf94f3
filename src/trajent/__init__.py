"""Entanglement dynamics of two monitored qubits.

Simulates quantum-jump and quantum-state-diffusion trajectory unravelings of
two-qubit decay alongside the ensemble (Lindblad) evolution, tracks Wootters
concurrence on single trajectories and in the mean, and provides the
closed-form disentanglement rates of the different monitoring schemes
together with the best channel mixing for thermal baths.
"""

__version__ = "0.1.0"
