"""Two-qubit decay scenarios: jump channels, presets, and validation.

A scenario bundles a (possibly zero) Hamiltonian H0, a list of jump channels
(J_m, gamma_m) and an initial pure state.  The derived damping kernel is

    K = (1/2) sum_m gamma_m J_m^dag J_m          (lifted to the pair space)

and the effective non-Hermitian generator for no-jump evolution is
H_eff = H0 - i K.  Channels marked with a coherent ``shift`` alpha stand for
the displaced operators J + alpha used by homodyne-style monitoring; a channel
with a nonzero ``het_freq`` Omega carries the rotating displacement
alpha e^{i Omega t} (`JumpChannel.rotates`; Omega = 0 is a static shift).
Displacements come in +/- pairs at half the original rate, which leaves the
ensemble (Lindblad) generator unchanged.  Every engine starts from
`Scenario.psi0`.  `validate_scenario` runs when a file is loaded; each
engine checks its own preconditions when its kernel is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .linalg import (
    ID2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z,
    dag, kron2, require_finite,
)

__all__ = [
    "JumpChannel", "Scenario", "ValidationReport",
    "bell_state", "state_from_amplitudes", "local_hamiltonian",
    "preset_photon_counting", "preset_thermal", "preset_dephasing",
    "preset_rotated_thermal", "preset_common_bath",
    "with_homodyne_shift", "with_heterodyne", "with_phase_rotation",
    "scenario_from_channels", "kernel_oscillation", "lindblad_superoperator",
    "validate_scenario", "COLLECTIVE_DECAY",
]

ID4 = np.eye(4, dtype=complex)
KERNEL_DRIFT_TOL = 1e-10  # largest allowed oscillating coefficient of K(t)
COLLECTIVE_DECAY = kron2(SIGMA_MINUS, ID2) + kron2(ID2, SIGMA_MINUS)

_LOCALITIES = ("A", "B", "joint")


def state_from_amplitudes(c_uu: complex, c_ud: complex, c_du: complex,
                          c_dd: complex) -> np.ndarray:
    """Pack amplitudes in the {uu, ud, du, dd} basis into a state vector."""
    return np.array([c_uu, c_ud, c_du, c_dd], dtype=complex)


def bell_state() -> np.ndarray:
    """(|uu> + |dd>)/sqrt(2), the default initial state."""
    s = 1.0 / np.sqrt(2.0)
    return state_from_amplitudes(s, 0.0, 0.0, s)


def local_hamiltonian(h_a: np.ndarray | None, h_b: np.ndarray | None) -> np.ndarray:
    """Lift single-qubit Hamiltonians to H_A (x) 1 + 1 (x) H_B."""
    h = np.zeros((4, 4), dtype=complex)
    if h_a is not None:
        h += kron2(np.asarray(h_a, dtype=complex), ID2)
    if h_b is not None:
        h += kron2(ID2, np.asarray(h_b, dtype=complex))
    return h


@dataclass(frozen=True)
class JumpChannel:
    """One decay channel: operator, rate, and optional coherent displacement.

    ``op`` is 2x2 for locality "A"/"B" (lifted internally) or 4x4 for "joint".
    Construction is permissive — semantic problems (negative rate, wrong
    shapes, displacement bookkeeping) are reported by `validate_scenario`
    rather than raised here, so that invalid configurations can be inspected.
    """

    id: str
    locality: str
    op: np.ndarray
    rate: float
    shift: complex | None = None
    het_freq: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", np.asarray(self.op, dtype=complex))

    @property
    def rotates(self) -> bool:
        """The one rotation rule: a nonzero shift and a nonzero het_freq."""
        return bool(self.shift) and bool(self.het_freq)

    def shift_at(self, t: float) -> complex:
        a = complex(self.shift or 0.0)
        return a * np.exp(1j * self.het_freq * t) if self.rotates else a

    def operator(self, t: float = 0.0) -> np.ndarray:
        """Effective (displaced) operator at time t, before lifting."""
        a = self.shift_at(t)
        return self.op if a == 0.0 else self.op + a * np.eye(len(self.op))

    def rate_operator(self) -> np.ndarray:
        """Operator the closed-form decay rates are evaluated on.

        Static displacements are part of the monitoring scheme and enter the
        rate formulas literally; a rotating displacement averages out and is
        dropped.
        """
        return self.op if self.rotates else self.operator(0.0)

    def lifted(self, t: float = 0.0) -> np.ndarray:
        """Effective operator at time t on the pair space."""
        return _lift(self.locality, self.operator(t))


def _lift(locality: str, op: np.ndarray) -> np.ndarray:
    if locality == "A":
        return kron2(op, ID2)
    if locality == "B":
        return kron2(ID2, op)
    return np.asarray(op, dtype=complex)


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of Hamiltonian, channels and initial state.

    Derived quantities (damping kernel K, effective generator H_eff, lifted
    operator stack) are cached on first use.  Engines never mutate a
    scenario; transformed copies are produced by the ``with_*`` helpers.
    """

    h0: np.ndarray
    channels: tuple[JumpChannel, ...]
    initial: np.ndarray
    thermal_rates: tuple[float, float, float, float] | None = field(
        default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h0", np.asarray(self.h0, dtype=complex))
        object.__setattr__(self, "initial",
                           np.asarray(self.initial, dtype=complex).reshape(4))
        object.__setattr__(self, "channels", tuple(self.channels))

    @cached_property
    def k_op(self) -> np.ndarray:
        """Damping kernel K = (1/2) sum_m gamma_m J_m^dag J_m on the pair space.

        Displaced channels contribute through their effective operators; for
        the +/- displacement pairs produced by the preset transformations the
        cross terms cancel and K is time independent, so evaluating at t = 0
        is exact.
        """
        k = np.zeros((4, 4), dtype=complex)
        for ch in self.channels:
            j = ch.lifted(0.0)
            k += 0.5 * ch.rate * (dag(j) @ j)
        return k

    @cached_property
    def h_eff(self) -> np.ndarray:
        return self.h0 - 1j * self.k_op

    @cached_property
    def gamma_max(self) -> float:
        return max((ch.rate for ch in self.channels), default=0.0)

    @property
    def time_dependent(self) -> bool:
        return any(ch.rotates for ch in self.channels)

    @cached_property
    def psi0(self) -> np.ndarray:
        """The normalized start state; ``initial`` stays as given."""
        return self.initial / np.linalg.norm(self.initial)

    @cached_property
    def lifted_ops(self) -> np.ndarray:
        """Stack (M, 4, 4) of lifted effective operators at t = 0."""
        return np.stack([ch.lifted(0.0) for ch in self.channels]) \
            if self.channels else np.zeros((0, 4, 4), dtype=complex)

    @cached_property
    def rates(self) -> np.ndarray:
        return np.array([ch.rate for ch in self.channels], dtype=float)

    def jump_amplitudes(self, psi: np.ndarray, t: np.ndarray) -> np.ndarray:
        """J_m(t_b) psi_b for rows psi (B, 4) at times t (B,); shape (B, M, 4).

        A rotating displacement alpha e^{i Omega t} differs from its value at
        t = 0 by alpha (e^{i Omega t} - 1) times the identity.
        """
        out = np.einsum("mij,bj->bmi", self.lifted_ops, psi)
        if self.time_dependent:
            alpha = np.array([ch.shift_at(0.0) for ch in self.channels])
            omega = np.array([ch.het_freq or 0.0 for ch in self.channels])
            drift = alpha * np.expm1(1j * np.multiply.outer(t, omega))
            out += drift[:, :, None] * psi[:, None, :]
        return out

    def with_initial(self, psi: np.ndarray) -> "Scenario":
        psi = require_finite(psi, "initial state").reshape(4)
        return replace(self, initial=psi)


def scenario_from_channels(channels, initial=None, h0=None,
                           thermal_rates=None) -> Scenario:
    """Assemble a scenario from explicit channels (permissive, see validate)."""
    if initial is None:
        initial = bell_state()
    if h0 is None:
        h0 = np.zeros((4, 4), dtype=complex)
    return Scenario(h0=h0, channels=tuple(channels), initial=initial,
                    thermal_rates=thermal_rates)


def _check_rates(*rates: float) -> None:
    for g in rates:
        if not np.isfinite(g) or g < 0:
            raise ValueError(f"decay rates must be finite and >= 0, got {g}")


def preset_photon_counting(gamma_a: float, gamma_b: float,
                           initial: np.ndarray | None = None) -> Scenario:
    """Independent zero-temperature decay: sigma_- on each qubit."""
    _check_rates(gamma_a, gamma_b)
    channels = (
        JumpChannel("decay-A", "A", SIGMA_MINUS, gamma_a),
        JumpChannel("decay-B", "B", SIGMA_MINUS, gamma_b),
    )
    return scenario_from_channels(channels, initial,
                                  thermal_rates=(0.0, gamma_a, 0.0, gamma_b))


def preset_thermal(gamma_plus_a: float, gamma_minus_a: float,
                   gamma_plus_b: float, gamma_minus_b: float,
                   initial: np.ndarray | None = None) -> Scenario:
    """Independent finite-temperature baths: sigma_-+ channels per qubit."""
    _check_rates(gamma_plus_a, gamma_minus_a, gamma_plus_b, gamma_minus_b)
    channels = (
        JumpChannel("up-A", "A", SIGMA_PLUS, gamma_plus_a),
        JumpChannel("down-A", "A", SIGMA_MINUS, gamma_minus_a),
        JumpChannel("up-B", "B", SIGMA_PLUS, gamma_plus_b),
        JumpChannel("down-B", "B", SIGMA_MINUS, gamma_minus_b),
    )
    return scenario_from_channels(channels, initial, thermal_rates=(
        gamma_plus_a, gamma_minus_a, gamma_plus_b, gamma_minus_b))


def preset_dephasing(v_a, v_b, gamma_a: float, gamma_b: float,
                     initial: np.ndarray | None = None) -> Scenario:
    """Pure dephasing along unit Bloch vectors: J_i = v_i . sigma."""
    _check_rates(gamma_a, gamma_b)
    channels = []
    for name, v, g in (("dephase-A", v_a, gamma_a), ("dephase-B", v_b, gamma_b)):
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"Bloch vector for {name} must have 3 components")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError(f"Bloch vector for {name} must be unit length "
                             f"(|v| = {np.linalg.norm(v):.12f})")
        op = v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
        channels.append(JumpChannel(name, name[-1], op, g))
    return scenario_from_channels(tuple(channels), initial)


def preset_rotated_thermal(u_a, u_b,
                           gamma_plus_a: float, gamma_minus_a: float,
                           gamma_plus_b: float, gamma_minus_b: float,
                           initial: np.ndarray | None = None) -> Scenario:
    """Thermal baths monitored in a rotated channel basis.

    Each qubit's pair (sigma_+, sigma_-) with rates (gamma_+, gamma_-) is
    re-mixed into N >= 2 channels

        J_mu = sum_m sqrt(gamma_m / g_mu) u_{mu m} sigma_m,   m in {+, -},

    where the N x 2 matrix u has orthonormal columns (u^dag u = 1).  The
    channel rates are fixed by the mixing, g_mu = sum_m gamma_m |u_{mu m}|^2,
    which keeps the channel operators near unit scale.  Any other positive
    g_mu would be a pure reparametrization: the ensemble generator, the click
    statistics and the post-click states depend only on g_mu J_mu^dag J_mu.
    """
    _check_rates(gamma_plus_a, gamma_minus_a, gamma_plus_b, gamma_minus_b)
    channels = []
    for qubit, u, gp, gm in (("A", u_a, gamma_plus_a, gamma_minus_a),
                             ("B", u_b, gamma_plus_b, gamma_minus_b)):
        u = np.asarray(u, dtype=complex)
        if u.ndim != 2 or u.shape[1] != 2 or u.shape[0] < 2:
            raise ValueError(f"mixing matrix for qubit {qubit} must be N x 2 "
                             f"with N >= 2, got {u.shape}")
        gram = dag(u) @ u
        if np.max(np.abs(gram - np.eye(2))) > 1e-10:
            raise ValueError(f"mixing matrix for qubit {qubit} must have "
                             "orthonormal columns (u^dag u = 1 within 1e-10)")
        crates = [float(gp * abs(u[mu, 0]) ** 2 + gm * abs(u[mu, 1]) ** 2)
                  for mu in range(u.shape[0])]
        if any(g <= 0 for g in crates):
            raise ValueError("rotated channel rates must be positive")
        for mu, g_mu in enumerate(crates):
            op = (np.sqrt(gp / g_mu) * u[mu, 0] * SIGMA_PLUS
                  + np.sqrt(gm / g_mu) * u[mu, 1] * SIGMA_MINUS)
            channels.append(JumpChannel(f"mix{mu + 1}-{qubit}", qubit, op, g_mu))
    return scenario_from_channels(tuple(channels), initial, thermal_rates=(
        gamma_plus_a, gamma_minus_a, gamma_plus_b, gamma_minus_b))


def preset_common_bath(gamma: float,
                       initial: np.ndarray | None = None) -> Scenario:
    """Both qubits coupled to one bath: single joint channel sigma_- + sigma_-."""
    _check_rates(gamma)
    channels = (JumpChannel("collective-decay", "joint", COLLECTIVE_DECAY,
                            gamma),)
    return scenario_from_channels(channels, initial)


def _per_channel(values, s: Scenario, what: str, cast) -> list:
    """One value per channel of ``s``, or one value for all of them."""
    values = [cast(x) for x in np.atleast_1d(values)]
    if len(values) == 1:
        values = values * len(s.channels)
    if len(values) != len(s.channels):
        raise ValueError(f"need one {what} per channel "
                         f"({len(s.channels)}), got {len(values)}")
    return values


def _displaced(s: Scenario, shifts, freqs, tag: str) -> Scenario:
    """Split each channel into (J +/- alpha e^{i Omega t}, gamma/2) pairs with
    ids ``~{tag}p``/``~{tag}m``; Omega is None for a static displacement."""
    channels = []
    for ch, a, w in zip(s.channels, shifts, freqs):
        if ch.locality == "joint":
            raise ValueError(f"channel {ch.id!r} is non-local; displaced "
                             "monitoring is defined per qubit only")
        if ch.shift is not None:
            raise ValueError(f"channel {ch.id!r} already carries a displacement")
        for sign, pm in ((+1, "p"), (-1, "m")):
            channels.append(JumpChannel(f"{ch.id}~{tag}{pm}", ch.locality,
                                        ch.op, ch.rate / 2.0, shift=sign * a,
                                        het_freq=w))
    return replace(s, channels=tuple(channels))


def with_homodyne_shift(s: Scenario, shifts) -> Scenario:
    """Split every channel (J, gamma) into (J +/- alpha, gamma/2).

    The displacement pairs leave the ensemble generator unchanged but change
    the jump statistics and the jump-conditioned concurrence.  Only local
    channels may be displaced.
    """
    shifts = _per_channel(shifts, s, "displacement", complex)
    return _displaced(s, shifts, [None] * len(shifts), "")


def with_heterodyne(s: Scenario, amplitudes, frequencies) -> Scenario:
    """Displace channels with rotating amplitudes alpha e^{i Omega t}.

    ``amplitudes`` and ``frequencies`` give one positive alpha and Omega per
    channel.  The Omega -> 0 limit reduces to the static displacement of
    `with_homodyne_shift`.  K and H_eff stay time independent because the
    +/- pair cross terms cancel at every instant.
    """
    amps = _per_channel(amplitudes, s, "amplitude", float)
    freqs = _per_channel(frequencies, s, "frequency", float)
    if any(a <= 0 for a in amps):
        raise ValueError("heterodyne amplitudes must be positive")
    if any(w <= 0 for w in freqs):
        raise ValueError("heterodyne frequencies must be positive")
    return _displaced(s, amps, freqs, "het")


def with_phase_rotation(s: Scenario, thetas) -> Scenario:
    """Rotate channel operators J -> e^{-i theta} J (monitoring phase choice)."""
    thetas = _per_channel(thetas, s, "phase", float)
    channels = tuple(
        replace(ch, op=np.exp(-1j * th) * ch.op)
        for ch, th in zip(s.channels, thetas))
    return replace(s, channels=channels)


def kernel_oscillation(s: Scenario) -> float:
    """Largest coefficient of the time-dependent part of K(t); 0 if static.

    A channel J + alpha e^{i Omega t} adds (gamma/2)(alpha e^{i Omega t} J^dag
    + h.c.) to K.  Exponentials of distinct frequencies are independent, so K
    is static exactly when these terms cancel frequency by frequency, as they
    do for the +/- displacement pairs of `with_heterodyne`.  A channel with
    Omega < 0 contributes alpha* J at e^{i |Omega| t}.
    """
    coeff: dict[float, np.ndarray] = {}
    for ch in s.channels:
        if not ch.rotates:
            continue
        j = _lift(ch.locality, ch.op)
        a = complex(ch.shift)
        term = a * dag(j) if ch.het_freq > 0 else np.conjugate(a) * j
        w = abs(ch.het_freq)
        coeff[w] = coeff.get(w, 0.0) + 0.5 * ch.rate * term
    return max((float(np.max(np.abs(c))) for c in coeff.values()),
               default=0.0)


def lindblad_superoperator(s: Scenario) -> np.ndarray:
    """16x16 generator on column-stacked density matrices, the vec form of
    A rho + rho A^dag + sum_m gamma_m J_m rho J_m^dag with A = -i H_eff:
    L = 1 (x) A + A* (x) 1 + sum_m gamma_m J_m* (x) J_m.  The mean of
    psi psi^T over trajectories obeys the same sum without the two conjugations.
    """
    a = -1j * s.h_eff
    gen = np.kron(ID4, a) + np.kron(np.conjugate(a), ID4)
    for g, j in zip(s.rates, s.lifted_ops):
        gen += g * np.kron(np.conjugate(j), j)
    return gen


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_scenario(s: Scenario) -> ValidationReport:
    """Check a scenario's structural invariants, reporting all violations.

    Never raises on bad content: every problem is returned as a human-readable
    entry.
    """
    v: list[str] = []

    h0 = np.asarray(s.h0)
    if h0.shape != (4, 4):
        v.append(f"h0 must be 4x4, got {h0.shape}")
    elif not np.all(np.isfinite(h0.view(float))):
        v.append("h0 contains non-finite entries")
    elif np.max(np.abs(h0 - dag(h0))) > 1e-10:
        v.append("h0 is not Hermitian")

    psi = s.initial  # shape (4,), by Scenario.__post_init__
    if not np.all(np.isfinite(psi.view(float))):
        v.append("initial state contains non-finite entries")
    elif abs((n := np.linalg.norm(psi)) - 1.0) > 1e-9:
        v.append(f"initial state is not normalized: |psi| = {n:.12f}")

    shapes_ok = True
    for ch in s.channels:
        if ch.locality not in _LOCALITIES:
            v.append(f"channel {ch.id!r}: locality must be one of {_LOCALITIES}")
            shapes_ok = False
            continue
        want = (4, 4) if ch.locality == "joint" else (2, 2)
        if ch.op.shape != want:
            v.append(f"channel {ch.id!r}: operator shape {ch.op.shape} does "
                     f"not match locality {ch.locality!r} (want {want})")
            shapes_ok = False
        elif not np.all(np.isfinite(ch.op.view(float))):
            v.append(f"channel {ch.id!r}: operator has non-finite entries")
            shapes_ok = False
        if not np.isfinite(ch.rate) or ch.rate < 0:
            v.append(f"channel {ch.id!r}: rate {ch.rate} is negative or non-finite")
        for name in ("shift", "het_freq"):
            if not np.isfinite(x := getattr(ch, name) or 0.0):
                v.append(f"channel {ch.id!r}: {name} {x} is non-finite")
                shapes_ok = False
        if ch.het_freq is not None and ch.shift is None:
            v.append(f"channel {ch.id!r}: het_freq set without a displacement")

    if shapes_ok and s.channels:
        try:
            kw = np.linalg.eigvalsh(0.5 * (s.k_op + dag(s.k_op)))
            if kw[0] < -1e-10:
                v.append(f"damping kernel K has negative eigenvalue {kw[0]:.3e}")
        except np.linalg.LinAlgError as exc:
            v.append(f"could not diagonalize K: {exc}")
        drift = kernel_oscillation(s)
        if drift > KERNEL_DRIFT_TOL:
            v.append(f"damping kernel K(t) oscillates with amplitude "
                     f"{drift:.3g}: rotating displacements must come in +/- "
                     "pairs, because the engines assume a static no-click "
                     "generator")

    return ValidationReport(ok=not v, violations=tuple(v))
