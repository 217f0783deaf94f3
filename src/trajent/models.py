"""Two-qubit decay scenarios: jump channels, presets, and their one check.

A scenario bundles a (possibly zero) Hamiltonian H0, a list of jump channels
(J_m, gamma_m) and an initial pure state.  Every J_m is 4x4, on the pair
space: the presets and scenario files `lift` single-qubit matrices, and the
qubits a channel acts on are read back from it (`Scenario.qubits`).  The
derived damping kernel is

    K = (1/2) sum_m gamma_m J_m^dag J_m

and the effective non-Hermitian generator for no-jump evolution is
H_eff = H0 - i K.  Channels marked with a coherent ``shift`` alpha stand for
the displaced operators J + alpha used by homodyne-style monitoring; a channel
with a nonzero ``het_freq`` Omega carries the rotating displacement
alpha e^{i Omega t} (`JumpChannel.rotates`; Omega = 0 is a static shift).
Displacements come in +/- pairs at half the original rate, which leaves the
ensemble generator (`_generator`, which also reads thermal baths off the
channels: `Scenario.thermal_rates`) unchanged.  Every engine starts from
`Scenario.psi0`.  A `Scenario` is checked once, when it is built by any
route (``dataclasses.replace`` and the ``with_*`` transforms included), so
the engines and `rates` trust every scenario they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .linalg import (
    ID2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, dag, kron2,
)

__all__ = [
    "JumpChannel", "Scenario",
    "bell_state", "state_from_amplitudes", "local_hamiltonian",
    "preset_photon_counting", "preset_thermal", "preset_dephasing",
    "preset_rotated_thermal", "preset_common_bath",
    "with_homodyne_shift", "with_heterodyne", "with_phase_rotation",
    "scenario_from_channels", "kernel_oscillation", "lindblad_superoperator",
    "lift", "COLLECTIVE_DECAY",
]

KERNEL_DRIFT_TOL = 1e-10  # largest allowed oscillating coefficient of K(t)
_FACTOR_TOL = 1e-12  # entrywise rest of an operator after its local parts
COLLECTIVE_DECAY = kron2(SIGMA_MINUS, ID2) + kron2(ID2, SIGMA_MINUS)


def state_from_amplitudes(c_uu: complex, c_ud: complex, c_du: complex,
                          c_dd: complex) -> np.ndarray:
    """Pack amplitudes in the {uu, ud, du, dd} basis into a state vector."""
    return np.array([c_uu, c_ud, c_du, c_dd], dtype=complex)


def bell_state() -> np.ndarray:
    """(|uu> + |dd>)/sqrt(2), the default initial state."""
    s = 1.0 / np.sqrt(2.0)
    return state_from_amplitudes(s, 0.0, 0.0, s)


def lift(qubit: str, op: np.ndarray) -> np.ndarray:
    """The 2x2 ``op`` acting on qubit "A" or "B": op (x) 1 or 1 (x) op."""
    if qubit not in ("A", "B"):
        raise ValueError(f"qubit must be 'A' or 'B', got {qubit!r}")
    return kron2(op, ID2) if qubit == "A" else kron2(ID2, op)


def local_hamiltonian(h_a: np.ndarray | None, h_b: np.ndarray | None) -> np.ndarray:
    """Lift single-qubit Hamiltonians to H_A (x) 1 + 1 (x) H_B."""
    h = np.zeros((4, 4), dtype=complex)
    if h_a is not None:
        h += lift("A", h_a)
    if h_b is not None:
        h += lift("B", h_b)
    return h


@dataclass(frozen=True)
class JumpChannel:
    """One decay channel: operator, rate, and optional coherent displacement.

    ``op`` is the 4x4 operator on the pair space (`lift` makes one from a
    single-qubit 2x2 matrix).  A channel is checked, with the rest of its
    scenario, when the `Scenario` that holds it is built.
    """

    id: str
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

    def operator(self) -> np.ndarray:
        """Effective (displaced) operator at t = 0; a rotating displacement
        alpha e^{i Omega t} enters as alpha (`Scenario.jump_amplitudes`)."""
        a = complex(self.shift or 0.0)
        return self.op if a == 0.0 else self.op + a * np.eye(4)


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of Hamiltonian, channels and initial state.

    Derived quantities (K, H_eff, the t = 0 operators, the per-qubit view,
    thermal bath rates) are cached on first use.  Engines never mutate a
    scenario; transformed copies are produced by the ``with_*`` helpers.
    Building one raises a `ConfigError` listing every `_violations` entry;
    ``initial`` may be unnormalized (`psi0` normalizes it) but not zero.
    """

    h0: np.ndarray
    channels: tuple[JumpChannel, ...]
    initial: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "h0", np.asarray(self.h0, dtype=complex))
        object.__setattr__(self, "initial",
                           np.asarray(self.initial, dtype=complex).reshape(-1))
        object.__setattr__(self, "channels", tuple(self.channels))
        if v := _violations(self):
            raise ConfigError("invalid scenario:\n  " + "\n  ".join(v))

    @cached_property
    def k_op(self) -> np.ndarray:
        """Damping kernel K = (1/2) sum_m gamma_m J_m^dag J_m on the pair space.

        Displaced channels contribute through their effective operators; for
        the +/- displacement pairs produced by the preset transformations the
        cross terms cancel and K is time independent, so evaluating at t = 0
        is exact.
        """
        k = np.zeros((4, 4), dtype=complex)
        for g, j in zip(self.rates, self.lifted_ops):
            k += 0.5 * g * (dag(j) @ j)
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
        """Stack (M, 4, 4) of the effective operators at t = 0."""
        return np.stack([ch.operator() for ch in self.channels]) \
            if self.channels else np.zeros((0, 4, 4), dtype=complex)

    @cached_property
    def rates(self) -> np.ndarray:
        return np.array([ch.rate for ch in self.channels], dtype=float)

    @cached_property
    def qubits(self) -> tuple:
        """(H0's parts, one entry per channel), read from the operators:
        (H_A, H_B) with H0 = H_A (x) 1 + 1 (x) H_B, or None; per
        channel ("A", J) if its operator X is J (x) 1, J = tr_B X / 2,
        else ("B", J) if X is 1 (x) J, J = tr_A X / 2, else None; each rest
        within _FACTOR_TOL.  X keeps a static displacement, part of the
        monitoring scheme, and drops a rotating one, which averages out."""
        ops = [ch.op if ch.rotates else ch.operator() for ch in self.channels]
        x = np.reshape([self.h0, *ops], (-1, 2, 2, 2, 2))  # H0 leads
        j_a = np.einsum("mikjk->mij", x) / 2.0
        j_b = np.einsum("mkikj->mij", x) / 2.0
        is_a = np.abs(x - np.einsum("mij,kl->mikjl", j_a, ID2)).max(
            axis=(1, 2, 3, 4)) <= _FACTOR_TOL
        is_b = np.abs(x - np.einsum("kl,mij->mkilj", ID2, j_b)).max(
            axis=(1, 2, 3, 4)) <= _FACTOR_TOL
        shared = 0.125 * np.trace(self.h0) * ID2  # each part takes half
        h0 = (j_a[0] - shared, j_b[0] - shared)
        if np.max(np.abs(self.h0 - local_hamiltonian(*h0))) > _FACTOR_TOL:
            h0 = None
        return h0, tuple(("A", a) if in_a else ("B", b) if in_b else None
                         for a, b, in_a, in_b in zip(j_a, j_b, is_a, is_b))[1:]

    @cached_property
    def thermal_rates(self) -> tuple[float, float, float, float] | None:
        """(gamma_+A, gamma_-A, gamma_+B, gamma_-B), gamma_+/- = sum_m gamma_m
        |<u|J_m|d>|^2 / |<d|J_m|u>|^2 on each qubit of `qubits`, when its
        generator is that of sigma_+/- at those rates within 1e-10
        max(1, gamma_max); else None.  H0 is not read."""
        _, view = self.qubits
        if any(q is None for q in view):
            return None
        found, tol = (), 1e-10 * max(1.0, self.gamma_max)
        for qubit in "AB":
            on = [m for m, (q, _) in enumerate(view) if q == qubit]
            g = self.rates[on]
            ops = np.reshape([view[m][1] for m in on], (-1, 2, 2))
            bath = tuple(float(g @ abs(ops[:, i, 1 - i]) ** 2) for i in (0, 1))
            # less the bath's generator: sigma_+ and sigma_- at rates -bath
            g = np.append(g, np.negative(bath))
            ops = np.concatenate([ops, [SIGMA_PLUS, SIGMA_MINUS]])
            a = -0.5 * np.einsum("m,mji,mjk->ik", g, np.conjugate(ops), ops)
            if np.max(np.abs(_generator(a, g, ops))) > tol:
                return None
            found += bath
        return found

    def jump_amplitudes(self, psi: np.ndarray, t: np.ndarray) -> np.ndarray:
        """J_m(t_b) psi_b for rows psi (B, 4) at times t (B,); shape (B, M, 4).

        One (B, 4) @ (4, 4) product per channel.  A rotating displacement
        alpha e^{i Omega t} differs from its value at t = 0 by
        alpha (e^{i Omega t} - 1) times the identity.
        """
        out = np.empty((len(psi), len(self.channels), 4), dtype=complex)
        for m, op in enumerate(self.lifted_ops):
            np.matmul(psi, op.T, out=out[:, m])
        if self.time_dependent:
            alpha = np.array([complex(ch.shift or 0.0) for ch in self.channels])
            omega = np.array([ch.het_freq or 0.0 for ch in self.channels])
            drift = alpha * np.expm1(1j * np.multiply.outer(t, omega))
            out += drift[:, :, None] * psi[:, None, :]
        return out

    def with_initial(self, psi: np.ndarray) -> "Scenario":
        return replace(self, initial=psi)


def scenario_from_channels(channels, initial=None, h0=None) -> Scenario:
    """Assemble a scenario from explicit channels, a Bell state by default."""
    if initial is None:
        initial = bell_state()
    if h0 is None:
        h0 = np.zeros((4, 4), dtype=complex)
    return Scenario(h0=h0, channels=tuple(channels), initial=initial)


def preset_photon_counting(gamma_a: float, gamma_b: float,
                           initial: np.ndarray | None = None) -> Scenario:
    """Independent zero-temperature decay: sigma_- on each qubit."""
    channels = (
        JumpChannel("decay-A", lift("A", SIGMA_MINUS), gamma_a),
        JumpChannel("decay-B", lift("B", SIGMA_MINUS), gamma_b),
    )
    return scenario_from_channels(channels, initial)


def preset_thermal(gamma_plus_a: float, gamma_minus_a: float,
                   gamma_plus_b: float, gamma_minus_b: float,
                   initial: np.ndarray | None = None) -> Scenario:
    """Independent finite-temperature baths: sigma_-+ channels per qubit."""
    channels = (
        JumpChannel("up-A", lift("A", SIGMA_PLUS), gamma_plus_a),
        JumpChannel("down-A", lift("A", SIGMA_MINUS), gamma_minus_a),
        JumpChannel("up-B", lift("B", SIGMA_PLUS), gamma_plus_b),
        JumpChannel("down-B", lift("B", SIGMA_MINUS), gamma_minus_b),
    )
    return scenario_from_channels(channels, initial)


def preset_dephasing(v_a, v_b, gamma_a: float, gamma_b: float,
                     initial: np.ndarray | None = None) -> Scenario:
    """Pure dephasing along unit Bloch vectors: J_i = v_i . sigma."""
    channels = []
    for name, v, g in (("dephase-A", v_a, gamma_a), ("dephase-B", v_b, gamma_b)):
        v = np.asarray(v, dtype=float)
        if v.shape != (3,):
            raise ValueError(f"Bloch vector for {name} must have 3 components")
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError(f"Bloch vector for {name} must be unit length "
                             f"(|v| = {np.linalg.norm(v):.12f})")
        op = v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
        channels.append(JumpChannel(name, lift(name[-1], op), g))
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
    A qubit whose two rates are both 0 is unmonitored: it mixes into zero
    operators at rate 0, as `preset_thermal` keeps its zero-rate channels.
    """
    rates = (gamma_plus_a, gamma_minus_a, gamma_plus_b, gamma_minus_b)
    if not all(np.isfinite(g) and g >= 0 for g in rates):
        raise ValueError(f"decay rates must be finite and >= 0, got {rates}")
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
        if (gp or gm) and any(g <= 0 for g in crates):
            raise ValueError("rotated channel rates must be positive")
        for mu, g_mu in enumerate(crates):
            op = np.zeros((2, 2)) if g_mu == 0 else (
                np.sqrt(gp / g_mu) * u[mu, 0] * SIGMA_PLUS
                + np.sqrt(gm / g_mu) * u[mu, 1] * SIGMA_MINUS)
            channels.append(JumpChannel(f"mix{mu + 1}-{qubit}",
                                        lift(qubit, op), g_mu))
    return scenario_from_channels(tuple(channels), initial)


def preset_common_bath(gamma: float,
                       initial: np.ndarray | None = None) -> Scenario:
    """Both qubits coupled to one bath: single joint channel sigma_- + sigma_-."""
    channels = (JumpChannel("collective-decay", COLLECTIVE_DECAY, gamma),)
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
        if ch.shift is not None:
            raise ValueError(f"channel {ch.id!r} already carries a displacement")
        for sign, pm in ((+1, "p"), (-1, "m")):
            channels.append(replace(ch, id=f"{ch.id}~{tag}{pm}",
                                    rate=ch.rate / 2.0, shift=sign * a,
                                    het_freq=w))
    return replace(s, channels=tuple(channels))


def with_homodyne_shift(s: Scenario, shifts) -> Scenario:
    """Split every channel (J, gamma) into (J +/- alpha, gamma/2).

    The displacement pairs leave the ensemble generator unchanged but change
    the jump statistics and the jump-conditioned concurrence.
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


def kernel_oscillation(channels) -> float:
    """Largest coefficient of the time-dependent part of the K(t) that
    ``channels`` give; 0 if K is static.

    A channel J + alpha e^{i Omega t} adds (gamma/2)(alpha e^{i Omega t} J^dag
    + h.c.) to K.  Exponentials of distinct frequencies are independent, so K
    is static exactly when these terms cancel frequency by frequency, as they
    do for the +/- displacement pairs of `with_heterodyne`.  A channel with
    Omega < 0 contributes alpha* J at e^{i |Omega| t}.
    """
    coeff: dict[float, np.ndarray] = {}
    for ch in channels:
        if not ch.rotates:
            continue
        a = complex(ch.shift)
        term = a * dag(ch.op) if ch.het_freq > 0 else np.conjugate(a) * ch.op
        w = abs(ch.het_freq)
        coeff[w] = coeff.get(w, 0.0) + 0.5 * ch.rate * term
    return max((float(np.max(np.abs(c))) for c in coeff.values()),
               default=0.0)


def _generator(a: np.ndarray, rates, ops) -> np.ndarray:
    """1 (x) A + A* (x) 1 + sum_m gamma_m J_m* (x) J_m, in any dimension: on
    column-stacked rho, A rho + rho A^dag + sum_m gamma_m J_m rho J_m^dag."""
    ident = np.eye(len(a), dtype=complex)
    gen = kron2(ident, a) + kron2(np.conjugate(a), ident)
    for g, j in zip(rates, ops):
        gen += g * kron2(np.conjugate(j), j)
    return gen


def lindblad_superoperator(s: Scenario) -> np.ndarray:
    """The 16x16 ensemble generator, `_generator` with A = -i H_eff.  The mean
    of psi psi^T over trajectories obeys it without the two conjugations."""
    return _generator(-1j * s.h_eff, s.rates, s.lifted_ops)


def _violations(s: Scenario) -> list[str]:
    """Every structural problem of a scenario, as human-readable entries.

    K(t) is examined only when every channel has a 4x4, finite op and a
    finite rate, shift and het_freq.
    """
    v: list[str] = []
    if s.h0.shape != (4, 4):
        v.append(f"h0 must be 4x4, got {s.h0.shape}")
    elif not np.isfinite(s.h0).all():
        v.append("h0 contains non-finite entries")
    elif np.max(np.abs(s.h0 - dag(s.h0))) > 1e-10:
        v.append("h0 is not Hermitian")

    if s.initial.shape != (4,):
        v.append(f"initial state must have 4 amplitudes, got {s.initial.size}")
    elif not np.isfinite(s.initial).all():
        v.append("initial state contains non-finite entries")
    elif not s.initial.any():
        v.append("initial state is the zero vector")

    examine_k = True
    for ch in s.channels:
        if ch.op.shape != (4, 4):
            v.append(f"channel {ch.id!r}: operator shape {ch.op.shape} is "
                     "not (4, 4)")
            examine_k = False
        elif not np.isfinite(ch.op).all():
            v.append(f"channel {ch.id!r}: operator has non-finite entries")
            examine_k = False
        if not np.isfinite(ch.rate) or ch.rate < 0:
            v.append(f"channel {ch.id!r}: rate {ch.rate} is negative or non-finite")
        for name in ("shift", "het_freq"):
            if not np.isfinite(x := getattr(ch, name) or 0.0):
                v.append(f"channel {ch.id!r}: {name} {x} is non-finite")
        examine_k = examine_k and bool(np.isfinite(
            [ch.rate, ch.shift or 0.0, ch.het_freq or 0.0]).all())
        if ch.het_freq is not None and ch.shift is None:
            v.append(f"channel {ch.id!r}: het_freq set without a displacement")

    drift = kernel_oscillation(s.channels) if examine_k else 0.0
    if drift > KERNEL_DRIFT_TOL:
        v.append(f"damping kernel K(t) oscillates with amplitude "
                 f"{drift:.3g}: rotating displacements must come in +/- "
                 "pairs, because the engines assume a static no-click "
                 "generator")
    return v
