"""Independent evaluation routes that only the tests use.

Besides a state normalizer for building test states, each function
recomputes something the package computes another way: a
brute-force or differently factored closed form, an operator form of the
concurrence, partial traces, no-click propagators taken from
``scipy.linalg.expm`` rather than the package's own Pade ``expm``, numpy's
own Generator on a trajectory's substream and the signs read from its raw
words one bit at a time, the one-trajectory loop form of the diffusion split
step, the ensemble generator with
each channel's J^dag J written out, the comparison of two scenarios'
ensemble generators, the jump engine's click-time search in its gathered
form, reading S and <K> through the kernel's real-view helpers or through
complex einsums, a scenario's per-qubit view read from Pauli
coefficients rather than partial traces, and a channel's displacement and
operator at any time t, which the package only ever needs at t = 0.
"""

import numpy as np
from scipy.linalg import expm

from trajent.entanglement import _check_state
from trajent.errors import ConvergenceError
from trajent.linalg import (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, SYSY, dag, det2,
                            trace2)
from trajent.models import (JumpChannel, Scenario, lindblad_superoperator,
                            preset_common_bath)
from trajent.quantum_jump import (_MAX_ITERS, _NEWTON_ITERS, _TAU_TOL,
                                  _k_mean, _norm2)
from trajent.rates import _local_rate_ops

PHASE_SCAN_POINTS = 10_000  # grid over [0, pi) of kappa_ho_phase_scan
GEN_TOL = 1e-10  # entrywise ensemble-generator deviation between monitorings
PAULI = (ID2, SIGMA_X, SIGMA_Y, SIGMA_Z)  # sigma_0 = 1


def normalized(psi: np.ndarray) -> np.ndarray:
    """psi / |psi|, for building test states."""
    psi = np.asarray(psi, dtype=complex)
    n = np.linalg.norm(psi)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return psi / n


def trace4(m: np.ndarray) -> complex:
    m = np.asarray(m)
    return complex(m[0, 0] + m[1, 1] + m[2, 2] + m[3, 3])


def ptrace_b(rho: np.ndarray) -> np.ndarray:
    """Reduced state of qubit A (trace out the right factor)."""
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3)


def ptrace_a(rho: np.ndarray) -> np.ndarray:
    """Reduced state of qubit B (trace out the left factor)."""
    r = np.asarray(rho).reshape(2, 2, 2, 2)
    return np.trace(r, axis1=0, axis2=2)


def concurrence_op_form(psi: np.ndarray) -> float:
    """Concurrence through the operator form |<sigma_y(x)sigma_y . T>|."""
    psi = _check_state(psi)
    return abs(complex(np.vdot(psi, SYSY @ np.conjugate(psi))))


def spin_flip(rho: np.ndarray) -> np.ndarray:
    """rho_tilde = (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y)."""
    rho = np.asarray(rho, dtype=complex)
    return SYSY @ np.conjugate(rho) @ SYSY


def survival_probability(s: Scenario, psi: np.ndarray, t: float) -> float:
    """No-click probability |exp(-i H_eff t) psi|^2 over a span t."""
    if s.time_dependent:
        raise ValueError("survival probability with rotating displacements "
                         "is not defined by a static propagator")
    if t < 0:
        raise ValueError("time span must be non-negative")
    psi = np.asarray(psi, dtype=complex).reshape(4)
    phi = expm(-1j * s.h_eff * t) @ psi
    return float(np.real(np.vdot(phi, phi)))


def kappa_qj_decomposed(s: Scenario) -> float:
    """Jump-counting rate as a sum of explicit non-negative squares.

    Per channel, with J~ = e^{-i theta} J and 2 theta = arg det J (theta = 0
    when det J = 0):

        kappa_m = (gamma_m / 2) ( |<u|J~|u> - <d|J~^dag|d>|^2
                                  + |<u|(J~ + J~^dag)|d>|^2 )

    Numerically identical to ``rate_report(s).kappa_qj``; it makes
    non-negativity manifest.
    """
    total = 0.0
    for g, j, _ in _local_rate_ops(s):
        d = det2(j)
        theta = 0.0 if d == 0 else 0.5 * np.angle(d)
        jt = np.exp(-1j * theta) * j
        term1 = abs(jt[0, 0] - np.conjugate(jt[1, 1])) ** 2
        sym = jt + dag(jt)
        term2 = abs(sym[0, 1]) ** 2
        total += 0.5 * g * (term1 + term2)
    return float(total)


def kappa_ho_phase_scan(s: Scenario) -> float:
    """Minimum homodyne rate over a phase grid, one phase per channel.

    The phase enters each channel independently, so the joint minimum is the
    sum of per-channel minima over theta in [0, pi) (the rate has period pi).
    Brute-force counterpart of ``rate_report(s).kappa_ho_opt``.
    """
    phase = np.exp(-1j * np.linspace(0.0, np.pi, PHASE_SCAN_POINTS,
                                     endpoint=False))
    total = 0.0
    for g, j, _ in _local_rate_ops(s):
        # only det and trace feel the phase: det -> e^{-2i theta} det,
        # tr -> e^{-i theta} tr, while tr(J^dag J) is invariant
        base = 0.5 * trace2(dag(j) @ j).real
        vals = (base - (phase * phase * det2(j)).real
                - 0.5 * (phase * trace2(j)).imag ** 2)
        total += g * float(vals.min())
    return float(total)


def common_bath_one_jump_pieces(psi: np.ndarray, gamma: float, t: float
                                ) -> tuple[float, float]:
    """(no-jump, one-jump) contributions to the collective-decay mean at t.

    The no-jump piece is evaluated from the damped propagator applied to the
    initial state (probability times conditional concurrence telescopes into
    the unnormalized preconcurrence); the one-jump piece is the closed form
    2 |c_uu|^2 gamma t e^{-2 gamma t}.  Together they reproduce the common
    bath's jump-counting curve of ``rates.analytic_mean_concurrence``.
    """
    s = preset_common_bath(gamma, psi)
    phi = expm(-s.k_op * t) @ s.psi0
    nj = abs(2.0 * (phi[1] * phi[2] - phi[0] * phi[3]))
    oj = 2.0 * abs(s.psi0[0]) ** 2 * gamma * t * np.exp(-2.0 * gamma * t)
    return float(nj), float(oj)


def lindblad_superoperator_per_channel(s: Scenario) -> np.ndarray:
    """The 16x16 ensemble generator with the anticommutator written out per
    channel, each channel's J^dag J formed on its own rather than through K:
    the reference for ``models.lindblad_superoperator``."""
    id4 = np.eye(4, dtype=complex)
    h = s.h0
    gen = -1j * (np.kron(id4, h) - np.kron(h.T, id4))
    for ch in s.channels:
        j = ch.operator()
        jj = dag(j) @ j
        gen += ch.rate * (np.kron(np.conjugate(j), j)
                          - 0.5 * np.kron(id4, jj)
                          - 0.5 * np.kron(jj.T, id4))
    return gen


def shift_at(ch: JumpChannel, t: float) -> complex:
    """A channel's displacement at time t: alpha e^{i Omega t} when it
    rotates, else its static alpha (0 without one)."""
    a = complex(ch.shift or 0.0)
    return a * np.exp(1j * ch.het_freq * t) if ch.rotates else a


def operator_at(ch: JumpChannel, t: float) -> np.ndarray:
    """J(t) = J + alpha(t) 1, a channel's effective operator at time t."""
    return ch.op + shift_at(ch, t) * np.eye(4)


def generator_deviation(s: Scenario, reference: Scenario) -> float:
    """Largest entrywise deviation of s's ensemble generator from the
    reference's: below ``GEN_TOL`` for a displaced or rotated monitoring of
    the same channels."""
    return float(np.max(np.abs(lindblad_superoperator(s)
                               - lindblad_superoperator(reference))))


def trajectory_rng(master_seed: int, k: int) -> np.random.Generator:
    """numpy's own Generator on substream k of a run seeded with master_seed:
    the reference that ``ensemble.Substreams`` reads bit for bit."""
    return np.random.default_rng(np.random.SeedSequence(master_seed,
                                                        spawn_key=(k,)))


def step_signs(master_seed: int, k: int, n_steps: int,
               per_step: int) -> np.ndarray:
    """(n_steps, per_step) signs of trajectory k, read from numpy's own
    ``random_raw`` words one bit at a time: each step starts at a new byte,
    and sign n of the stream is bit n % 64 of word n // 64, a set bit -1 and
    a clear one +1."""
    stride = 8 * -(-per_step // 8)
    n = n_steps * stride
    words = trajectory_rng(master_seed, k).bit_generator.random_raw(
        -(-n // 64)).tolist()
    bits = [words[i // 64] >> (i % 64) & 1 for i in range(n)]
    signs = 1.0 - 2.0 * np.array(bits, dtype=float)
    return signs.reshape(n_steps, stride)[:, :per_step]


def _split_step(psi: np.ndarray, s: Scenario, dt: float, coefs) -> np.ndarray:
    """psi' = exp(-i H_eff dt) F_{M-1} ... F_0 psi, normalized, with
    F_m = (1 - scal_m) 1 + coef_m J_m for (coef_m, scal_m) in coefs."""
    phi = np.asarray(psi, dtype=complex).reshape(4)
    for j, (coef, scal) in zip(s.lifted_ops, coefs):
        phi = (1.0 - scal) * phi + coef * (j @ phi)
    new = expm(-1j * s.h_eff * dt) @ phi
    return new / np.linalg.norm(new)


def step_homodyne(psi: np.ndarray, s: Scenario, dt: float,
                  signs: np.ndarray) -> np.ndarray:
    """One split step of the homodyne equation with dw_m = sqrt(dt) signs[m];
    returns unit norm."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    coefs = []
    for ch, j, sign in zip(s.channels, s.lifted_ops, signs):
        re = complex(np.vdot(psi, j @ psi)).real
        noise = np.sqrt(ch.rate * dt) * sign
        coefs.append((ch.rate * dt * re + noise,
                      re * (0.5 * ch.rate * dt * re + noise)))
    return _split_step(psi, s, dt, coefs)


def step_heterodyne(psi: np.ndarray, s: Scenario, dt: float,
                    signs: np.ndarray) -> np.ndarray:
    """One split step of the heterodyne equation with
    d xi_m = sqrt(dt / 2) (signs[2m] + i signs[2m + 1]); returns unit norm."""
    psi = np.asarray(psi, dtype=complex).reshape(4)
    coefs = []
    for m, (ch, j) in enumerate(zip(s.channels, s.lifted_ops)):
        ex = complex(np.vdot(psi, j @ psi))
        dxi = np.sqrt(0.5 * dt) * complex(signs[2 * m], signs[2 * m + 1])
        noise = np.sqrt(ch.rate) * dxi
        coefs.append((0.5 * ch.rate * dt * np.conjugate(ex) + noise,
                      0.25 * ch.rate * dt * abs(ex) ** 2
                      + (noise * ex).real))
    return _split_step(psi, s, dt, coefs)


def norm2_complex(psi: np.ndarray) -> np.ndarray:
    """|psi_b|^2 as a complex einsum, with no real view."""
    return np.einsum("bi,bi->b", np.conjugate(psi), psi).real


def k_mean_complex(psi: np.ndarray, k_op: np.ndarray) -> np.ndarray:
    """<psi_b|K|psi_b> as one complex einsum, with no real view."""
    return np.einsum("bi,ij,bj->b", np.conjugate(psi), k_op, psi).real


def click_delay_gathered(c: np.ndarray, lam: np.ndarray, w: np.ndarray,
                         k_op: np.ndarray, log_r: np.ndarray,
                         span: np.ndarray, norm2=_norm2,
                         k_mean=_k_mean) -> np.ndarray:
    """The jump engine's click-time search written over the full bracket
    arrays, gathering the rows still searching at every iteration; rows are
    c = W^-1 psi for H_eff = W diag(lam) W^-1.  S and <K> are read through
    ``norm2`` and ``k_mean``: the kernel's own helpers by default, or the
    complex einsum forms above."""
    lo = np.zeros(len(c))
    hi = np.array(span, dtype=float)
    tau = lo.copy()
    tol = _TAU_TOL * np.maximum(1.0, hi)
    todo = np.arange(len(c))
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(_MAX_ITERS):
            t = tau[todo]
            psi = (c[todo] * np.exp(-1j * np.multiply.outer(t, lam))) @ w.T
            s2 = norm2(psi)
            f = np.log(s2) - log_r[todo]
            below = f <= 0.0
            lo[todo] = np.where(below, lo[todo], t)
            hi[todo] = np.where(below, t, hi[todo])
            new = t + f * s2 / (2.0 * k_mean(psi, k_op))
            bisect = ((new < lo[todo]) | ~(new <= hi[todo])
                      | (it >= _NEWTON_ITERS))
            new = np.where(bisect, 0.5 * (lo[todo] + hi[todo]), new)
            done = ((np.abs(new - t) <= tol[todo]) | (f == 0.0)
                    | (hi[todo] - lo[todo] <= tol[todo]))
            tau[todo] = new
            todo = todo[~done]
            if not todo.size:
                return tau
    raise ConvergenceError("click-time search did not converge")


def pauli_coefficients(x: np.ndarray) -> np.ndarray:
    """c_ij = tr(X sigma_i (x) sigma_j) / 4, so that
    X = sum_ij c_ij sigma_i (x) sigma_j."""
    return np.array([[np.trace(x @ np.kron(a, b)) / 4.0 for b in PAULI]
                      for a in PAULI])


def qubit_view_by_pauli(s: Scenario, tol: float = 1e-12):
    """(H0's parts, one entry per channel), the reference for
    ``Scenario.qubits``, read from Pauli coefficients.

    X is A (x) 1 iff c_ij = 0 for every j != 0, with A = sum_i c_i0 sigma_i,
    and 1 (x) B iff c_ij = 0 for every i != 0; a channel is given as ("A", A),
    else ("B", B), else None.  X is the channel's operator with its static
    displacement included and a rotating one left out.
    H0 is local iff c_ij = 0 whenever i != 0 and j != 0; its parts
    (H_A, H_B) share c_00 evenly.  Coefficients within ``tol`` count as 0.
    """
    def local_op(c):
        return sum(ci * p for ci, p in zip(c, PAULI))

    c = pauli_coefficients(s.h0)
    h0 = None
    if np.max(np.abs(c[1:, 1:])) <= tol:
        h0 = (local_op([c[0, 0] / 2.0, *c[1:, 0]]),
              local_op([c[0, 0] / 2.0, *c[0, 1:]]))
    channels = []
    for ch in s.channels:
        c = pauli_coefficients(ch.op if ch.rotates else operator_at(ch, 0.0))
        if np.max(np.abs(c[:, 1:])) <= tol:
            channels.append(("A", local_op(c[:, 0])))
        elif np.max(np.abs(c[1:, :])) <= tol:
            channels.append(("B", local_op(c[0, :])))
        else:
            channels.append(None)
    return h0, channels
