"""Linear-algebra kernel tests: constants, ptrace, the Pade expm, the
record-grid powers."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from trajent.config import bundled_scenario_names, load_scenario
from trajent.entanglement import concurrence_mixed
from trajent.linalg import (
    ID2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, SYSY,
    dag, det2, expm, kron2, power_rows, require_finite, trace2,
)
from trajent.models import (JumpChannel, lift, lindblad_superoperator,
                            preset_photon_counting, scenario_from_channels)
from trajent.quantum_jump import run_ensemble

from _oracles import normalized, ptrace_a, ptrace_b, trace4


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_pauli_constants():
    assert np.array_equal(SIGMA_PLUS, [[0, 1], [0, 0]])
    assert np.array_equal(SIGMA_MINUS, [[0, 0], [1, 0]])
    # sigma_- |u> = |d> with |u> the first basis vector
    assert np.array_equal(SIGMA_MINUS @ [1, 0], [0, 1])
    assert np.allclose(SIGMA_X @ SIGMA_X, ID2)
    assert np.allclose(SIGMA_Y @ SIGMA_Y, ID2)
    assert np.allclose(SIGMA_Z @ SIGMA_Z, ID2)
    assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)


def test_sysy_antidiagonal():
    # hand expansion of sigma_y (x) sigma_y in the {uu, ud, du, dd} basis
    want = np.array([
        [0, 0, 0, -1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ], dtype=complex)
    assert np.array_equal(SYSY, want)


def test_kron_mixed_product():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
        lhs = kron2(a, b) @ kron2(c, d)
        rhs = kron2(a @ c, b @ d)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_basis_ordering_left_factor_is_a():
    # kron2 puts qubit A on the left: (sigma_z (x) 1)|du> = -|du>
    op = kron2(SIGMA_Z, ID2)
    du = np.array([0, 0, 1, 0], dtype=complex)
    assert np.allclose(op @ du, -du)
    op_b = kron2(ID2, SIGMA_Z)
    assert np.allclose(op_b @ du, du)


def test_det2_trace_helpers():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = random_complex(rng, (2, 2))
        assert abs(det2(m) - np.linalg.det(m)) < 1e-12
        assert abs(trace2(m) - np.trace(m)) < 1e-14
        m4 = random_complex(rng, (4, 4))
        assert abs(trace4(m4) - np.trace(m4)) < 1e-13
        assert np.array_equal(dag(m), m.conj().T)


def test_expm_collective_damping_kernel():
    # K for the collective channel sigma_-(x)1 + 1(x)sigma_- at gamma = 1 has
    # eigenvectors uu, (ud+du)/sqrt2, (ud-du)/sqrt2, dd with eigenvalues
    # 1, 1, 0, 0; exp(-tK) damps uu and the symmetric combination only.
    j = kron2(SIGMA_MINUS, ID2) + kron2(ID2, SIGMA_MINUS)
    k = 0.5 * dag(j) @ j
    t = 0.7
    p = expm(-t * k)
    s2 = 1 / np.sqrt(2)
    plus = np.array([0, s2, s2, 0], dtype=complex)
    minus = np.array([0, s2, -s2, 0], dtype=complex)
    uu = np.array([1, 0, 0, 0], dtype=complex)
    dd = np.array([0, 0, 0, 1], dtype=complex)
    assert np.max(np.abs(p @ uu - np.exp(-t) * uu)) < 1e-12
    assert np.max(np.abs(p @ plus - np.exp(-t) * plus)) < 1e-12
    assert np.max(np.abs(p @ minus - minus)) < 1e-12
    assert np.max(np.abs(p @ dd - dd)) < 1e-12


def test_expm_matches_scipy_on_bundled_generators():
    # g = 200 puts the 1-norm of L g at 800-1600, so r is squared 8-9 times
    for name in bundled_scenario_names():
        gen = lindblad_superoperator(load_scenario(name))
        for g in (0.02, 0.2, 2.0, 20.0, 200.0):
            err = np.max(np.abs(expm(gen * g) - scipy.linalg.expm(gen * g)))
            assert err < 1e-13, (name, g, err)


@pytest.mark.parametrize("n", [2, 3, 129, 130, 257, 258, 1001])
def test_power_rows_match_the_matrix_exponential(n):
    # row k of the walk, v0 P^k with P = expm(L g)^T, against expm(L k g) v0
    # computed afresh per k; the row counts straddle the squaring's
    # doublings and its 128-row blocks.  L is thermal_bell's 16x16
    # generator and a random contracting 4x4 one, -iH - K with K >= 0.
    rng = np.random.default_rng(36)
    a, b = random_complex(rng, (4, 4)), random_complex(rng, (4, 4))
    gens = [(lindblad_superoperator(load_scenario("thermal_bell")), 0.02),
            (-0.5j * (a + dag(a)) - 0.05 * dag(b) @ b, 0.01)]
    for gen, g in gens:
        v0 = normalized(random_complex(rng, len(gen)))
        got = power_rows(scipy.linalg.expm(gen * g).T, v0, n)
        want = np.array([scipy.linalg.expm(gen * (k * g)) @ v0
                         for k in range(n)])
        assert got.shape == want.shape
        assert np.array_equal(got[0], v0)
        assert np.max(np.abs(got - want)) < 1e-12, len(gen)


def test_expm_of_zero_is_exactly_identity():
    for n in (2, 4, 16):
        assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))


def test_expm_rejects_non_finite_input():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.zeros((16, 16), dtype=complex)
        m[3, 5] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            expm(m)


def test_ptrace_product_state():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = normalized(random_complex(rng, 2))
        b = normalized(random_complex(rng, 2))
        psi = kron2(a.reshape(2, 1), b.reshape(2, 1)).reshape(4)
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(ptrace_b(rho) - np.outer(a, a.conj()))) < 1e-12
        assert np.max(np.abs(ptrace_a(rho) - np.outer(b, b.conj()))) < 1e-12


def test_ptrace_preserves_trace():
    rng = np.random.default_rng(9)
    a = random_complex(rng, (4, 4))
    rho = a @ dag(a)
    rho /= np.trace(rho)
    assert abs(np.trace(ptrace_a(rho)) - 1.0) < 1e-12
    assert abs(np.trace(ptrace_b(rho)) - 1.0) < 1e-12


def test_require_finite_and_normalized():
    with pytest.raises(ValueError):
        require_finite(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        require_finite(np.array([[1.0, np.nan * 1j], [0, 1]]).T)
    with pytest.raises(ValueError):
        normalized(np.zeros(4))
    v = normalized(np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(v) - 1.0) < 1e-15


def test_strided_complex_views_equal_their_copies():
    # the finiteness checks read strided complex views (a transpose, a
    # column) as they read contiguous copies
    rng = np.random.default_rng(21)
    a = random_complex(rng, (4, 4))
    rho = a @ dag(a) / np.trace(a @ dag(a)).real
    stack = np.stack([rho, np.conjugate(rho)])
    assert concurrence_mixed(rho.T) == concurrence_mixed(rho.T.copy())
    view = stack.transpose(0, 2, 1)
    assert np.array_equal(concurrence_mixed(view),
                          concurrence_mixed(view.copy()))
    assert np.array_equal(expm(a.T), expm(a.T.copy()))
    s = preset_photon_counting(1.0, 0.5)
    h = a + dag(a)
    assert np.array_equal(replace(s, h0=dag(h)).h_eff,
                          replace(s, h0=dag(h).copy()).h_eff)
    assert np.array_equal(s.with_initial(a[:, 1]).psi0,
                          s.with_initial(a[:, 1].copy()).psi0)
    # a channel whose op is a transposed view builds and runs as its copy
    j = lift("B", [[0.0, 0.0], [1.0, 0.5j]])
    runs = [run_ensemble(scenario_from_channels(
        [JumpChannel("y", op, 1.0)]), 1.0, 20, seed=4)
        for op in (j.T, j.T.copy())]
    for ra, rb in zip(*runs):
        assert np.array_equal(ra.concurrences, rb.concurrences)
        assert np.array_equal(ra.click_times, rb.click_times)
