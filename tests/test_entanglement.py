"""Concurrence and entanglement-of-formation tests.

Reference values are either hand computations on small states or independent
numpy routes (eigenvalues of rho rho_tilde, reduced-state determinant)
evaluated inside the test.
"""

import numpy as np
import pytest

from trajent.entanglement import (
    _flip, concurrence_batch, concurrence_mixed, concurrence_pure,
    eof_from_concurrence, preconcurrence, preconcurrence_batch,
)
from trajent.linalg import SYSY, dag, kron2

from _oracles import concurrence_op_form, normalized, ptrace_b, spin_flip

EOF_HALF = 0.24577536666847116  # h((1 + sqrt(3/4))/2) in nats


def random_state(rng):
    return normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))


def test_preconcurrence_hand_values():
    s2 = 1 / np.sqrt(2)
    bell = np.array([s2, 0, 0, s2])
    # 2(c_ud* c_du* - c_uu* c_dd*) = -1 for the uu+dd Bell state
    assert abs(preconcurrence(bell) - (-1.0)) < 1e-15
    assert abs(concurrence_pure(bell) - 1.0) < 1e-15

    psi = np.array([1, 0, 0, 2]) / np.sqrt(5)
    assert abs(preconcurrence(psi) - (-4.0 / 5.0)) < 1e-15
    psi = np.array([1, 0, 0, -2]) / np.sqrt(5)
    assert abs(preconcurrence(psi) - (4.0 / 5.0)) < 1e-15

    prod = np.array([1, 0, 0, 0], dtype=complex)
    assert concurrence_pure(prod) == 0.0
    singlet = np.array([0, s2, -s2, 0])
    assert abs(concurrence_pure(singlet) - 1.0) < 1e-15


def test_preconcurrence_is_spin_flip_expectation():
    rng = np.random.default_rng(21)
    for _ in range(100):
        psi = random_state(rng)
        direct = preconcurrence(psi)
        via_op = complex(np.conjugate(psi) @ SYSY @ np.conjugate(psi))
        assert abs(direct - via_op) < 1e-13
        assert abs(concurrence_pure(psi) - concurrence_op_form(psi)) < 1e-13


def test_concurrence_equals_reduced_purity_route():
    # for pure states C^2 = 4 det(rho_A); independent reduction-based oracle
    rng = np.random.default_rng(22)
    for _ in range(200):
        psi = random_state(rng)
        rho_a = ptrace_b(np.outer(psi, psi.conj()))
        c_ref = 2.0 * np.sqrt(max(0.0, np.linalg.det(rho_a).real))
        assert abs(concurrence_pure(psi) - c_ref) < 1e-10


def test_local_operation_scales_preconcurrence_by_determinants():
    # (A (x) B) psi has unnormalized preconcurrence det(A) det(B) prec(psi)
    rng = np.random.default_rng(23)
    for _ in range(200):
        psi = random_state(rng)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        phi = kron2(a, b) @ psi
        raw = complex(2.0 * (np.conjugate(phi[1]) * np.conjugate(phi[2])
                             - np.conjugate(phi[0]) * np.conjugate(phi[3])))
        want = np.conjugate(np.linalg.det(a) * np.linalg.det(b)) \
            * preconcurrence(psi)
        assert abs(raw - want) < 1e-10


def test_jump_update_rule():
    # after a local click psi -> J psi / |J psi| the concurrence picks up
    # |det J| / |J psi|^2
    rng = np.random.default_rng(24)
    for _ in range(100):
        psi = random_state(rng)
        j = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lifted = kron2(j, np.eye(2))
        phi = lifted @ psi
        n = np.linalg.norm(phi)
        if n < 1e-6:
            continue
        c_after = concurrence_pure(phi / n)
        want = concurrence_pure(psi) * abs(np.linalg.det(j)) / n ** 2
        assert abs(c_after - want) < 1e-10


def test_concurrence_batch_matches_single():
    rng = np.random.default_rng(25)
    states = np.stack([random_state(rng) for _ in range(64)])
    batch = concurrence_batch(states)
    singles = np.array([concurrence_pure(s) for s in states])
    assert np.max(np.abs(batch - singles)) < 1e-13
    # arbitrary leading shape
    grid = states.reshape(8, 8, 4)
    assert np.max(np.abs(concurrence_batch(grid) - batch.reshape(8, 8))) == 0.0


def test_concurrence_batch_is_modulus_of_preconcurrence():
    # |prec| read without the conjugation is bit for bit |prec|, on random
    # (unnormalized) stacks, strided views and zero rows
    rng = np.random.default_rng(31)
    x = rng.normal(size=(6, 50, 8)) + 1j * rng.normal(size=(6, 50, 8))
    x[:, ::7] = 0.0
    x[2, :, 1] = 0.0
    for states in (x[..., :4], x[..., 4:], x[:, ::3, ::2],
                   x.transpose(1, 0, 2)[..., 2:6],
                   np.asfortranarray(x[0, :, :4])):
        want = np.abs(preconcurrence_batch(states))
        assert np.array_equal(concurrence_batch(states), want)
        # prec is the conjugate of the bilinear whose modulus is C, equal to
        # the product of conjugates up to the sign of a zero imaginary part
        c = np.conjugate(states)
        assert np.array_equal(preconcurrence_batch(states),
                              2.0 * (c[..., 1] * c[..., 2]
                                     - c[..., 0] * c[..., 3]))
    assert not concurrence_batch(x[:, ::7, :4]).any()


def test_state_norm_check():
    with pytest.raises(ValueError):
        concurrence_pure(np.array([1.0, 0, 0, 1.0]))
    with pytest.raises(ValueError):
        preconcurrence(np.array([0.1, 0, 0, 0]))


def test_eof_endpoints_and_midpoint():
    assert eof_from_concurrence(0.0) == 0.0
    assert abs(eof_from_concurrence(1.0) - np.log(2.0)) < 1e-15
    assert abs(eof_from_concurrence(0.5) - EOF_HALF) < 1e-15


def test_eof_monotone_convex():
    c = np.linspace(0.0, 1.0, 201)
    f = np.array([eof_from_concurrence(x) for x in c])
    assert np.all(np.diff(f) >= 0.0)
    # midpoint convexity on the grid
    mid = 0.5 * (f[:-2] + f[2:])
    assert np.all(f[1:-1] <= mid + 1e-12)


def test_eof_domain():
    with pytest.raises(ValueError):
        eof_from_concurrence(1.1)
    with pytest.raises(ValueError):
        eof_from_concurrence(-0.1)
    with pytest.raises(ValueError):
        eof_from_concurrence(np.nan)
    # roundoff just outside [0, 1] is clipped, not rejected
    assert eof_from_concurrence(1.0 + 5e-10) == pytest.approx(np.log(2.0))
    assert eof_from_concurrence(-5e-10) == 0.0


def test_spin_flip_involution():
    rng = np.random.default_rng(26)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = a @ dag(a)
    rho /= np.trace(rho)
    assert np.max(np.abs(spin_flip(spin_flip(rho)) - rho)) < 1e-13


def test_flip_is_the_product_with_sysy_bit_for_bit():
    # the column reversal with signs equals V^dag SYSY V*, bit for bit, on
    # seeded random unitaries and on eigh's eigenvector stacks
    rng = np.random.default_rng(35)
    z = rng.standard_normal((500, 4, 4)) + 1j * rng.standard_normal((500, 4, 4))
    unitaries = np.linalg.qr(z)[0]
    eigvecs = np.linalg.eigh(z @ np.conjugate(z.transpose(0, 2, 1)))[1]
    for v in (unitaries, eigvecs):
        want = np.conjugate(v.transpose(0, 2, 1)) @ SYSY @ np.conjugate(v)
        assert np.array_equal(_flip(v), want)


def wootters_eigvals_route(rho):
    """Independent evaluation: sqrt of eigenvalues of rho rho_tilde."""
    rt = SYSY @ rho.conj() @ SYSY
    ev = np.linalg.eigvals(rho @ rt)
    lam = np.sqrt(np.clip(ev.real, 0.0, None))
    lam.sort()
    return max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4])


def werner(p):
    s2 = 1 / np.sqrt(2)
    bell = np.array([s2, 0, 0, s2], dtype=complex)
    return p * np.outer(bell, bell.conj()) + (1 - p) * np.eye(4) / 4.0


def test_concurrence_mixed_werner():
    # closed form max(0, (3p - 1)/2), cross-checked against the non-Hermitian
    # eigenvalue route
    for p in (0.0, 1.0 / 3.0, 0.5, 0.8, 1.0):
        rho = werner(p)
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence_mixed(rho) - want) < 1e-10
        assert abs(wootters_eigvals_route(rho) - want) < 1e-10


def test_concurrence_mixed_random_cross_check():
    rng = np.random.default_rng(27)
    for _ in range(60):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ dag(a)
        rho /= np.trace(rho)
        assert abs(concurrence_mixed(rho) - wootters_eigvals_route(rho)) < 1e-9


def test_concurrence_mixed_pure_state_reduction():
    rng = np.random.default_rng(28)
    for _ in range(60):
        psi = random_state(rng)
        rho = np.outer(psi, psi.conj())
        assert abs(concurrence_mixed(rho) - concurrence_pure(psi)) < 1e-13


def test_concurrence_mixed_convexity():
    rng = np.random.default_rng(29)
    for _ in range(20):
        r1 = np.outer(*(lambda s: (s, s.conj()))(random_state(rng)))
        r2 = np.outer(*(lambda s: (s, s.conj()))(random_state(rng)))
        c1, c2 = concurrence_mixed(r1), concurrence_mixed(r2)
        for lam in np.linspace(0.0, 1.0, 11):
            mix = lam * r1 + (1 - lam) * r2
            assert concurrence_mixed(mix) <= lam * c1 + (1 - lam) * c2 + 1e-9


def test_concurrence_mixed_rejects_bad_input():
    with pytest.raises(ValueError):
        concurrence_mixed(np.diag([1.0, 0.5, -0.5, 0.0]))


def test_concurrence_mixed_stack_checks_every_record():
    rng = np.random.default_rng(30)
    rhos = np.array([np.outer(*(lambda s: (s, s.conj()))(random_state(rng)))
                     for _ in range(6)])
    got = concurrence_mixed(rhos)
    assert got.shape == (6,)
    assert isinstance(concurrence_mixed(rhos[2]), float)
    assert np.array_equal(concurrence_mixed(rhos.reshape(2, 3, 4, 4)),
                          got.reshape(2, 3))
    negative = rhos.copy()
    negative[4] = np.diag([1.0, 0.5, -0.5, 0.0])
    non_hermitian = rhos.copy()
    non_hermitian[1, 0, 3] += 1e-6
    not_finite = rhos.copy()
    not_finite[5, 2, 2] = np.nan
    for bad in (negative, non_hermitian, not_finite):
        with pytest.raises(ValueError):
            concurrence_mixed(bad)
