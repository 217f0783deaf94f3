"""Scenario construction, presets, monitoring transforms, and validation."""

import numpy as np
import pytest

from trajent.config import bundled_scenario_names, load_scenario
from trajent.diffusion import run_trajectory_qsd
from trajent.linalg import (
    ID2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, dag, kron2,
)
from trajent.models import (
    JumpChannel, bell_state, kernel_oscillation, lindblad_superoperator,
    local_hamiltonian,
    preset_common_bath, preset_dephasing, preset_photon_counting,
    preset_rotated_thermal, preset_thermal, scenario_from_channels,
    state_from_amplitudes, validate_scenario, with_heterodyne,
    with_homodyne_shift, with_phase_rotation,
)
from trajent.quantum_jump import run_ensemble
from trajent.rates import rate_report

from _oracles import (GEN_TOL, generator_deviation,
                      lindblad_superoperator_per_channel)

S2 = 1 / np.sqrt(2)


def test_bell_state():
    psi = bell_state()
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-15
    assert np.allclose(psi, [S2, 0, 0, S2])


def test_local_hamiltonian_lifting():
    h = local_hamiltonian(SIGMA_X, None)
    assert np.allclose(h, kron2(SIGMA_X, ID2))
    h = local_hamiltonian(SIGMA_X, SIGMA_Y)
    assert np.allclose(h, kron2(SIGMA_X, ID2) + kron2(ID2, SIGMA_Y))
    assert np.allclose(local_hamiltonian(None, None), np.zeros((4, 4)))


def test_photon_counting_damping_kernel():
    s = preset_photon_counting(1.3, 0.6)
    want = np.diag([(1.3 + 0.6) / 2, 1.3 / 2, 0.6 / 2, 0.0])
    assert np.max(np.abs(s.k_op - want)) < 1e-14
    assert np.max(np.abs(s.h_eff - (-1j * s.k_op))) < 1e-14
    assert s.gamma_max == 1.3
    assert not s.time_dependent
    assert validate_scenario(s).ok


def test_thermal_damping_kernel_diagonal():
    gpa, gma, gpb, gmb = 0.4, 1.1, 0.2, 0.9
    s = preset_thermal(gpa, gma, gpb, gmb)
    want = 0.5 * np.diag([gma + gmb, gma + gpb, gpa + gmb, gpa + gpb])
    assert np.max(np.abs(s.k_op - want)) < 1e-14
    assert s.thermal_rates == (gpa, gma, gpb, gmb)


def test_presets_reject_negative_rates():
    with pytest.raises(ValueError):
        preset_photon_counting(-1.0, 1.0)
    with pytest.raises(ValueError):
        preset_thermal(1.0, 1.0, 1.0, np.inf)
    with pytest.raises(ValueError):
        preset_common_bath(-0.5)


def test_dephasing_operator_forms():
    # v = (1,1,0)/sqrt2 gives (sigma_x + sigma_y)/sqrt2, whose matrix is the
    # phase-split form e^{-i pi/4} sigma_+ + e^{i pi/4} sigma_-
    s = preset_dephasing([S2, S2, 0.0], [S2, S2, 0.0], 1.0, 1.0)
    op = s.channels[0].op
    assert np.max(np.abs(op - (SIGMA_X + SIGMA_Y) / np.sqrt(2))) < 1e-14
    split = (np.exp(-1j * np.pi / 4) * SIGMA_PLUS
             + np.exp(1j * np.pi / 4) * SIGMA_MINUS)
    assert np.max(np.abs(op - split)) < 1e-14
    # unital: v.sigma squares to the identity, so K is proportional to 1
    assert np.max(np.abs(s.k_op - np.eye(4))) < 1e-13


def test_dephasing_rejects_non_unit_vector():
    with pytest.raises(ValueError):
        preset_dephasing([1.0, 1.0, 0.0], [1.0, 0.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        preset_dephasing([1.0, 0.0], [1.0, 0.0, 0.0], 1.0, 1.0)


def test_common_bath_channel():
    s = preset_common_bath(0.7)
    (ch,) = s.channels
    assert ch.locality == "joint"
    j = ch.lifted(0.0)
    assert np.allclose(j, kron2(SIGMA_MINUS, ID2) + kron2(ID2, SIGMA_MINUS))
    jj = dag(j) @ j
    want = np.array([
        [2, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 0],
    ], dtype=complex)
    assert np.max(np.abs(jj - want)) < 1e-14
    assert validate_scenario(s).ok


def _lindblad_rhs(rho, s):
    """Right-hand side of the master equation, written on matrices."""
    h = s.h0
    out = -1j * (h @ rho - rho @ h)
    for ch in s.channels:
        j = ch.lifted(0.0)
        jj = dag(j) @ j
        out += ch.rate * (j @ rho @ dag(j) - 0.5 * (jj @ rho + rho @ jj))
    return out


def test_superoperator_matches_rhs():
    # column-stacked generator applied to vec(rho) must reproduce the
    # right-hand side computed directly on matrices
    rng = np.random.default_rng(31)
    for s in (preset_photon_counting(1.0, 0.5),
              preset_thermal(0.3, 1.0, 0.6, 0.8),
              preset_common_bath(1.0)):
        gen = lindblad_superoperator(s)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ dag(a)
        rho /= np.trace(rho)
        lhs = (gen @ rho.flatten(order="F")).reshape(4, 4, order="F")
        rhs = _lindblad_rhs(rho, s)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def _random_channel_set(rng):
    """1-3 random local channels per qubit, a random Hermitian H0 that
    couples the qubits, and a random initial state."""
    channels = []
    for qubit in "AB":
        for m in range(rng.integers(1, 4)):
            op = (rng.standard_normal((2, 2))
                  + 1j * rng.standard_normal((2, 2))) / 2
            channels.append(JumpChannel(f"c{m}-{qubit}", qubit, op,
                                        rng.uniform(0.1, 1.5)))
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return scenario_from_channels(channels, psi / np.linalg.norm(psi),
                                  h0=0.5 * (a + dag(a)))


def test_superoperator_matches_per_channel_form():
    # K enters once, through H_eff; the reference forms each J^dag J itself
    rng = np.random.default_rng(33)
    scenarios = [load_scenario(name) for name in bundled_scenario_names()]
    for _ in range(10):
        s = _random_channel_set(rng)
        n = len(s.channels)
        scenarios += [s, with_homodyne_shift(s, rng.uniform(0.2, 1.0, n)),
                      with_heterodyne(s, rng.uniform(0.2, 1.0, n),
                                      rng.uniform(0.5, 3.0, n))]
    for s in scenarios:
        assert np.max(np.abs(lindblad_superoperator(s)
                             - lindblad_superoperator_per_channel(s))) <= 1e-14


def test_homodyne_shift_structure_and_invariance():
    s = preset_photon_counting(1.0, 0.4)
    shifted = with_homodyne_shift(s, 0.8)
    assert len(shifted.channels) == 4
    assert all(ch.rate in (0.5, 0.2) for ch in shifted.channels)
    a = [ch.shift_at(0.0) for ch in shifted.channels]
    assert a == [0.8, -0.8, 0.8, -0.8]
    # displacement pairs leave the ensemble generator untouched
    assert validate_scenario(shifted).ok
    assert generator_deviation(shifted, s) < GEN_TOL
    # K itself shifts by (sum_m gamma_m |alpha|^2 / 2) * identity
    extra = 0.5 * (1.0 + 0.4) * 0.8 ** 2
    assert np.max(np.abs(shifted.k_op - s.k_op - extra * np.eye(4))) < 1e-12


def test_homodyne_shift_complex_and_per_channel():
    s = preset_photon_counting(1.0, 1.0)
    shifted = with_homodyne_shift(s, [0.3 + 0.1j, 0.5])
    assert shifted.channels[0].shift_at(0.0) == 0.3 + 0.1j
    assert shifted.channels[2].shift_at(0.0) == 0.5
    assert validate_scenario(shifted).ok
    assert generator_deviation(shifted, s) < GEN_TOL
    with pytest.raises(ValueError):
        with_homodyne_shift(s, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        with_homodyne_shift(shifted, 0.1)  # already displaced
    with pytest.raises(ValueError):
        with_homodyne_shift(preset_common_bath(1.0), 0.1)


def test_heterodyne_rotating_shift():
    s = preset_photon_counting(1.0, 1.0)
    het = with_heterodyne(s, 0.6, 2.5)
    assert het.time_dependent
    ch = het.channels[0]
    assert abs(ch.shift_at(0.0) - 0.6) < 1e-15
    t = 0.83
    assert abs(ch.shift_at(t) - 0.6 * np.exp(1j * 2.5 * t)) < 1e-15
    # the +/- pair keeps K static: identity offset (sum gamma alpha^2)/2
    extra = 0.5 * (1.0 + 1.0) * 0.6 ** 2
    assert np.max(np.abs(het.k_op - s.k_op - extra * np.eye(4))) < 1e-12
    assert validate_scenario(het).ok
    assert generator_deviation(het, s) < GEN_TOL
    with pytest.raises(ValueError):
        with_heterodyne(s, -0.3, 1.0)
    with pytest.raises(ValueError):
        with_heterodyne(s, 0.3, 0.0)


def test_het_freq_zero_is_a_static_shift():
    # one rotation rule: a shift rotates only with a nonzero het_freq, so
    # het_freq 0 is the static shift of het_freq None in every reader
    def scenario(het_freq):
        return scenario_from_channels((
            JumpChannel("z-A", "A", SIGMA_Z, 1.0, shift=0.5,
                        het_freq=het_freq),
            JumpChannel("z-B", "B", SIGMA_Z, 1.0)))

    zero, static = scenario(0.0), scenario(None)
    assert not zero.time_dependent
    assert rate_report(zero) == rate_report(static)
    assert rate_report(zero).kappa_qj == pytest.approx(0.5, abs=1e-15)
    run_trajectory_qsd("homodyne", zero, 0.5, dt=0.005, record_grid=0.1)
    a, b = (run_ensemble(s, 1.0, 40, seed=9, record_grid=0.1)
            for s in (zero, static))
    assert sum(len(r.click_times) for r in a) > 0
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.concurrences, rb.concurrences)
        assert np.array_equal(ra.click_times, rb.click_times)
        assert np.array_equal(ra.click_channels, rb.click_channels)


def _kernel_at(s, t):
    return sum(0.5 * ch.rate * dag(ch.lifted(t)) @ ch.lifted(t)
               for ch in s.channels)


def test_kernel_oscillation_detects_unpaired_rotation():
    het = with_heterodyne(preset_photon_counting(1.0, 0.5), 0.5, 3.0)
    assert kernel_oscillation(het) == 0.0
    assert np.max(np.abs(_kernel_at(het, 0.5) - het.k_op)) < 1e-12
    lone = scenario_from_channels(het.channels[:1])
    assert np.max(np.abs(_kernel_at(lone, 0.5) - lone.k_op)) > 0.1
    assert kernel_oscillation(lone) == pytest.approx(0.125)  # gamma alpha / 2
    assert not validate_scenario(lone).ok
    # a partner rotating the other way cancels through its conjugate term
    ch = lone.channels[0]
    mirror = JumpChannel("mirror", "A", dag(ch.op), ch.rate, shift=-0.5,
                         het_freq=-3.0)
    both = scenario_from_channels((ch, mirror))
    assert kernel_oscillation(both) == 0.0
    assert np.max(np.abs(_kernel_at(both, 0.7) - both.k_op)) < 1e-12


def test_jump_amplitudes_match_lifted_operators():
    het = with_heterodyne(preset_thermal(0.3, 1.0, 0.2, 0.8), 0.4, 2.0)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    t = np.array([0.0, 0.37, 2.9])
    amp = het.jump_amplitudes(psi, t)
    for b in range(3):
        for m, ch in enumerate(het.channels):
            assert np.allclose(amp[b, m], ch.lifted(t[b]) @ psi[b],
                               atol=1e-14)


def test_heterodyne_small_frequency_limit():
    # Omega -> 0 reduces to the static displacement at any fixed time
    s = preset_photon_counting(1.0, 1.0)
    het = with_heterodyne(s, 0.4, 1e-9)
    static = with_homodyne_shift(s, 0.4)
    for t in (0.0, 0.5, 1.0):
        got = np.array([ch.shift_at(t) for ch in het.channels])
        want = np.array([ch.shift_at(t) for ch in static.channels])
        assert np.max(np.abs(got - want)) < 1e-8


def test_phase_rotation_invariance():
    s = preset_thermal(0.5, 1.5, 0.5, 1.5)
    rot = with_phase_rotation(s, [0.3, 1.1, 2.0, 0.7])
    assert validate_scenario(rot).ok
    assert generator_deviation(rot, s) < GEN_TOL
    assert np.max(np.abs(rot.k_op - s.k_op)) < 1e-12


def test_rotated_thermal_generator_invariance():
    rng = np.random.default_rng(32)
    plain = preset_thermal(0.4, 1.2, 0.7, 0.9)
    # Hadamard-type balanced mixing
    u_bal = np.array([[S2, S2], [S2, -S2]])
    rot = preset_rotated_thermal(u_bal, u_bal, 0.4, 1.2, 0.7, 0.9)
    assert validate_scenario(rot).ok
    assert generator_deviation(rot, plain) < GEN_TOL
    # random unitary mixings, including a 3-output isometry
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        q3, _ = np.linalg.qr(rng.standard_normal((3, 3))
                             + 1j * rng.standard_normal((3, 3)))
        rot = preset_rotated_thermal(q, q3[:, :2], 0.4, 1.2, 0.7, 0.9)
        assert validate_scenario(rot).ok
        assert generator_deviation(rot, plain) < GEN_TOL


def test_rotated_thermal_rejects_bad_mixing():
    u_bal = np.array([[S2, S2], [S2, -S2]])
    with pytest.raises(ValueError):
        preset_rotated_thermal(np.eye(2) * 1.01, u_bal, 1, 2, 1, 2)
    with pytest.raises(ValueError):
        preset_rotated_thermal(np.ones((2, 2)), u_bal, 1, 2, 1, 2)
    # an all-zero output row would be a channel of rate 0
    with pytest.raises(ValueError, match="positive"):
        preset_rotated_thermal(np.eye(3)[:, :2], u_bal, 1, 2, 1, 2)


def test_validate_collects_violations():
    bad = scenario_from_channels(
        (JumpChannel("neg", "A", SIGMA_MINUS, -1.0),
         JumpChannel("odd", "B", np.eye(4), 1.0),
         JumpChannel("where", "C", SIGMA_MINUS, 1.0),
         JumpChannel("hetless", "A", SIGMA_MINUS, 1.0, het_freq=2.0)),
        initial=np.array([1.0, 0, 0, 1.0]),
        h0=np.array([[0, 1j], [1j, 0]]))
    report = validate_scenario(bad)
    assert not report.ok
    text = "\n".join(report.violations)
    assert "neg" in text and "rate" in text
    assert "odd" in text and "shape" in text
    assert "where" in text and "locality" in text
    assert "hetless" in text and "het_freq" in text
    assert "not normalized" in text
    assert "h0 must be 4x4" in text
    # an infinite rate (json.loads accepts Infinity) leaves K undiagonalizable;
    # both problems are reported, not raised
    with np.errstate(invalid="ignore"):  # inf * 0 in K is the point
        inf = validate_scenario(scenario_from_channels(
            (JumpChannel("inf", "A", SIGMA_MINUS, float("inf")),)))
    text = "\n".join(inf.violations)
    assert "'inf': rate inf is negative or non-finite" in text
    assert "could not diagonalize K" in text
    # so does JSON's NaN or Infinity in a displacement: the field is named,
    # and K, which it would poison, is not examined
    nan = float("nan")
    bad = validate_scenario(scenario_from_channels(
        (JumpChannel("nan-shift", "A", SIGMA_MINUS, 1.0, shift=complex(nan)),
         JumpChannel("inf-het", "A", SIGMA_MINUS, 1.0, shift=0.5,
                     het_freq=float("inf")),
         JumpChannel("nan-het", "B", SIGMA_MINUS, 1.0, shift=0.5,
                     het_freq=nan))))
    text = "\n".join(bad.violations)
    assert "'nan-shift': shift (nan+0j) is non-finite" in text
    assert "'inf-het': het_freq inf is non-finite" in text
    assert "'nan-het': het_freq nan is non-finite" in text
    assert "K" not in text


def test_generator_deviation_flags_mismatch():
    s = preset_photon_counting(1.0, 1.0)
    other = preset_photon_counting(1.0, 1.1)
    assert validate_scenario(other).ok
    assert generator_deviation(other, s) > GEN_TOL


def test_scenario_with_initial():
    s = preset_photon_counting(1.0, 1.0)
    psi = state_from_amplitudes(0, S2, -S2, 0)
    s2 = s.with_initial(psi)
    assert np.allclose(s2.initial, psi)
    assert np.allclose(s.initial, bell_state())  # original untouched
    assert s2.thermal_rates == s.thermal_rates
