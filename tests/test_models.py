"""Scenario construction, presets, monitoring transforms, and validation."""

import re
from dataclasses import replace

import numpy as np
import pytest

from trajent.config import (bundled_scenario_names, load_scenario,
                            scenario_from_dict)
from trajent.diffusion import run_trajectory_qsd
from trajent.errors import ConfigError
from trajent.linalg import (
    ID2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, dag, kron2,
)
from trajent.models import (
    COLLECTIVE_DECAY, JumpChannel, Scenario, bell_state, kernel_oscillation,
    lift, lindblad_superoperator, local_hamiltonian,
    preset_common_bath, preset_dephasing, preset_photon_counting,
    preset_rotated_thermal, preset_thermal, scenario_from_channels,
    state_from_amplitudes, with_heterodyne, with_homodyne_shift,
    with_phase_rotation,
)
from trajent.quantum_jump import run_ensemble
from trajent.rates import kappa_opt_thermal, optimize_unraveling, rate_report

from _oracles import (GEN_TOL, PAULI, generator_deviation,
                      lindblad_superoperator_per_channel, operator_at,
                      qubit_view_by_pauli, shift_at)

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
    assert np.max(np.abs(op - lift("A", SIGMA_X + SIGMA_Y) / np.sqrt(2))) \
        < 1e-14
    split = (np.exp(-1j * np.pi / 4) * SIGMA_PLUS
             + np.exp(1j * np.pi / 4) * SIGMA_MINUS)
    assert np.max(np.abs(op - lift("A", split))) < 1e-14
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
    assert s.qubits[1] == (None,)  # it acts on both qubits
    j = ch.operator()
    assert np.allclose(j, kron2(SIGMA_MINUS, ID2) + kron2(ID2, SIGMA_MINUS))
    jj = dag(j) @ j
    want = np.array([
        [2, 0, 0, 0],
        [0, 1, 1, 0],
        [0, 1, 1, 0],
        [0, 0, 0, 0],
    ], dtype=complex)
    assert np.max(np.abs(jj - want)) < 1e-14


def _lindblad_rhs(rho, s):
    """Right-hand side of the master equation, written on matrices."""
    h = s.h0
    out = -1j * (h @ rho - rho @ h)
    for ch in s.channels:
        j = ch.operator()
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
            channels.append(JumpChannel(f"c{m}-{qubit}", lift(qubit, op),
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
    a = [ch.shift for ch in shifted.channels]
    assert a == [0.8, -0.8, 0.8, -0.8]
    # displacement pairs leave the ensemble generator untouched
    assert generator_deviation(shifted, s) < GEN_TOL
    # K itself shifts by (sum_m gamma_m |alpha|^2 / 2) * identity
    extra = 0.5 * (1.0 + 0.4) * 0.8 ** 2
    assert np.max(np.abs(shifted.k_op - s.k_op - extra * np.eye(4))) < 1e-12


def test_homodyne_shift_complex_and_per_channel():
    s = preset_photon_counting(1.0, 1.0)
    shifted = with_homodyne_shift(s, [0.3 + 0.1j, 0.5])
    assert shifted.channels[0].shift == 0.3 + 0.1j
    assert shifted.channels[2].shift == 0.5
    assert generator_deviation(shifted, s) < GEN_TOL
    with pytest.raises(ValueError):
        with_homodyne_shift(s, [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        with_homodyne_shift(shifted, 0.1)  # already displaced
    # a joint channel may be displaced too: the +/- pair's cross terms
    # cancel for any J, and the rates still refuse the joint halves
    common = preset_common_bath(1.0)
    for displaced in (with_homodyne_shift(common, 0.4 + 0.2j),
                      with_heterodyne(common, 0.6, 2.5)):
        assert generator_deviation(displaced, common) < GEN_TOL
        with pytest.raises(ValueError, match="channel 'collective-decay~"
                           r"(het)?p' acts on both qubits"):
            rate_report(displaced)


def test_heterodyne_rotating_shift():
    s = preset_photon_counting(1.0, 1.0)
    het = with_heterodyne(s, 0.6, 2.5)
    assert het.time_dependent
    ch = het.channels[0]
    assert (ch.shift, ch.het_freq, ch.rotates) == (0.6, 2.5, True)
    # at t = 0 the displacement enters as alpha; its rotation is read by
    # Scenario.jump_amplitudes (test_jump_amplitudes_match_lifted_operators)
    assert np.array_equal(ch.operator(), ch.op + 0.6 * np.eye(4))
    # the +/- pair keeps K static: identity offset (sum gamma alpha^2)/2
    extra = 0.5 * (1.0 + 1.0) * 0.6 ** 2
    assert np.max(np.abs(het.k_op - s.k_op - extra * np.eye(4))) < 1e-12
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
            JumpChannel("z-A", lift("A", SIGMA_Z), 1.0, shift=0.5,
                        het_freq=het_freq),
            JumpChannel("z-B", lift("B", SIGMA_Z), 1.0)))

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


def _kernel_at(channels, t):
    return sum(0.5 * ch.rate * dag(operator_at(ch, t)) @ operator_at(ch, t)
               for ch in channels)


def test_kernel_oscillation_detects_unpaired_rotation():
    het = with_heterodyne(preset_photon_counting(1.0, 0.5), 0.5, 3.0)
    assert kernel_oscillation(het.channels) == 0.0
    assert np.max(np.abs(_kernel_at(het.channels, 0.5) - het.k_op)) < 1e-12
    lone = het.channels[:1]
    assert np.max(np.abs(_kernel_at(lone, 0.5) - _kernel_at(lone, 0.0))) > 0.1
    assert kernel_oscillation(lone) == pytest.approx(0.125)  # gamma alpha / 2
    with pytest.raises(ConfigError, match="oscillates with amplitude 0.125"):
        scenario_from_channels(lone)
    # a partner rotating the other way cancels through its conjugate term
    ch = lone[0]
    mirror = JumpChannel("mirror", dag(ch.op), ch.rate, shift=-0.5,
                         het_freq=-3.0)
    both = scenario_from_channels((ch, mirror))
    assert kernel_oscillation(both.channels) == 0.0
    assert np.max(np.abs(_kernel_at(both.channels, 0.7) - both.k_op)) < 1e-12


def test_jump_amplitudes_match_lifted_operators():
    het = with_heterodyne(preset_thermal(0.3, 1.0, 0.2, 0.8), 0.4, 2.0)
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    t = np.array([0.0, 0.37, 2.9])
    amp = het.jump_amplitudes(psi, t)
    for b in range(3):
        for m, ch in enumerate(het.channels):
            assert np.allclose(amp[b, m], operator_at(ch, t[b]) @ psi[b],
                               atol=1e-14)


def test_jump_amplitudes_match_einsum_form():
    # one (B, 4) @ (4, 4) product per channel gives the stacked einsum's
    # amplitudes to 1e-14, with static and with rotating displacements
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((500, 4)) + 1j * rng.standard_normal((500, 4))
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    t = 3.0 * rng.random(500)
    thermal = preset_thermal(0.3, 1.0, 0.2, 0.8)
    for s in (with_homodyne_shift(thermal, [0.7, -0.4, 1.1, 0.2]),
              with_heterodyne(thermal, 0.4, 2.0)):
        want = np.einsum("mij,bj->bmi", s.lifted_ops, psi)
        for m, ch in enumerate(s.channels):
            drift = np.array([shift_at(ch, tb) for tb in t]) - shift_at(ch, 0)
            want[:, m] += drift[:, None] * psi
        assert np.max(np.abs(s.jump_amplitudes(psi, t) - want)) < 1e-14


def test_heterodyne_small_frequency_limit():
    # Omega -> 0 reduces to the static displacement at any fixed time
    s = preset_photon_counting(1.0, 1.0)
    het = with_heterodyne(s, 0.4, 1e-9)
    static = with_homodyne_shift(s, 0.4)
    psi = np.tile(bell_state(), (3, 1))
    t = np.array([0.0, 0.5, 1.0])
    assert np.max(np.abs(het.jump_amplitudes(psi, t)
                         - static.jump_amplitudes(psi, t))) < 1e-8


def test_phase_rotation_invariance():
    s = preset_thermal(0.5, 1.5, 0.5, 1.5)
    rot = with_phase_rotation(s, [0.3, 1.1, 2.0, 0.7])
    assert generator_deviation(rot, s) < GEN_TOL
    assert np.max(np.abs(rot.k_op - s.k_op)) < 1e-12


def test_rotated_thermal_generator_invariance():
    rng = np.random.default_rng(32)
    plain = preset_thermal(0.4, 1.2, 0.7, 0.9)
    # Hadamard-type balanced mixing
    u_bal = np.array([[S2, S2], [S2, -S2]])
    rot = preset_rotated_thermal(u_bal, u_bal, 0.4, 1.2, 0.7, 0.9)
    assert generator_deviation(rot, plain) < GEN_TOL
    # random unitary mixings, including a 3-output isometry
    for _ in range(5):
        q, _ = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        q3, _ = np.linalg.qr(rng.standard_normal((3, 3))
                             + 1j * rng.standard_normal((3, 3)))
        rot = preset_rotated_thermal(q, q3[:, :2], 0.4, 1.2, 0.7, 0.9)
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
    # building a scenario runs every check and raises once, naming them all;
    # a channel's op is on the pair space, so a 2x2 one is refused (a file's
    # locality and shape are checked when it is read: test_config)
    with pytest.raises(ConfigError) as exc:
        scenario_from_channels(
            (JumpChannel("neg", lift("A", SIGMA_MINUS), -1.0),
             JumpChannel("odd", SIGMA_MINUS, 1.0),
             JumpChannel("hetless", lift("A", SIGMA_MINUS), 1.0,
                         het_freq=2.0)),
            initial=np.zeros(4),
            h0=np.array([[0, 1j], [1j, 0]]))
    text = str(exc.value)
    assert text.startswith("invalid scenario:")
    assert "neg" in text and "rate" in text
    assert "'odd': operator shape (2, 2) is not (4, 4)" in text
    assert "hetless" in text and "het_freq" in text
    assert "initial state is the zero vector" in text
    assert "h0 must be 4x4" in text
    # an infinite rate (json.loads accepts Infinity) is named, and K, which
    # it would poison, is not examined, although the channel rotates unpaired
    with pytest.raises(ConfigError) as exc:
        scenario_from_channels((JumpChannel("inf", lift("A", SIGMA_MINUS),
                                            float("inf"), shift=0.5,
                                            het_freq=3.0),))
    assert "'inf': rate inf is negative or non-finite" in str(exc.value)
    assert "K" not in str(exc.value)
    # so is JSON's NaN or Infinity in a displacement
    nan = float("nan")
    with pytest.raises(ConfigError) as exc:
        scenario_from_channels(
            (JumpChannel("nan-shift", lift("A", SIGMA_MINUS), 1.0,
                         shift=complex(nan)),
             JumpChannel("inf-het", lift("A", SIGMA_MINUS), 1.0, shift=0.5,
                         het_freq=float("inf")),
             JumpChannel("nan-het", lift("B", SIGMA_MINUS), 1.0, shift=0.5,
                         het_freq=nan)))
    text = str(exc.value)
    assert "'nan-shift': shift (nan+0j) is non-finite" in text
    assert "'inf-het': het_freq inf is non-finite" in text
    assert "'nan-het': het_freq nan is non-finite" in text
    assert "K" not in text


def test_every_route_to_a_scenario_checks_it():
    # the constructor, scenario_from_channels, dataclasses.replace, the
    # transforms and with_initial all build a Scenario, so all of them check
    slight = (JumpChannel("m", lift("A", SIGMA_MINUS), 1.0),
              JumpChannel("p", lift("A", SIGMA_PLUS), -1e-7))
    valid = scenario_from_channels(slight[:1])
    for build, named in (
            (lambda: Scenario(np.zeros((4, 4)), slight, bell_state()),
             "'p': rate -1e-07"),
            (lambda: scenario_from_channels(slight), "'p': rate -1e-07"),
            (lambda: replace(valid, channels=slight), "'p': rate -1e-07"),
            (lambda: with_phase_rotation(valid, np.nan), "non-finite"),
            (lambda: with_homodyne_shift(valid, np.inf), "'m~p': shift"),
            (lambda: valid.with_initial([np.nan, 0, 0, 1]), "non-finite"),
            (lambda: valid.with_initial(np.zeros(4)), "zero vector"),
            (lambda: valid.with_initial(np.ones(3)), "4 amplitudes")):
        with pytest.raises(ConfigError, match=re.escape(named)):
            build()


def test_rank_one_joint_channels_build_at_any_rate():
    # K = (gamma/2) J^dag J is positive semidefinite for gamma >= 0, so a
    # rank-1 joint channel builds at any rate, through the library and a file
    rng = np.random.default_rng(1)
    for _ in range(300):
        u, v = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        op = np.outer(u, np.conjugate(v))
        s = scenario_from_channels((JumpChannel("r1", op, 1e8),))
        assert s.k_op.shape == (4, 4)
        scenario_from_dict({"custom_channels": [{
            "id": "r1", "locality": "joint", "rate": 1e8,
            "matrix": [[[z.real, z.imag] for z in row] for row in op]}]})


def test_generator_deviation_flags_mismatch():
    s = preset_photon_counting(1.0, 1.0)
    other = preset_photon_counting(1.0, 1.1)
    assert generator_deviation(other, s) > GEN_TOL


def test_scenario_with_initial():
    s = preset_photon_counting(1.0, 1.0)
    psi = state_from_amplitudes(0, S2, -S2, 0)
    s2 = s.with_initial(psi)
    assert np.allclose(s2.initial, psi)
    assert np.allclose(s.initial, bell_state())  # original untouched
    assert s2.thermal_rates == s.thermal_rates


# the rates each bundled scenario's preset is built with; None where no
# preset names a thermal bath
BUNDLED_BATHS = {
    "common_bath_revival": None,
    "common_bath_single_excitation": None,
    "dephasing_phi0": None,
    "dephasing_phi_half_pi": None,
    "photon_counting": (0.0, 1.0, 0.0, 1.0),
    "photon_counting_shifted": (0.0, 1.0, 0.0, 1.0),
    "thermal_bell": (1.0, 2.0, 1.0, 2.0),
    "thermal_optimal": (1.0, 2.0, 1.0, 2.0),
}


def test_thermal_rates_of_bundled_scenarios():
    assert sorted(BUNDLED_BATHS) == bundled_scenario_names()
    for name, want in BUNDLED_BATHS.items():
        got = load_scenario(name).thermal_rates
        if name == "thermal_optimal":  # read back through the mixing
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
        else:
            assert got == want, name


def _isometry(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q[:, :2]


def test_thermal_rates_of_random_rotated_mixings():
    rng = np.random.default_rng(251)
    for _ in range(200):
        g = rng.uniform(0.0, 3.0, 4)
        s = preset_rotated_thermal(_isometry(rng, rng.integers(2, 5)),
                                   _isometry(rng, rng.integers(2, 5)), *g)
        assert np.max(np.abs(np.subtract(s.thermal_rates, g))) <= 1e-14


def test_thermal_rates_survive_monitoring_transforms():
    s = preset_thermal(0.4, 1.2, 0.7, 0.9)
    for t in (with_homodyne_shift(s, [0.3, 0.5j, -0.2, 1.1]),
              with_heterodyne(s, 0.6, 2.5),
              with_phase_rotation(s, [0.3, 1.1, 2.0, 0.7]),
              s.with_initial(state_from_amplitudes(0, S2, -S2, 0)),
              replace(s, h0=local_hamiltonian(0.3 * SIGMA_X, 0.8 * SIGMA_Z))):
        assert t.thermal_rates == pytest.approx(s.thermal_rates, abs=1e-14)


def test_replaced_channels_are_read_afresh():
    # the channels, not the preset a scenario came from, name its bath
    deph = preset_dephasing([0, 0, 1], [0, 0, 1], 1.0, 1.0)
    s = replace(preset_thermal(1.0, 2.0, 1.0, 2.0), channels=deph.channels)
    assert s.thermal_rates is None
    assert rate_report(s).kappa_qj_opt_thermal is None
    with pytest.raises(ConfigError, match="thermal-type"):
        optimize_unraveling(s)


def test_displaced_sigma_pair_is_a_thermal_bath():
    # sigma_+ + alpha and sigma_- + alpha* carry identity parts, but their
    # displacement terms cancel in the generator
    a = 0.3 + 0.4j
    up = JumpChannel("up", lift("A", SIGMA_PLUS), 1.0, shift=a)
    s = scenario_from_channels(
        [up, JumpChannel("down", lift("A", SIGMA_MINUS), 1.0,
                         shift=np.conj(a))])
    assert s.thermal_rates == (1.0, 1.0, 0.0, 0.0)
    assert generator_deviation(s, preset_thermal(1.0, 1.0, 0.0, 0.0)) < GEN_TOL
    # with alpha on both they leave a Hamiltonian term behind
    s = scenario_from_channels(
        [up, JumpChannel("down", lift("A", SIGMA_MINUS), 1.0, shift=a)])
    assert s.thermal_rates is None


def _bath_candidate(rng):
    """A random scenario that is an independent thermal bath or is not."""
    g = rng.uniform(0.1, 3.0, 4)
    kind = rng.integers(6)
    if kind == 0:
        s = preset_rotated_thermal(_isometry(rng, rng.integers(2, 4)),
                                   _isometry(rng, rng.integers(2, 4)), *g)
    elif kind == 1:
        s = with_homodyne_shift(preset_thermal(*g), rng.standard_normal(4)
                                + 1j * rng.standard_normal(4))
    elif kind == 2:
        s = with_heterodyne(preset_thermal(*g), rng.uniform(0.2, 1.0, 4),
                            rng.uniform(0.5, 3.0, 4))
    elif kind == 3:
        s = _random_channel_set(rng)
    elif kind == 4:
        # sigma_+ + alpha with sigma_- + alpha* (a bath) or + alpha (none),
        # and sigma_- on B written as a 4x4 matrix
        a = complex(*rng.standard_normal(2))
        b = np.conj(a) if rng.random() < 0.5 else a
        s = scenario_from_channels(
            [JumpChannel("up-A", lift("A", SIGMA_PLUS), g[0], shift=a),
             JumpChannel("down-A", lift("A", SIGMA_MINUS), g[0], shift=b),
             JumpChannel("down-B", np.kron(ID2, SIGMA_MINUS), g[3])])
    else:
        # a bath plus a dephasing or a joint channel
        extra = (JumpChannel("z-A", lift("A", SIGMA_Z), g[1])
                 if rng.random() < 0.5
                 else JumpChannel("j", rng.standard_normal((4, 4))
                                  + 1j * rng.standard_normal((4, 4)), g[2]))
        s = preset_thermal(*g)
        s = replace(s, channels=s.channels + (extra,))
    if rng.random() < 0.3:
        s = replace(s, h0=local_hamiltonian(rng.standard_normal() * SIGMA_X,
                                            rng.standard_normal() * SIGMA_Y))
    return s


def test_thermal_rates_agree_with_the_generator_route():
    # the 16x16 route: s is a bath exactly when its generator is that of
    # sigma_+/sigma_- channels at the rates read from its local operators
    # (the Pauli oracle's per-qubit view)
    rng = np.random.default_rng(252)
    verdicts = []
    for _ in range(240):
        s = _bath_candidate(rng)
        _, view = qubit_view_by_pauli(s)
        rates = []
        for qubit in "AB":
            chans = [(ch.rate, q[1]) for ch, q in zip(s.channels, view)
                     if q is not None and q[0] == qubit]
            rates += [sum(g * abs(j[0, 1]) ** 2 for g, j in chans),
                      sum(g * abs(j[1, 0]) ** 2 for g, j in chans)]
        ref = replace(preset_thermal(*rates), h0=s.h0)
        bath = generator_deviation(s, ref) <= GEN_TOL
        assert (s.thermal_rates is not None) == bath
        if bath:
            assert s.thermal_rates == pytest.approx(rates, abs=1e-14)
            # however the bath is written, the balanced mixing reaches it
            assert optimize_unraveling(s).achieved == pytest.approx(
                kappa_opt_thermal(*s.thermal_rates), abs=1e-12)
        verdicts.append(bath)
    assert 60 <= sum(verdicts) <= 180  # both verdicts are exercised


def _view_candidate(rng):
    """A random scenario for the per-qubit view, with the kinds it holds:
    the channels' kinds, whether H0 couples, and the displacement."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    h0 = local_hamiltonian(*(m + dag(m) for m in (cplx(2, 2), cplx(2, 2))))
    kinds = {"coupled H0" if rng.random() < 0.4 else "local H0"}
    if "coupled H0" in kinds:
        c = rng.standard_normal((3, 3))
        h0 = h0 + sum(c[i, k] * kron2(a, b) for i, a in enumerate(PAULI[1:])
                      for k, b in enumerate(PAULI[1:]))
    ops = {"A": lambda: lift("A", cplx(2, 2)),
           "B": lambda: lift("B", cplx(2, 2)),
           "joint": lambda: cplx(4, 4),
           "A (x) 1 by np.kron": lambda: np.kron(cplx(2, 2), ID2),
           "1 (x) B by np.kron": lambda: np.kron(ID2, cplx(2, 2)),
           "collective": lambda: COLLECTIVE_DECAY}
    channels = []
    for m in range(rng.integers(1, 4)):
        kind = list(ops)[rng.integers(len(ops))]
        kinds.add(kind)
        channels.append(JumpChannel(f"c{m}", ops[kind](),
                                    rng.uniform(0.1, 2.0)))
    s = scenario_from_channels(channels, h0=h0)
    n, shift = len(channels), ("static", "rotating", "none")[rng.integers(3)]
    kinds.add(shift)
    if shift == "static":
        s = with_homodyne_shift(s, cplx(n))
    elif shift == "rotating":
        s = with_heterodyne(s, rng.uniform(0.1, 1.0, n),
                            rng.uniform(0.5, 3.0, n))
    return s, kinds


def test_qubit_view_matches_the_pauli_oracle():
    # Scenario.qubits splits by partial traces; the oracle reads the Pauli
    # coefficients.  They agree on every verdict, and on every local part
    # to 1e-12, over 240 random scenarios of every kind
    rng = np.random.default_rng(28)
    seen = set()
    for _ in range(240):
        s, kinds = _view_candidate(rng)
        seen |= kinds
        h0, channels = qubit_view_by_pauli(s)
        got_h0, got_channels = s.qubits
        assert (got_h0 is None) == (h0 is None)
        if h0 is not None:
            assert np.max(np.abs(np.subtract(got_h0, h0))) <= 1e-12
            assert np.max(np.abs(local_hamiltonian(*got_h0) - s.h0)) <= 1e-12
        assert len(got_channels) == len(channels)
        for got, want in zip(got_channels, channels):
            assert (got is None) == (want is None)
            if want is not None:
                assert got[0] == want[0]
                assert np.max(np.abs(got[1] - want[1])) <= 1e-12
    assert seen == {"coupled H0", "local H0", "A", "B", "joint",
                    "A (x) 1 by np.kron", "1 (x) B by np.kron", "collective",
                    "static", "rotating", "none"}
