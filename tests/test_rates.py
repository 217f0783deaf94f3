"""Closed-form decay rates and the collective-decay concurrence curve."""

import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from trajent import rates
from trajent.cli import main
from trajent.config import bundled_scenario_names, load_scenario
from trajent.ensemble import run_average
from trajent.entanglement import concurrence_pure
from trajent.errors import ConfigError
from trajent.linalg import SIGMA_X, SIGMA_Z, kron2
from trajent.models import (
    COLLECTIVE_DECAY, JumpChannel, bell_state, lift, local_hamiltonian,
    preset_common_bath, preset_dephasing, preset_photon_counting,
    preset_rotated_thermal, preset_thermal, scenario_from_channels,
    with_heterodyne, with_homodyne_shift, with_phase_rotation,
)
from trajent.quantum_jump import batch_kernel
from trajent.rates import (analytic_mean_concurrence, common_bath_vanish_time,
                           kappa_opt_thermal, rate_report)

from _oracles import (GEN_TOL, common_bath_one_jump_pieces,
                      generator_deviation, kappa_ho_phase_scan,
                      kappa_qj_decomposed, normalized)

S2 = 1 / np.sqrt(2)
OPT_UNIT = 3.0 - 2.0 * np.sqrt(2.0)  # (sqrt2 - 1)^2 = 0.17157287525381


def random_local_scenario(rng, n_channels=4):
    channels = []
    for i in range(n_channels):
        op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        loc = "A" if rng.random() < 0.5 else "B"
        channels.append(JumpChannel(f"ch{i}", lift(loc, op),
                                    float(rng.uniform(0.05, 2.0))))
    return scenario_from_channels(tuple(channels))


def test_photon_counting_rates():
    rep = rate_report(preset_photon_counting(1.0, 1.0))
    assert abs(rep.kappa_qj - 1.0) < 1e-14
    assert abs(rep.kappa_ho - 1.0) < 1e-14
    assert abs(rep.kappa_ho_opt - 1.0) < 1e-14
    assert abs(rep.kappa_het - 1.0) < 1e-14
    rep = rate_report(preset_photon_counting(0.8, 0.3))
    assert abs(rep.kappa_qj - 0.55) < 1e-14
    assert abs(rep.kappa_het - 0.55) < 1e-14


def test_thermal_rates():
    # gamma_+ = gamma, gamma_- = 2 gamma on both qubits
    s = preset_thermal(1.0, 2.0, 1.0, 2.0)
    assert abs(rate_report(s).kappa_qj - 3.0) < 1e-13
    assert abs(kappa_opt_thermal(1.0, 2.0, 1.0, 2.0) - OPT_UNIT) < 1e-13
    # zero temperature: optimum equals the plain photon-counting rate
    assert abs(kappa_opt_thermal(0.0, 0.8, 0.0, 0.3) - 0.55) < 1e-14
    # infinite temperature (equal rates): perfect protection
    assert kappa_opt_thermal(1.3, 1.3, 0.4, 0.4) == 0.0


def test_rotated_balanced_mixing_reaches_optimum():
    u = np.array([[S2, S2], [S2, -S2]])
    s = preset_rotated_thermal(u, u, 1.0, 2.0, 1.0, 2.0)
    assert abs(rate_report(s).kappa_qj - OPT_UNIT) < 1e-12
    # identity mixing reproduces the unmixed thermal rate
    s_id = preset_rotated_thermal(np.eye(2), np.eye(2), 1.0, 2.0, 1.0, 2.0)
    assert abs(rate_report(s_id).kappa_qj - 3.0) < 1e-12


def test_dephasing_rates():
    s = preset_dephasing([1.0, 0, 0], [0, 1.0, 0], 1.0, 1.0)
    rep = rate_report(s)
    assert abs(rep.kappa_qj) < 1e-14
    assert abs(rep.kappa_ho_opt) < 1e-14
    assert abs(rep.kappa_ho - 4.0) < 1e-14      # theta = 0: gamma(1+cos0) each
    assert abs(rep.kappa_het - 2.0) < 1e-14     # sum of channel rates
    # pre-rotating by pi/2 recovers perfect protection in the homodyne rate
    rot = rate_report(with_phase_rotation(s, np.pi / 2))
    assert abs(rot.kappa_ho) < 1e-13
    assert abs(rot.kappa_qj) < 1e-13            # qj untouched by phase


def test_phase_invariance_of_jump_rate():
    rng = np.random.default_rng(41)
    for _ in range(20):
        s = random_local_scenario(rng)
        thetas = rng.uniform(0, 2 * np.pi, len(s.channels))
        rot = with_phase_rotation(s, thetas)
        assert abs(rate_report(rot).kappa_qj
                   - rate_report(s).kappa_qj) < 1e-12
        # homodyne rate does depend on the phase in general
    s = preset_dephasing([1.0, 0, 0], [1.0, 0, 0], 1.0, 1.0)
    assert abs(rate_report(with_phase_rotation(s, 0.7)).kappa_ho
               - rate_report(s).kappa_ho) > 0.1


def test_decomposition_equality_and_orderings():
    rng = np.random.default_rng(42)
    for _ in range(300):
        s = random_local_scenario(rng, n_channels=int(rng.integers(1, 5)))
        rep = rate_report(s)
        qj = rep.kappa_qj
        assert abs(kappa_qj_decomposed(s) - qj) < 1e-12
        assert qj >= -1e-12
        opt = rep.kappa_ho_opt
        assert opt <= qj + 1e-12
        assert rep.kappa_het >= opt - 1e-12
        assert rep.kappa_ho >= opt - 1e-12


def test_decomposition_zero_determinant_convention():
    s = scenario_from_channels(
        (JumpChannel("pp", lift("A", [[0, 1], [0, 0]]), 1.3),))
    assert abs(kappa_qj_decomposed(s) - rate_report(s).kappa_qj) < 1e-14


def test_phase_scan_matches_closed_form_optimum():
    rng = np.random.default_rng(43)
    for _ in range(30):
        s = random_local_scenario(rng, n_channels=1)
        assert abs(kappa_ho_phase_scan(s)
                   - rate_report(s).kappa_ho_opt) < 1e-6


def test_shifted_photon_counting_rate_unchanged():
    for alpha in (0.3, 0.8, 2.0):
        s = with_homodyne_shift(preset_photon_counting(1.0, 0.4), alpha)
        assert abs(rate_report(s).kappa_qj - 0.7) < 1e-13


def test_shifted_dephasing_rate():
    # kappa_qj(alpha) = 2 sum_i gamma_i min(alpha_i^2, 1)
    base = preset_dephasing([1.0, 0, 0], [0, 0, 1.0], 1.0, 0.5)
    for alpha in (0.5, 1.0, 2.0):
        s = with_homodyne_shift(base, alpha)
        want = 2.0 * (1.0 + 0.5) * min(alpha ** 2, 1.0)
        assert abs(rate_report(s).kappa_qj - want) < 1e-12


def test_heterodyne_shift_dropped_from_rates():
    base = preset_dephasing([1.0, 0, 0], [0, 0, 1.0], 1.0, 0.5)
    het = rate_report(with_heterodyne(base, 0.7, 3.0))
    assert abs(het.kappa_qj) < 1e-13  # rotating displacement averages out
    assert abs(het.kappa_het - rate_report(base).kappa_het) < 1e-13


def test_rates_refuse_joint_channels():
    s = preset_common_bath(1.0)
    for fn in (rate_report, kappa_qj_decomposed):
        with pytest.raises(ValueError, match="local"):
            fn(s)


def test_closed_forms_need_a_local_h0():
    # H0 = 2 sigma_x (x) sigma_x couples the qubits: photon counting keeps a
    # mean concurrence near 0.69 at t = 2, where C0 e^{-t} reads 0.135, so
    # there is no closed form and the rates refuse it.  A local H0 (split
    # into A (x) 1 + 1 (x) B by `Scenario.qubits`) keeps the channels'
    # curve, and the engine follows it within 4 sigma at every point
    pc = preset_photon_counting(1.0, 1.0)
    coupled = scenario_from_channels(pc.channels,
                                     h0=2.0 * kron2(SIGMA_X, SIGMA_X))
    local = scenario_from_channels(
        pc.channels, h0=local_hamiltonian(1.5 * SIGMA_X, 0.7 * SIGMA_X))
    assert coupled.qubits[0] is None
    assert local.qubits[0] is not None
    t = np.linspace(0.0, 2.0, 9)
    for unraveling in ("qj", "qsd-homodyne", "qsd-heterodyne"):
        assert analytic_mean_concurrence(coupled, unraveling, t) is None
        assert np.array_equal(analytic_mean_concurrence(local, unraveling, t),
                              analytic_mean_concurrence(pc, unraveling, t))
    with pytest.raises(ValueError, match="local"):
        rate_report(coupled)
    for s in (coupled, local):
        got = run_average(batch_kernel(s, 2.0, 0.25), 61, 2000, 1)
        off = np.abs(got.mean_c - np.exp(-t))
        if s is local:
            assert np.all(off <= 4.0 * got.stderr + 1e-12)
        else:
            assert off[-1] > 20.0 * got.stderr[-1]


def test_rate_report():
    s = preset_thermal(1.0, 2.0, 1.0, 2.0)
    rep = rate_report(s)
    assert abs(rep.kappa_qj - 3.0) < 1e-13
    assert abs(rep.kappa_qj_opt_thermal - OPT_UNIT) < 1e-13
    assert len(rep.per_channel) == 4
    assert abs(sum(t.qj for t in rep.per_channel) - rep.kappa_qj) < 1e-13
    rep2 = rate_report(preset_dephasing([1, 0, 0], [1, 0, 0], 1.0, 1.0))
    assert rep2.kappa_qj_opt_thermal is None


# ---------------------------------------------------------------------------
# Collective decay (common bath)
# ---------------------------------------------------------------------------

SINGLE_EXC_STATE = np.array([0, 2, 1, 0], dtype=complex) / np.sqrt(5)
REVIVAL_STATE = np.array([7j, 0, 0, 2j], dtype=complex) / np.sqrt(53)


def cb_curve(psi, gamma, t):
    """The common bath's jump-counting curve, through its public route."""
    return analytic_mean_concurrence(preset_common_bath(gamma, psi), "qj", t)


def test_common_bath_curve_construction():
    # the curve reads its rate and start state from the scenario, whose own
    # checks refuse a bad rate; an unnormalized start state is normalized
    for gamma in (-0.5, np.nan, np.inf):  # gamma = 0 is a rate
        with pytest.raises(ConfigError, match="negative or non-finite"):
            preset_common_bath(gamma, SINGLE_EXC_STATE)
    t = np.linspace(0.0, 3.0, 7)
    assert np.max(np.abs(cb_curve(3.0 * SINGLE_EXC_STATE, 1.0, t)
                         - cb_curve(SINGLE_EXC_STATE, 1.0, t))) < 1e-15


def test_common_bath_at_zero_rate_is_constant():
    # gamma = 0 is a valid scenario: nothing clicks, so the curve is C(0) and
    # it never vanishes
    t = np.linspace(0.0, 5.0, 11)
    for psi in (bell_state(), SINGLE_EXC_STATE, REVIVAL_STATE):
        c0 = concurrence_pure(psi)
        assert np.max(np.abs(cb_curve(psi, 0.0, t) - c0)) < 1e-15
        assert common_bath_vanish_time(preset_common_bath(0.0, psi)) is None


def test_common_bath_curve_reference_values():
    t0 = common_bath_vanish_time(preset_common_bath(1.0, SINGLE_EXC_STATE))
    assert abs(t0 - np.log(3.0)) < 1e-14
    c = cb_curve(SINGLE_EXC_STATE, 1.0, [0.0, t0, 50.0])
    assert abs(c[0] - 0.8) < 1e-14
    assert abs(c[1]) < 1e-14
    assert abs(c[2] - 0.1) < 1e-12  # the dark-state limit |c_-|^2 / 2
    # rate scaling: doubling gamma halves the vanishing time
    t0 = common_bath_vanish_time(preset_common_bath(2.0, SINGLE_EXC_STATE))
    assert abs(t0 - np.log(3.0) / 2.0) < 1e-14


def test_common_bath_vanish_time_none_cases():
    singlet = np.array([0, S2, -S2, 0], dtype=complex)
    anti = np.array([0, 2, -1, 0], dtype=complex) / np.sqrt(5)
    one = np.array([0, 1, 0, 0], dtype=complex)
    # doubly-excited amplitude present; singlet-like, c_+ = 0; anti-aligned
    # single-excitation phases; one amplitude missing (ratio exactly 1)
    for psi in (bell_state(), singlet, anti, one):
        assert common_bath_vanish_time(preset_common_bath(1.0, psi)) is None


def test_common_bath_is_read_from_the_operators():
    # a detector phase, a rescaling or a split of L = sigma_-^A + sigma_-^B
    # is the same ensemble (the generator oracle), so the curve and the
    # vanishing time hold: (2L, g/8) is L at g/2, and (2L, g/8) with
    # (2iL, g/8) is L at g; a phase moves gamma by the rounding of |z|^2
    big = COLLECTIVE_DECAY * 2.0
    t = np.linspace(0.0, 3.0, 13)
    for psi in (SINGLE_EXC_STATE, REVIVAL_STATE, bell_state()):
        base = preset_common_bath(1.0, psi)
        rescaled = scenario_from_channels((JumpChannel("2L", big, 0.125),),
                                          psi)
        split = scenario_from_channels((JumpChannel("2L", big, 0.125),
                                        JumpChannel("2iL", 1j * big, 0.125)),
                                       psi)
        for s, ref in ((with_phase_rotation(base, 0.7), base),
                       (rescaled, preset_common_bath(0.5, psi)),
                       (split, base)):
            assert generator_deviation(s, ref) < GEN_TOL
            got = analytic_mean_concurrence(s, "qj", t)
            want = analytic_mean_concurrence(ref, "qj", t)
            assert np.max(np.abs(got - want)) < 1e-15
            t0, want = common_bath_vanish_time(s), common_bath_vanish_time(ref)
            assert (t0 is None) == (want is None)
            assert t0 is None or abs(t0 - want) < 1e-15
    assert common_bath_vanish_time(
        with_phase_rotation(preset_common_bath(1.0, SINGLE_EXC_STATE), 0.7)
    ) is not None


def test_common_bath_refuses_other_scenarios():
    # a displaced, rotating, detuned or locally extended collective channel
    # is no common bath: no qj curve, and no vanishing time
    cb = preset_common_bath(1.0, SINGLE_EXC_STATE)
    t = np.linspace(0.0, 1.0, 5)
    local = JumpChannel("decay-A", lift("A", [[0, 0], [1, 0]]), 0.3)
    for s in (with_homodyne_shift(cb, 0.5), with_heterodyne(cb, 0.5, 2.0),
              replace(cb, h0=local_hamiltonian(0.5 * SIGMA_Z, -0.5 * SIGMA_Z)),
              replace(cb, channels=(*cb.channels, local))):
        assert analytic_mean_concurrence(s, "qj", t) is None
        with pytest.raises(ValueError, match="not a common bath"):
            common_bath_vanish_time(s)
    with pytest.raises(ValueError, match="not a common bath"):
        common_bath_vanish_time(preset_photon_counting(1.0, 1.0))


def test_common_bath_mean_at_zero_matches_pure_concurrence():
    rng = np.random.default_rng(44)
    for _ in range(1000):
        psi = normalized(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert abs(cb_curve(psi, 1.0, 0.0) - concurrence_pure(psi)) < 1e-12


def test_common_bath_inset_initial_rise():
    # (7i|uu> + 2i|dd>)/sqrt(53): mean concurrence rises at rate 70/53
    # although every jump history individually loses entanglement
    h = 1e-6
    c = cb_curve(REVIVAL_STATE, 1.0, [0.0, h])
    assert abs(c[0] - 28.0 / 53.0) < 1e-14
    assert abs((c[1] - c[0]) / h - 70.0 / 53.0) < 1e-4


def test_one_jump_pieces_sum_to_mean():
    t = np.array([0.0, 0.2, 0.9, 2.5])
    for psi in (bell_state(), SINGLE_EXC_STATE, REVIVAL_STATE):
        curve = cb_curve(psi, 1.3, t)
        for i, ti in enumerate(t):
            nj, oj = common_bath_one_jump_pieces(psi, 1.3, ti)
            assert abs(nj + oj - curve[i]) < 1e-12


def test_one_jump_quadrature_oracle():
    # independent route: integrate the unnormalized one-jump concurrence over
    # the jump time (the probability factors telescope away)
    gamma, t = 1.0, 0.8
    s = preset_common_bath(gamma)
    j = s.channels[0].operator()
    k = s.k_op
    psi0 = bell_state()

    def unnorm_c(phi):
        return abs(2.0 * (phi[1] * phi[2] - phi[0] * phi[3]))

    def integrand(tj):
        phi = expm(-k * (t - tj)) @ (j @ (expm(-k * tj) @ psi0))
        return gamma * unnorm_c(phi)

    val, err = integrate.quad(integrand, 0.0, t, epsabs=1e-12)
    _, oj = common_bath_one_jump_pieces(psi0, gamma, t)
    assert abs(val - oj) < 1e-8
    assert abs(oj - 2.0 * 0.5 * gamma * t * np.exp(-2 * gamma * t)) < 1e-14


UNRAVELINGS = ("qj", "qsd-homodyne", "qsd-heterodyne")
# which unravelings of each bundled scenario have a closed-form curve
CURVE_TABLE = {
    "common_bath_revival": (True, False, False),
    "common_bath_single_excitation": (True, False, False),
    "dephasing_phi0": (True, True, True),
    "dephasing_phi_half_pi": (True, True, True),
    "photon_counting": (True, True, True),
    "photon_counting_shifted": (True, True, True),
    "thermal_bell": (True, True, True),
    "thermal_optimal": (True, True, True),
}


def test_unravelings_are_one_list(capsys):
    # the spec above is the library's list, and `simulate --unraveling`
    # offers exactly its names, in its order
    assert rates.UNRAVELINGS == UNRAVELINGS
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "{" + ",".join(UNRAVELINGS) + "}" in capsys.readouterr().out


def test_bundled_scenarios_curve_table():
    # every curve starts at the start state's concurrence, within 1e-15
    assert sorted(CURVE_TABLE) == bundled_scenario_names()
    t = np.linspace(0.0, 2.0, 5)
    for name, row in CURVE_TABLE.items():
        s = load_scenario(name)
        for unraveling, has_curve in zip(UNRAVELINGS, row):
            curve = analytic_mean_concurrence(s, unraveling, t)
            assert (curve is not None) == has_curve, (name, unraveling)
            if has_curve:
                assert abs(curve[0] - concurrence_pure(s.psi0)) <= 1e-15, \
                    (name, unraveling)


def test_analytic_mean_concurrence_dispatcher():
    t = np.linspace(0.0, 2.0, 21)
    s = preset_photon_counting(1.0, 1.0)
    got = analytic_mean_concurrence(s, "qj", t)
    assert np.max(np.abs(got - np.exp(-t))) < 1e-12
    got = analytic_mean_concurrence(s, "qsd-heterodyne", t)
    assert np.max(np.abs(got - np.exp(-t))) < 1e-12
    # a name that is no unraveling is refused, not read as "no closed form",
    # and before the scenario is looked at: an H0 that couples the qubits
    # (no closed form) is refused the same way
    coupled = scenario_from_channels(s.channels,
                                     h0=2.0 * kron2(SIGMA_X, SIGMA_X))
    for name in ("master", "qsd-homodine"):
        for scenario in (s, coupled):
            with pytest.raises(ValueError, match=re.escape(str(UNRAVELINGS))):
                analytic_mean_concurrence(scenario, name, t)

    # c_+ = 3/sqrt5, c_- = 1/sqrt5 and c_uu = c_dd = 0:
    # C(t) = |1/5 - (9/5) e^{-2t}| / 2
    cb = preset_common_bath(1.0).with_initial(SINGLE_EXC_STATE)
    got = analytic_mean_concurrence(cb, "qj", t)
    assert np.max(np.abs(got - 0.5 * np.abs(0.2 - 1.8 * np.exp(-2 * t)))) \
        < 1e-14
    assert analytic_mean_concurrence(cb, "qsd-homodyne", t) is None
