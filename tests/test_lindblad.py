"""Master-equation propagation: fixed points, closed forms, the exact oracle."""

import numpy as np
import pytest
from scipy.linalg import expm

from trajent.config import bundled_scenario_names, load_scenario
from trajent.entanglement import concurrence_mixed, concurrence_pure
from trajent.errors import ConfigError, PositivityError
from trajent.lindblad import concurrence_series, density_from_state, evolve_rho
from trajent.linalg import SIGMA_MINUS, SIGMA_PLUS
from trajent.models import (JumpChannel, Scenario, bell_state, lift,
                            lindblad_superoperator, preset_common_bath, preset_dephasing,
                            preset_photon_counting, preset_thermal,
                            scenario_from_channels, state_from_amplitudes)

from _oracles import ptrace_a, ptrace_b

V_XY = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)


def test_no_channels_is_constant():
    s = Scenario(h0=np.zeros((4, 4)), channels=(), initial=bell_state())
    ev = evolve_rho(s, 2.0)
    rho0 = density_from_state(bell_state())
    for r in ev.rhos:
        assert np.max(np.abs(r - rho0)) < 1e-12


def test_ground_state_is_fixed_point():
    dd = state_from_amplitudes(0, 0, 0, 1)
    s = preset_photon_counting(1.3, 0.7, initial=dd)
    ev = evolve_rho(s, 3.0)
    assert np.max(np.abs(ev.rhos[-1] - density_from_state(dd))) < 1e-10


def test_dephasing_leaves_maximally_mixed():
    # the channels are unital, so the generator annihilates vec(1/4)
    s = preset_dephasing(V_XY, V_XY, 1.0, 1.0)
    mixed = (np.eye(4) / 4.0).reshape(16, order="F")
    assert np.max(np.abs(lindblad_superoperator(s) @ mixed)) < 1e-12


def test_common_bath_dark_state():
    singlet = state_from_amplitudes(0, 1, -1, 0) / np.sqrt(2)
    s = preset_common_bath(1.0, initial=singlet)
    ev = evolve_rho(s, 4.0)
    assert np.max(np.abs(ev.rhos[-1] - density_from_state(singlet))) < 1e-9


def test_thermal_marginals_reach_gibbs_ratio():
    s = preset_thermal(1.0, 2.0, 1.0, 2.0)
    ev = evolve_rho(s, 20.0)
    # single-qubit steady state: p_up/p_down = gamma_+/gamma_-
    want = np.diag([1.0 / 3.0, 2.0 / 3.0])
    assert np.max(np.abs(ptrace_b(ev.rhos[-1]) - want)) < 1e-6
    assert np.max(np.abs(ptrace_a(ev.rhos[-1]) - want)) < 1e-6


@pytest.mark.parametrize("t_max, grid, n_rec", [
    (0.5, 0.5, 2), (1.0, 0.5, 3), (5.12, 0.02, 257), (5.14, 0.02, 258),
    (20.0, 0.02, 1001)], ids=["G2", "G3", "G257", "G258", "G1001"])
def test_matches_matrix_exponential_on_bundled_scenarios(t_max, grid, n_rec):
    # every record point against expm(L t) vec rho0, computed afresh per
    # point, from rho0 = |psi0><psi0|, the start state of every engine; the
    # record counts straddle the squaring's doublings and its 256-row blocks
    for name in bundled_scenario_names():
        s = load_scenario(name)
        ev = evolve_rho(s, t_max, record_grid=grid)
        assert len(ev.times) == n_rec
        assert np.array_equal(ev.rhos[0], density_from_state(s.psi0)), name
        gen = lindblad_superoperator(s)
        vec0 = density_from_state(s.psi0).reshape(16, order="F")
        want = np.array([expm(gen * t) @ vec0 for t in ev.times])
        got = ev.rhos.transpose(0, 2, 1).reshape(-1, 16)
        assert np.max(np.abs(got - want)) < 1e-12, name


def test_concurrence_series_matches_per_matrix_on_bundled_scenarios():
    # one batched Wootters evaluation equals one call per record point
    for name in bundled_scenario_names():
        s = load_scenario(name)
        ev = evolve_rho(s, 20.0, record_grid=0.02)
        want = np.array([concurrence_mixed(r) for r in ev.rhos])
        got = concurrence_series(ev)
        assert got.shape == (len(ev.times),)
        assert np.max(np.abs(got - want)) < 1e-12, name
        assert abs(got[0] - concurrence_pure(s.psi0)) < 1e-12, name


def test_one_eigendecomposition_per_master_run(monkeypatch):
    # evolve_rho's positivity check and the C_rho series share one batched
    # eigh over the record stack; no eigvalsh pass, no second decomposition
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    c = concurrence_series(evolve_rho(load_scenario("thermal_bell"), 20.0,
                                      record_grid=0.02))
    assert calls == [(1001, 4, 4)]
    assert c.shape == (1001,)

def test_step_halving_converged():
    # the propagator is exact, so halving the record step changes nothing
    s = preset_thermal(1.0, 2.0, 1.0, 2.0)
    a = evolve_rho(s, 1.0, record_grid=0.005).rhos[-1]
    b = evolve_rho(s, 1.0, record_grid=0.0025).rhos[-1]
    assert np.max(np.abs(a - b)) < 1e-12


def test_oversize_step_rejected():
    s = preset_thermal(1.0, 2.0, 1.0, 2.0)
    # a step past t_max (or a non-positive one) is not a record grid
    for g in (2.0, 0.0, -0.1):
        with pytest.raises(ValueError):
            evolve_rho(s, 1.0, record_grid=g)
    # a step with gamma_max * g = 0.08 is exact, not rejected
    coarse = evolve_rho(s, 0.04, record_grid=0.04).rhos[-1]
    fine = evolve_rho(s, 0.04, record_grid=0.0004).rhos[-1]
    assert np.max(np.abs(coarse - fine)) < 1e-12


def test_trace_and_positivity_reported():
    ev = evolve_rho(preset_thermal(1.0, 2.0, 1.0, 2.0), 2.0)
    assert ev.max_trace_drift < 1e-10
    assert ev.min_eigenvalue > -1e-10


def test_negative_rate_breaks_positivity(monkeypatch):
    # a negative rate, however slight, is named when the scenario is built,
    # so the master equation (or any engine) never runs it
    down = JumpChannel("m", lift("A", SIGMA_MINUS), 1.0)
    with pytest.raises(ConfigError, match="'bad': rate -1.0 is negative"):
        Scenario(h0=np.zeros((4, 4)),
                 channels=(JumpChannel("bad", lift("A", SIGMA_MINUS),
                                       -1.0),),
                 initial=bell_state())
    with pytest.raises(ConfigError, match="'p': rate -1e-07 is negative"):
        scenario_from_channels([down, JumpChannel("p", lift("A", SIGMA_PLUS),
                                                  -1e-7)])
    # the integrator's floor, the one concurrence_mixed enforces, still
    # catches such a generator: L is linear in the rates, so 2 L(m) - L(m, p)
    # with p = sigma_+ at +1e-7 is the generator with p at -1e-7 (to 6e-17)
    s = scenario_from_channels([down])
    up = scenario_from_channels([down, JumpChannel("p", lift("A", SIGMA_PLUS),
                                                   1e-7)])
    gen = 2 * lindblad_superoperator(s) - lindblad_superoperator(up)
    monkeypatch.setattr("trajent.lindblad.lindblad_superoperator",
                        lambda _: gen)
    with pytest.raises(PositivityError,
                       match="-1.106e-08 < -1.0e-08 at t = 0.2500"):
        evolve_rho(s, 5.0)


def test_grid_validation():
    s = preset_photon_counting(1.0, 1.0)
    with pytest.raises(ValueError):
        evolve_rho(s, -1.0)
    with pytest.raises(ValueError):
        evolve_rho(s, 1.0, record_grid=0.3)  # grid does not divide t_max


def test_thermal_sudden_death():
    phi = state_from_amplitudes(1, 0, 0, -1j) / np.sqrt(2)
    s = preset_thermal(1.0, 2.0, 1.0, 2.0, initial=phi)
    ev = evolve_rho(s, 2.0)
    c = concurrence_series(ev)
    assert abs(c[0] - 1.0) < 1e-12
    dead = np.flatnonzero(c == 0.0)
    assert dead.size > 0 and ev.times[dead[0]] < 1.0
    # once gone, entanglement does not revive here
    assert np.all(c[dead[0]:] == 0.0)


def test_dephasing_master_closed_forms():
    # (|uu> + e^{i phi}|dd>)/sqrt(2) under J = (sigma_x + sigma_y)/sqrt(2)
    # on each qubit, rate 1.  Jumps are unitary, so the averaged state is a
    # mixture over jump parities with weight (1 +- e^{-2t})/2 per qubit.
    grid = None
    for phi, form in ((0.0, lambda q: np.maximum(0.0, q - (1 - q * q) / 2)),
                      (np.pi / 2, lambda q: q * q)):
        psi = state_from_amplitudes(1, 0, 0, np.exp(1j * phi)) / np.sqrt(2)
        ev = evolve_rho(preset_dephasing(V_XY, V_XY, 1.0, 1.0, initial=psi), 3.0)
        grid = ev.times
        q = np.exp(-2.0 * grid)
        assert np.max(np.abs(concurrence_series(ev) - form(q))) < 1e-12
    # phi = 0 dies at t = ln(1 + sqrt(2))/2 and stays dead; phi = pi/2 never does
    t_esd = 0.5 * np.log(1.0 + np.sqrt(2.0))
    psi0 = state_from_amplitudes(1, 0, 0, 1) / np.sqrt(2)
    c0 = concurrence_series(
        evolve_rho(preset_dephasing(V_XY, V_XY, 1.0, 1.0, initial=psi0), 3.0))
    assert np.all(c0[grid > t_esd + 0.02] == 0.0)
    assert np.all(c0[grid < t_esd - 0.02] > 0.0)


def test_common_bath_single_excitation_matches_trajectory_mean():
    # one excitation shared through the collective channel: the averaged state
    # is an X state whose concurrence is |c_-^2 - c_+^2 e^{-2 gamma t}| / 2
    psi = state_from_amplitudes(0, 2, 1, 0) / np.sqrt(5)
    ev = evolve_rho(preset_common_bath(1.0, initial=psi), 3.0)
    cp = 3.0 / np.sqrt(5.0)   # c_ud + c_du
    cm = 1.0 / np.sqrt(5.0)
    want = np.abs(cm ** 2 - cp ** 2 * np.exp(-2.0 * ev.times)) / 2.0
    assert np.max(np.abs(concurrence_series(ev) - want)) < 1e-12
