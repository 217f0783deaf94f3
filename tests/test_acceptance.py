"""End-to-end acceptance checks, one per headline behaviour.

Each test pins the published tolerances for one workflow: ensemble decay
laws, sudden-death phenomenology, unraveling/master equivalence, the
monitoring-rate inequalities, the mixed-concurrence oracle, and the channel
mixing optimizer.  Monte Carlo assertions use fixed seeds; statistical
budgets are three standard errors (plus a 1e-12 float guard where the spread
collapses to rounding noise), except the density-matrix comparison, which
makes 4032 element comparisons at five standard errors.
"""

import time

import numpy as np

from trajent.config import bundled_scenario_path, load_scenario
from trajent.diffusion import run_ensemble_qsd
from trajent.ensemble import average, fit_rate, fit_rate_series
from trajent.entanglement import concurrence_mixed, concurrence_pure
from trajent.lindblad import concurrence_series, density_from_state, evolve_rho
from trajent.models import (JumpChannel, Scenario, bell_state, lift,
                            preset_dephasing, preset_photon_counting,
                            preset_thermal, state_from_amplitudes,
                            with_phase_rotation)
from trajent.quantum_jump import run_ensemble
from trajent.rates import (analytic_mean_concurrence, kappa_opt_thermal,
                           optimize_unraveling, rate_report)

from _oracles import kappa_ho_phase_scan, kappa_qj_decomposed

FLOAT_GUARD = 1e-12
V_XY = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)


def _summary(recs):
    return average(recs)


def test_photon_counting_ensemble_matches_closed_form():
    # zero-temperature decay, Bell pair: mean concurrence is C0 e^{-gamma t}
    start = time.monotonic()
    s = preset_photon_counting(1.0, 1.0, initial=bell_state())
    summ = _summary(run_ensemble(s, 3.0, 1500, seed=2026, record_grid=0.03,
                                 workers=1))
    elapsed = time.monotonic() - start
    want = np.exp(-summ.times)
    assert np.all(np.abs(summ.mean_c - want)
                  <= 3.0 * summ.stderr + FLOAT_GUARD)
    fit = fit_rate(summ)
    assert abs(fit.rate - 1.0) <= 0.05
    assert elapsed < 10.0


def test_thermal_bath_rates_and_sudden_death():
    s = load_scenario(bundled_scenario_path("thermal_bell"))
    ev = evolve_rho(s, 1.6, record_grid=0.016)
    c_rho = concurrence_series(ev)
    dead = np.flatnonzero(c_rho == 0.0)
    assert dead.size > 0                       # finite-time disentanglement
    assert np.all(c_rho[dead[0]:] == 0.0)      # and no revival
    t_esd = ev.times[dead[0]]

    summ = _summary(run_ensemble(s, 1.6, 1500, seed=2027, record_grid=0.016))
    fit = fit_rate(summ)
    assert abs(fit.rate - 3.0) <= 0.05 * 3.0
    past = summ.times > t_esd                  # trajectory mean outlives rho
    assert np.all(summ.mean_c[past] - c_rho[past] > 3.0 * summ.stderr[past])

    opt = load_scenario(bundled_scenario_path("thermal_optimal"))
    summ = _summary(run_ensemble(opt, 6.0, 1500, seed=2028, record_grid=0.06))
    ref = kappa_opt_thermal(1.0, 2.0, 1.0, 2.0)      # 3 - 2 sqrt(2)
    assert abs(fit_rate(summ).rate - ref) <= 0.10 * ref


def test_dephasing_keeps_every_trajectory_maximally_entangled():
    s = load_scenario(bundled_scenario_path("dephasing_phi_half_pi"))
    recs = run_ensemble(s, 5.0, 150, seed=2031, record_grid=0.05)
    for r in recs:
        assert np.max(np.abs(r.concurrences - 1.0)) < 1e-6

    phi0 = load_scenario(bundled_scenario_path("dephasing_phi0"))
    c_rho = concurrence_series(evolve_rho(phi0, 3.0))
    dead = np.flatnonzero(c_rho == 0.0)
    assert dead.size > 0 and np.all(c_rho[dead[0]:] == 0.0)
    summ = _summary(run_ensemble(phi0, 3.0, 150, seed=2032, record_grid=0.05))
    assert np.max(np.abs(summ.mean_c - 1.0)) < 1e-6


def test_common_bath_mean_curve_and_residual_entanglement():
    s = load_scenario(bundled_scenario_path("common_bath_single_excitation"))
    summ = _summary(run_ensemble(s, 3.0, 4000, seed=2029, record_grid=0.025))
    want = analytic_mean_concurrence(s, "qj", summ.times)
    assert np.all(np.abs(summ.mean_c - want)
                  <= 3.0 * summ.stderr + FLOAT_GUARD)
    # the mean dips to zero at t = ln 3 / gamma before climbing back
    lo, hi = np.searchsorted(summ.times, [0.6, 1.6])
    t_dip = summ.times[lo + np.argmin(summ.mean_c[lo:hi])]
    assert abs(t_dip - np.log(3.0)) <= 0.05
    tail = summ.times >= 2.5                   # residual plateau c_-^2 / 2
    assert np.all(np.abs(summ.mean_c[tail] - 0.1) <= 3.0 * summ.stderr[tail])
    # one shared excitation: averaging loses nothing over the master equation
    c_rho = concurrence_series(evolve_rho(s, 3.0, record_grid=0.025))
    assert np.all(np.abs(summ.mean_c - c_rho)
                  <= 3.0 * summ.stderr + FLOAT_GUARD)

    inset = load_scenario(bundled_scenario_path("common_bath_revival"))
    si = _summary(run_ensemble(inset, 1.0, 4000, seed=2030, record_grid=0.025))
    ci = concurrence_series(evolve_rho(inset, 1.0, record_grid=0.025))
    assert si.mean_c[1] - si.mean_c[0] > 3.0 * si.stderr[1]   # mean grows
    assert ci[1] < ci[0]                                      # rho loses


GAP_SIGMAS = 5.0
SIGMA_FLOOR = 1e-9   # for elements the trajectories all agree on


def test_trajectory_average_reproduces_master_equation():
    # every element of the empirical density matrix, real and imaginary part
    # at every record point, lies within 5 sigma of the master equation, with
    # sigma the standard error over the trajectories' own |psi><psi|
    for name in ("photon_counting", "thermal_bell", "dephasing_phi0",
                 "thermal_optimal", "photon_counting_shifted",
                 "common_bath_single_excitation"):
        s = load_scenario(bundled_scenario_path(name))
        recs = run_ensemble(s, 1.0, 5000, seed=3001, record_grid=0.05,
                            keep_states=True)
        states = np.stack([r.states for r in recs])
        outer = np.einsum("ngi,ngj->ngij", states, np.conjugate(states))
        gap = average(recs).empirical_rho - evolve_rho(
            s, 1.0, record_grid=0.05).rhos
        for part in (np.real, np.imag):
            sigma = part(outer).std(axis=0, ddof=1) / np.sqrt(len(recs))
            bound = GAP_SIGMAS * np.maximum(sigma, SIGMA_FLOOR)
            assert np.all(np.abs(part(gap)) <= bound), name


def test_unnormalized_library_state_starts_every_engine_alike():
    # a library scenario keeps its initial state as given; the master
    # equation, the jump engine and the closed form all start from the one
    # normalized s.psi0, so C_rho(0) = mean C(0) = analytic(0) = 1, and
    # mean C >= C_rho holds within 5 sigma at all 21 points
    s = preset_photon_counting(1.0, 1.0, initial=[1, 0, 0, 1])
    evo = evolve_rho(s, 1.0, record_grid=0.05)
    assert np.allclose(np.trace(evo.rhos, axis1=1, axis2=2), 1.0,
                       atol=FLOAT_GUARD)
    c_rho = concurrence_series(evo)
    summ = average(run_ensemble(s, 1.0, 600, seed=17, record_grid=0.05))
    ana = analytic_mean_concurrence(s, "qj", summ.times)
    for c0 in (c_rho[0], summ.mean_c[0], ana[0]):
        assert abs(c0 - 1.0) < FLOAT_GUARD
    assert np.all(summ.mean_c >= c_rho - 5 * summ.stderr - FLOAT_GUARD)


def _within_5_sigma_of_closed_form(s, unraveling, summ):
    """Every point with mean >= 5 stderr within 5 stderr of the closed form."""
    want = analytic_mean_concurrence(s, unraveling, summ.times)
    sel = (summ.stderr > 0) & (summ.mean_c >= 5.0 * summ.stderr)
    assert sel.sum() >= 10
    return np.all(np.abs(summ.mean_c - want)[sel] <= 5.0 * summ.stderr[sel])


def test_diffusive_monitoring_decay_rates():
    # N = 400 each, pointwise at 5 sigma against C0 e^{-kappa t}
    s = preset_photon_counting(1.0, 1.0, initial=bell_state())
    summ = _summary(run_ensemble_qsd("homodyne", s, 1.5, 400, dt=0.005,
                                     seed=101, record_grid=0.05))
    assert _within_5_sigma_of_closed_form(s, "qsd-homodyne", summ)
    summ = _summary(run_ensemble_qsd("heterodyne", s, 1.5, 400, dt=0.005,
                                     seed=103, record_grid=0.05))
    assert _within_5_sigma_of_closed_form(s, "qsd-heterodyne", summ)

    psi = state_from_amplitudes(1, 0, 0, -1j) / np.sqrt(2)
    deph = preset_dephasing(V_XY, V_XY, 1.0, 1.0, initial=psi)
    summ = _summary(run_ensemble_qsd("homodyne", deph, 0.8, 400, dt=0.0025,
                                     seed=107, record_grid=0.025))
    assert _within_5_sigma_of_closed_form(deph, "qsd-homodyne", summ)
    # the quarter-turn phase switches the decay off: C = 1 on every
    # trajectory
    quarter = with_phase_rotation(deph, np.pi / 2)
    recs = run_ensemble_qsd("homodyne", quarter, 0.8, 400, dt=0.0025,
                            seed=109, record_grid=0.025)
    c = np.array([r.concurrences for r in recs])
    assert np.max(np.abs(c - 1.0)) <= FLOAT_GUARD


def test_monitoring_rate_inequalities_hold():
    rng = np.random.default_rng(4001)
    for _ in range(1000):
        chans = []
        for k in range(rng.integers(1, 5)):
            op = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            loc = "A" if rng.random() < 0.5 else "B"
            chans.append(JumpChannel(f"ch{k}", lift(loc, op),
                                     float(rng.uniform(0.05, 2.0))))
        s = Scenario(h0=np.zeros((4, 4)), channels=tuple(chans),
                     initial=np.array([1, 0, 0, 0], dtype=complex))
        rep = rate_report(s)
        kqj = rep.kappa_qj
        assert kqj >= 0.0
        assert abs(kappa_qj_decomposed(s) - kqj) <= 1e-12
        opt = rep.kappa_ho_opt
        assert opt <= kqj + 1e-12
        assert rep.kappa_het >= opt - 1e-12
        assert abs(kappa_ho_phase_scan(s) - opt) <= 1e-6


def test_mixed_concurrence_closed_forms():
    bell = density_from_state(bell_state())
    for p in (0.0, 1.0 / 3.0, 0.5, 1.0):
        rho = p * bell + (1.0 - p) * np.eye(4) / 4.0
        want = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert abs(concurrence_mixed(rho) - want) < 1e-10
    rng = np.random.default_rng(4003)
    for _ in range(100):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        assert abs(concurrence_mixed(density_from_state(psi))
                   - concurrence_pure(psi)) < 1e-9


def test_optimizer_recovers_balanced_mixing_rate():
    rng = np.random.default_rng(4002)
    quads = rng.uniform(0.1, 3.0, (20, 4))
    for row in quads:
        opt = optimize_unraveling(preset_thermal(*row))
        assert abs(opt.achieved - kappa_opt_thermal(*row)) < 1e-12
