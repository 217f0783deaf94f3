"""Jump unraveling engine: draws, determinism, batching, physics checks."""

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from scipy.linalg import expm

from trajent import ensemble, quantum_jump
from trajent.config import bundled_scenario_path, load_scenario
from trajent.entanglement import concurrence_pure
from trajent.errors import ConfigError, NumericalError
from trajent.lindblad import evolve_rho
from trajent.models import (JumpChannel, bell_state, lift, local_hamiltonian,
                            preset_common_bath, preset_dephasing,
                            preset_photon_counting, scenario_from_channels,
                            state_from_amplitudes, with_heterodyne,
                            with_homodyne_shift)
from trajent.linalg import SIGMA_MINUS, SIGMA_X, SIGMA_Z
from trajent.quantum_jump import run_ensemble, run_trajectory
from trajent.rates import analytic_mean_concurrence

from _oracles import (click_delay_gathered, k_mean_complex, norm2_complex,
                      operator_at, survival_probability, trajectory_rng)

UU = state_from_amplitudes(1, 0, 0, 0)
DD = state_from_amplitudes(0, 0, 0, 1)


def _first_clicks(s, n, seed, t_max):
    recs = run_ensemble(s, t_max, n, seed=seed, record_grid=0.1)
    return [r.events[0] for r in recs if r.events]


def test_first_click_time_is_exponential():
    # |uu> under photon counting: the first click time has survival
    # e^{-1.4 t}.  Each bin count, and the no-click count, stays within 4
    # binomial sigma of the closed form.
    s = preset_photon_counting(0.9, 0.5, initial=UU)
    n = 4000
    first = _first_clicks(s, n, seed=51, t_max=2.0)
    t = np.array([ev.time for ev in first])
    assert np.all((t > 0) & (t <= 2.0))
    edges = np.linspace(0.0, 2.0, 11)
    p_bin = np.diff(1.0 - np.exp(-1.4 * edges))
    counts = np.histogram(t, edges)[0]
    p_all = np.append(p_bin, np.exp(-2.8))
    counts = np.append(counts, n - len(t))
    sigma = np.sqrt(n * p_all * (1.0 - p_all))
    assert np.all(np.abs(counts - n * p_all) <= 4.0 * sigma)


def test_first_click_channel_split():
    # the first click lands on A with probability gamma_A / (gamma_A +
    # gamma_B) = 9/14, within 4 binomial sigma
    s = preset_photon_counting(0.9, 0.5, initial=UU)
    first = _first_clicks(s, 4000, seed=53, t_max=2.0)
    k = sum(ev.channel_id == "decay-A" for ev in first)
    p = 0.9 / 1.4
    assert abs(k - p * len(first)) <= 4.0 * np.sqrt(len(first) * p * (1 - p))


def test_click_times_are_continuous():
    # click times are sampled, not stepped: they are all distinct and none
    # lies on a grid dividing the record grid into up to 100 steps
    s = preset_photon_counting(0.9, 0.5, initial=UU)
    t = np.array([ev.time for ev in _first_clicks(s, 3000, seed=57,
                                                  t_max=2.0)])
    assert len(np.unique(t)) == len(t)
    for n_sub in range(1, 101):
        h = 0.1 / n_sub
        off = np.abs(t / h - np.round(t / h)) * h
        assert np.all(off > 1e-12), n_sub


def test_survival_closed_forms():
    s = preset_photon_counting(0.9, 0.5)
    for t in (0.0, 0.3, 1.7):
        assert abs(survival_probability(s, UU, t) - np.exp(-1.4 * t)) < 1e-12
        assert abs(survival_probability(s, DD, t) - 1.0) < 1e-12
    cb = preset_common_bath(1.0)
    assert abs(survival_probability(cb, UU, 0.8) - np.exp(-1.6)) < 1e-12
    with pytest.raises(ValueError):
        survival_probability(s, UU, -0.1)
    het = with_heterodyne(s, 0.5, 3.0)
    with pytest.raises(ValueError):
        survival_probability(het, UU, 1.0)


def test_trajectory_deterministic_in_seed_and_index():
    s = preset_photon_counting(1.0, 1.0)
    a = run_trajectory(s, 1.0, seed=11, index=3, record_grid=0.1)
    b = run_trajectory(s, 1.0, seed=11, index=3, record_grid=0.1)
    assert np.array_equal(a.concurrences, b.concurrences)
    assert a.events == b.events
    # distinct indices and distinct master seeds draw from distinct substreams
    assert not np.array_equal(trajectory_rng(11, 3).random(8),
                              trajectory_rng(11, 4).random(8))
    assert not np.array_equal(trajectory_rng(11, 3).random(8),
                              trajectory_rng(12, 3).random(8))


def test_ensemble_worker_count_invisible():
    s = preset_photon_counting(1.0, 1.0)
    one = run_ensemble(s, 1.0, 700, seed=5, record_grid=0.1, keep_states=True,
                       workers=1)
    three = run_ensemble(s, 1.0, 700, seed=5, record_grid=0.1,
                         keep_states=True, workers=3)
    assert len(one) == len(three) == 700
    for k, (ra, rb) in enumerate(zip(one, three)):
        assert ra.index == rb.index == k
        assert ra.seed == rb.seed == 5
        assert np.array_equal(ra.concurrences, rb.concurrences)
        assert np.array_equal(ra.states, rb.states)
        assert ra.events == rb.events


def test_single_trajectory_equals_its_ensemble_record():
    # ~25 clicks per row on displaced photon counting: the clicks of each
    # row are grouped from the click rounds of its batch, across the batch
    # boundary at 512 and into the short last batch of the second worker
    s = with_homodyne_shift(preset_photon_counting(1.0, 1.0), [2, 2])
    recs = run_ensemble(s, 3.0, 1100, seed=7, record_grid=0.03,
                        keep_states=True, workers=2)
    assert np.mean([len(r.events) for r in recs]) > 20
    for k in (0, 511, 512, 1099):
        one = run_trajectory(s, 3.0, seed=7, index=k, record_grid=0.03,
                             keep_states=True)
        assert recs[k].index == one.index == k
        assert recs[k].events == one.events
        assert np.array_equal(recs[k].concurrences, one.concurrences)
        assert np.array_equal(recs[k].states, one.states)


@pytest.mark.parametrize("workers", [1, 2])
def test_records_keep_click_columns(monkeypatch, workers):
    # ~25 clicks per row on displaced photon counting: a run builds no
    # JumpEvent, each record's clicks are two columns sliced from its batch's
    # sorted click arrays, and `events` is built from them when read
    s = with_homodyne_shift(preset_photon_counting(1.0, 1.0), [2, 2])

    def refuse(*args):
        raise AssertionError("a JumpEvent was built during the run")

    with monkeypatch.context() as patch:
        patch.setattr(ensemble.JumpEvent, "_make", refuse)
        recs = run_ensemble(s, 3.0, 1100, seed=7, record_grid=0.03,
                            keep_states=True, workers=workers)
    assert np.mean([len(r.click_times) for r in recs]) > 20
    for r in recs:
        assert r.click_times.dtype == float
        assert len(r.click_channels) == len(r.click_times)
        assert np.all(np.diff(r.click_times) > 0)
        assert r.events == tuple(ensemble.JumpEvent(t, c) for t, c in
                                 zip(r.click_times, r.click_channels))
    for a, b in ((0, 1), (0, 511), (512, 1023), (1024, 1099)):
        for col in ("click_times", "click_channels"):
            base = getattr(recs[a], col).base
            assert base is not None and getattr(recs[b], col).base is base
            assert np.shares_memory(getattr(recs[a], col), base)
            assert np.shares_memory(getattr(recs[b], col), base)
    assert recs[0].click_times.base is not recs[512].click_times.base
    # a Bell pair under plain photon counting clicks at most twice, and about
    # half its rows not at all: those records have empty columns
    recs = run_ensemble(preset_photon_counting(1.0, 1.0), 0.5, 600, seed=7,
                        record_grid=0.05, workers=workers)
    silent = [r for r in recs if not len(r.click_times)]
    assert 100 < len(silent) < 500
    for r in silent:
        assert r.click_times.shape == r.click_channels.shape == (0,)
        assert r.click_times.dtype == float
        assert r.click_channels.dtype == object
        assert r.events == ()


def test_records_equal_across_kernel_call_boundaries(monkeypatch):
    # span + 4 rows: one worker makes calls of span and 4 rows, two workers
    # of 2048 and 1540, three of 1536, 1536 and 516, the caller taking call
    # 0; with one-batch calls, three workers make 9 calls and the caller takes
    # calls 0, 3 and 6.  A row's record does not depend on the call it shares
    # or the process that computed it, and its clicks are re-based to its
    # batch
    span = ensemble._CALL_ROWS
    s = with_homodyne_shift(preset_photon_counting(1.0, 1.0), [1, 1])
    runs = [run_ensemble(s, 0.5, span + 4, seed=19, record_grid=0.05,
                         keep_states=True, workers=w) for w in (1, 2, 3)]
    monkeypatch.setattr(ensemble, "_CALL_ROWS", ensemble._BATCH)
    runs.append(run_ensemble(s, 0.5, span + 4, seed=19, record_grid=0.05,
                             keep_states=True, workers=3))
    assert np.mean([len(r.events) for r in runs[0]]) > 1
    for recs in runs[1:]:
        assert len(recs) == span + 4
        for ra, rb in zip(runs[0], recs):
            assert ra.index == rb.index
            assert ra.events == rb.events
            assert np.array_equal(ra.concurrences, rb.concurrences)
            assert np.array_equal(ra.states, rb.states)
    for k in (span - 1, span, span + 3):
        one = run_trajectory(s, 0.5, seed=19, index=k, record_grid=0.05,
                             keep_states=True)
        assert runs[0][k].index == one.index == k
        assert runs[0][k].events == one.events
        assert np.array_equal(runs[0][k].concurrences, one.concurrences)
        assert np.array_equal(runs[0][k].states, one.states)


def test_keep_states_normalized_and_consistent():
    s = preset_common_bath(1.0, initial=state_from_amplitudes(0, 2, 1, 0)
                           / np.sqrt(5))
    rec = run_trajectory(s, 2.0, seed=3, record_grid=0.2, keep_states=True)
    assert rec.states.shape == (11, 4)
    norms = np.linalg.norm(rec.states, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9
    for k in range(11):
        assert abs(concurrence_pure(rec.states[k])
                   - rec.concurrences[k]) < 1e-12


def test_no_click_fraction_matches_survival():
    s = preset_photon_counting(0.7, 0.7, initial=UU)
    recs = run_ensemble(s, 1.0, 2000, seed=17, record_grid=0.1)
    p_hat = np.mean([len(r.events) == 0 for r in recs])
    p = survival_probability(s, UU, 1.0)  # e^{-1.4}
    se = np.sqrt(p * (1 - p) / 2000)
    assert abs(p_hat - p) < 3 * se


def test_click_budget_and_dead_entanglement():
    # zero temperature: each qubit emits at most once, and the first click
    # projects the pair state onto a product
    s = preset_photon_counting(1.0, 1.0, initial=bell_state())
    recs = run_ensemble(s, 3.0, 300, seed=23, record_grid=0.1)
    saw_click = 0
    for r in recs:
        assert len(r.events) <= 2
        if r.events:
            saw_click += 1
            after = r.times >= r.events[0].time - 1e-12
            assert np.all(r.concurrences[after] == 0.0)
    assert saw_click > 150
    cb = preset_common_bath(1.0, initial=UU)
    for r in run_ensemble(cb, 3.0, 200, seed=29, record_grid=0.1):
        assert len(r.events) <= 2


def test_dephasing_trajectories_keep_full_entanglement():
    v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    psi = state_from_amplitudes(1, 0, 0, -1j) / np.sqrt(2)
    s = preset_dephasing(v, v, 1.0, 1.0, initial=psi)
    for r in run_ensemble(s, 2.0, 20, seed=31, record_grid=0.1):
        assert np.max(np.abs(r.concurrences - 1.0)) < 1e-6


def test_mean_tracks_analytic_curve():
    psi = state_from_amplitudes(0, 2, 1, 0) / np.sqrt(5)
    s = preset_common_bath(1.0, initial=psi)
    recs = run_ensemble(s, 2.0, 500, seed=37, record_grid=0.25)
    c = np.array([r.concurrences for r in recs])
    mean = c.mean(axis=0)
    stderr = c.std(axis=0, ddof=1) / np.sqrt(len(recs))
    want = analytic_mean_concurrence(s, "qj", recs[0].times)
    assert np.all(np.abs(mean - want) <= 4 * stderr + 1e-12)


def test_single_excitation_vanishes_at_t0_on_every_trajectory():
    # collective decay from c_ud |ud> + c_du |du>: a click ends in |dd>, and
    # no click moves c+ / c- as e^{-gamma t}, so every trajectory has C = 0
    # at t0 = ln|c+ / c-| / gamma = ln 3, the 20th record point.  Unlike the
    # QSD test, the neighbouring points are not checked for C > 0: rows that
    # clicked sit at |dd> with C = 0
    s = load_scenario(bundled_scenario_path("common_bath_single_excitation"))
    t0 = np.log(3.0)
    for seed in (3, 4, 5):
        times, conc, _, _ = quantum_jump.batch_kernel(s, 2 * t0, t0 / 20)(
            seed, range(512))
        assert times[20] == pytest.approx(t0, abs=1e-15)
        assert np.max(conc[:, 20]) <= 1e-12


def test_step_control_and_grid_validation():
    # no step control: rates far above 1 / record_grid need no smaller step
    hot = preset_photon_counting(100.0, 100.0)
    rec = run_trajectory(hot, 0.1, seed=43, record_grid=0.01)
    assert len(rec.events) == 2
    assert all(0.0 < ev.time < 0.1 for ev in rec.events)
    assert np.all(rec.concurrences[1:] == 0.0)
    s = preset_photon_counting(1.0, 1.0)
    with pytest.raises(ValueError):
        run_trajectory(s, -1.0)
    with pytest.raises(ValueError):
        run_trajectory(s, 1.0, record_grid=0.3)
    with pytest.raises(ValueError):
        run_trajectory(s, 0.1, record_grid=0.2)
    with pytest.raises(ValueError):
        run_ensemble(s, 1.0, 0)
    # an unpaired rotating displacement makes K time dependent: such a
    # scenario cannot be built, so no kernel ever sees it
    with pytest.raises(ConfigError, match="static"):
        scenario_from_channels((JumpChannel("lone", lift("A", SIGMA_MINUS),
                                            1.0, shift=0.5, het_freq=3.0),))
    # the grid is checked when the kernel is built, before any call
    with pytest.raises(ValueError, match="record_grid"):
        quantum_jump.batch_kernel(s, 1.0, record_grid=0.3)


def test_heterodyne_displacement_smoke():
    # rotating displacements make the click operators time dependent but keep
    # H_eff static; the engine must follow the drive without renorm drift
    s = with_heterodyne(preset_photon_counting(1.0, 1.0), 0.5, 3.0)
    rec = run_trajectory(s, 1.0, seed=41, record_grid=0.1, keep_states=True)
    assert np.all(np.isfinite(rec.concurrences))
    assert np.max(np.abs(np.linalg.norm(rec.states, axis=1) - 1.0)) < 1e-9


def test_driven_pair_matches_master_equation():
    # H0 != 0 makes H_eff non-normal: the general eigendecomposition and the
    # bracketed click-time search must still reproduce rho(t) element by
    # element within 5 sigma of the trajectories' own spread
    s = scenario_from_channels(
        preset_photon_counting(1.0, 0.6).channels,
        h0=local_hamiltonian(1.5 * SIGMA_X, 0.7 * SIGMA_X))
    recs = run_ensemble(s, 2.0, 3000, seed=59, record_grid=0.1,
                        keep_states=True)
    states = np.stack([r.states for r in recs])
    outer = np.einsum("ngi,ngj->ngij", states, np.conjugate(states))
    rho = evolve_rho(s, 2.0, record_grid=0.1).rhos
    for part in (np.real, np.imag):
        sigma = np.maximum(part(outer).std(axis=0) / np.sqrt(len(recs)), 1e-7)
        assert np.all(np.abs(part(outer.mean(axis=0)) - part(rho))
                      <= 5.0 * sigma)


def test_eigenbasis_propagator_is_measured(monkeypatch):
    # photon counting (gamma = 1 per qubit) driven by Omega (sigma_x (x) 1 +
    # 1 (x) sigma_x) has a defective H_eff at Omega = 1/4.  W e^{-i lam t}
    # W^-1 is off from expm(-i H_eff t) by 0.8 at Omega - 1/4 = d = 0 and by
    # 1.7e-9 at d = 1e-8 (refused; cond(W) is 5.8e7, under the 1e8 bound
    # that was checked before), by 1.4e-11 and 1.1e-13 at d = 1e-6 and 1e-4
    # (run), and by at most 2.4e-16 on the bundled scenarios
    pc = preset_photon_counting(1.0, 1.0)
    for d, refused in ((0.0, True), (1e-8, True), (1e-6, False),
                       (1e-4, False)):
        s = scenario_from_channels(pc.channels, h0=local_hamiltonian(
            (0.25 + d) * SIGMA_X, (0.25 + d) * SIGMA_X))
        if refused:
            with pytest.raises(NumericalError, match=r"off by \S+ from expm"):
                quantum_jump.batch_kernel(s, 2.0, 0.1)
        else:
            rec = run_trajectory(s, 2.0, seed=3, record_grid=0.1)
            assert np.isfinite(rec.concurrences).all()
    # an exactly singular eigenbasis is refused the same way
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(NumericalError, match="off by inf"):
        quantum_jump.batch_kernel(pc, 1.0)


def _replay(s, rec):
    """The state at every record point, rebuilt from the events alone."""
    channel = {ch.id: ch for ch in s.channels}
    psi, t_last, events = s.initial / np.linalg.norm(s.initial), 0.0, \
        list(rec.events)
    out = []
    for t in rec.times:
        while events and events[0].time <= t:
            ev = events.pop(0)
            psi = operator_at(channel[ev.channel_id], ev.time) \
                @ expm(-1j * s.h_eff * (ev.time - t_last)) @ psi
            psi, t_last = psi / np.linalg.norm(psi), ev.time
        phi = expm(-1j * s.h_eff * (t - t_last)) @ psi
        out.append(phi / np.linalg.norm(phi))
    return np.array(out)


def test_records_replay_their_events():
    # each recorded state, rebuilt from the trajectory's events with scipy's
    # expm: this pins which post-click segment fills which record point, for
    # rows without clicks, rows with two clicks in one record interval, and a
    # non-normal H_eff (the driven pair of the test above)
    driven = scenario_from_channels(
        preset_photon_counting(1.0, 0.6).channels,
        h0=local_hamiltonian(1.5 * SIGMA_X, 0.7 * SIGMA_X))
    displaced = with_homodyne_shift(preset_photon_counting(1.0, 1.0), [2, 2])
    # a coarse grid on the displaced scenario gives rows with three or more
    # clicks in one interval, whose superseded segments must not be written
    cases = [(load_scenario(bundled_scenario_path("thermal_bell")), 3.0, 0.3),
             (displaced, 3.0, 0.3), (driven, 2.0, 0.1), (displaced, 3.0, 1.5)]
    silent = doubled = tripled = 0
    for s, t_max, grid in cases:
        for rec in run_ensemble(s, t_max, 40, seed=61, record_grid=grid,
                                keep_states=True):
            assert np.max(np.abs(_replay(s, rec) - rec.states)) < 1e-10
            slots = np.searchsorted(rec.times, [ev.time for ev in rec.events])
            silent += not rec.events
            doubled += len(np.unique(slots)) < len(slots)
            tripled += np.bincount(slots).max(initial=0) >= 3
    assert silent and doubled and tripled


def _search_cases():
    """(s, c, lam, w, log_r, span) of 1,000 unit rows per scenario, spans
    from 1e-3 to t_max, and thresholds uniform over the no-click norms
    S(span) <= r < S(0) = 1."""
    driven = scenario_from_channels(
        preset_photon_counting(1.0, 0.6).channels,
        h0=local_hamiltonian(1.5 * SIGMA_X, 0.7 * SIGMA_X))
    displaced = with_homodyne_shift(preset_photon_counting(1.0, 1.0), [2, 2])
    rng = np.random.default_rng(83)
    for s, t_max in ((load_scenario(bundled_scenario_path("thermal_bell")),
                      3.0), (displaced, 3.0), (driven, 2.0)):
        lam, w = np.linalg.eig(s.h_eff)
        psi = rng.normal(size=(1000, 4)) + 1j * rng.normal(size=(1000, 4))
        c = (psi / np.linalg.norm(psi, axis=1)[:, None]) @ np.linalg.inv(w).T
        span = 1e-3 * (t_max / 1e-3) ** rng.random(1000)
        end = (c * np.exp(-1j * np.multiply.outer(span, lam))) @ w.T
        s_end = np.linalg.norm(end, axis=1) ** 2
        log_r = np.log(s_end + rng.random(1000) * (1.0 - s_end))
        yield s, c, lam, w, log_r, span


def test_click_times_match_gathered_search():
    # the compacted search returns the gathered form's click times bit for
    # bit when both read S and <K> through the kernel's helpers
    for s, c, lam, w, log_r, span in _search_cases():
        want = click_delay_gathered(c, lam, w, s.k_op, log_r, span)
        got = quantum_jump._click_delay(c, -1j * lam, w, s.k_op, log_r, span)
        assert np.all((0 < want) & (want <= span))
        assert np.array_equal(got, want)


def test_click_times_match_complex_einsum_search():
    # the real-view S and <K> move click times only within the search's own
    # accuracy, _TAU_TOL max(1, span), of the complex einsum forms
    for s, c, lam, w, log_r, span in _search_cases():
        want = click_delay_gathered(c, lam, w, s.k_op, log_r, span,
                                    norm2=norm2_complex,
                                    k_mean=k_mean_complex)
        got = quantum_jump._click_delay(c, -1j * lam, w, s.k_op, log_r, span)
        tol = quantum_jump._TAU_TOL * np.maximum(1.0, span)
        assert np.all(np.abs(got - want) <= tol)


def test_real_view_contractions_match_complex_forms():
    # S, <K>, and the jump's channel choice and post-click state, read
    # through real views, agree with the complex einsum forms to 1e-14, with
    # a rotating displacement among the channels
    het = with_heterodyne(preset_photon_counting(1.0, 0.6), 0.4, 2.0)
    rng = np.random.default_rng(29)
    psi = rng.normal(size=(1000, 4)) + 1j * rng.normal(size=(1000, 4))
    assert np.allclose(quantum_jump._norm2(psi), norm2_complex(psi),
                       rtol=1e-14, atol=0)
    assert np.allclose(quantum_jump._k_mean(psi, het.k_op),
                       k_mean_complex(psi, het.k_op), rtol=1e-14, atol=0)
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    t, u = 3.0 * rng.random(1000), rng.random(1000)
    after, m = quantum_jump._jump(het, psi, t, u)
    amp = het.jump_amplitudes(psi, t)
    cum = np.cumsum(het.rates * (np.conjugate(amp) * amp).real.sum(axis=2),
                    axis=1)
    want_m = (cum <= u[:, None] * cum[:, -1:]).sum(axis=1)
    want = amp[np.arange(1000), want_m]
    want /= np.linalg.norm(want, axis=1)[:, None]
    assert np.array_equal(m, want_m)
    assert np.max(np.abs(after - want)) < 1e-14


def test_real_spectrum_keeps_real_exponentials():
    # a real -i lambda (6 of the 8 bundled scenarios) makes the no-click
    # exponentials real; against the same kernel on a complex -i lambda, the
    # clicks' rows and channels are identical, and their times, the
    # concurrences and the states agree to 1e-13
    dense = with_homodyne_shift(preset_photon_counting(1.0, 1.0), [2, 2])
    for s in (load_scenario(bundled_scenario_path("thermal_bell")), dense):
        kernel = quantum_jump.batch_kernel(s, 3.0, 0.03, keep_states=True,
                                           keep_clicks=True)
        args = list(kernel.args)
        assert args[3].dtype == float
        args[3] = args[3] + 0j
        forced = partial(kernel.func, *args)
        (_, conc, states, (row, t, channel)), \
            (_, conc_c, states_c, (row_c, t_c, channel_c)) = (
                k(31, range(600)) for k in (kernel, forced))
        assert len(row) > 600
        assert np.array_equal(row, row_c)
        assert np.array_equal(channel, channel_c)
        assert np.max(np.abs(t - t_c)) <= 1e-13
        assert np.max(np.abs(conc - conc_c)) <= 1e-13
        assert np.max(np.abs(states - states_c)) <= 1e-13
    bath = load_scenario(bundled_scenario_path("common_bath_revival"))
    assert quantum_jump.batch_kernel(bath, 1.0).args[3].dtype == complex


def test_kernel_products_stay_single_threaded():
    # every product in the jump kernel is (<= _CALL_ROWS, 4) @ (4, 4), which
    # stays under the 65,536 multiply-adds from which OpenBLAS threads a GEMM
    assert ensemble._CALL_ROWS * 16 < 65_536
    assert ensemble._CALL_ROWS % ensemble._BATCH == 0


def test_kernel_scratch_memory_flat_in_grid():
    # the record fill carries each row's state from point to point, so the
    # kernel's scratch memory (the peak less what it returns) does not grow
    # with the number of record points G, with and without the click columns
    # (without them, rows leave the click loop once they are product states)
    s = load_scenario(bundled_scenario_path("thermal_bell"))
    for keep_clicks in (True, False):
        scratch = []
        for grid in (0.03, 0.0075):  # G = 101 and 401
            kernel = quantum_jump.batch_kernel(s, 3.0, grid,
                                               keep_clicks=keep_clicks)
            tracemalloc.start()
            try:
                out = kernel(89, np.arange(4096))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            times, conc, _, clicks = out
            assert (clicks is not None) == keep_clicks
            scratch.append(peak - sum(a.nbytes for a in
                                      (times, conc, *(clicks or ()))))
        assert scratch[1] <= 1.2 * scratch[0], keep_clicks


def test_click_rounds_and_long_horizons(monkeypatch):
    # one click-time search per click round of the batch, not per record
    # interval: at most the batch's largest click count
    calls = []
    search = quantum_jump._click_delay
    monkeypatch.setattr(quantum_jump, "_click_delay",
                        lambda *a: calls.append(1) or search(*a))
    s = load_scenario(bundled_scenario_path("thermal_bell"))
    recs = run_ensemble(s, 3.0, 512, seed=67, record_grid=0.03)
    assert 0 < len(calls) <= max(len(r.events) for r in recs)
    # strong damping over a long horizon: every row ends in the dark ground
    # state |dd>, and the searches span up to t_max = 20 = 1000 / gamma
    s = preset_photon_counting(50.0, 50.0, initial=bell_state())
    recs = run_ensemble(s, 20.0, 200, seed=71, record_grid=0.2,
                        keep_states=True)
    k = np.diag(s.k_op).real
    assert np.array_equal(s.k_op, np.diag(k))
    free = s.initial * np.exp(-np.outer(recs[0].times, k))
    free /= np.linalg.norm(free, axis=1)[:, None]
    want = [concurrence_pure(p) for p in free]
    silent = 0
    for r in recs:
        assert np.all(np.isfinite(r.concurrences))
        assert len(r.events) in (0, 2)
        assert abs(r.states[-1, 3]) == pytest.approx(1.0, abs=1e-12)
        if not r.events:
            silent += 1
            assert np.max(np.abs(r.states - free)) < 1e-12
            assert np.max(np.abs(r.concurrences - want)) < 1e-12
    # the no-click fraction is S(inf) = 1/2: 100 +/- 7 rows, bound 7 sigma
    assert 50 < silent < 150


def _search_rows(monkeypatch):
    """Record the number of rows each click-time search is given."""
    rows = []
    search = quantum_jump._click_delay
    monkeypatch.setattr(quantum_jump, "_click_delay",
                        lambda c, *a: rows.append(len(c)) or search(c, *a))
    return rows


def test_product_rows_leave_the_click_loop(monkeypatch):
    # thermal_bell: every channel is sigma_- or sigma_+ on one qubit, so the
    # first click leaves a qubit in a basis state.  Without click columns a row is searched
    # at most once, and the concurrences equal those of the kernel that keeps
    # the clicks bit for bit (its product states are basis states, C = 0
    # exactly)
    s = load_scenario(bundled_scenario_path("thermal_bell"))
    rows = _search_rows(monkeypatch)
    full = quantum_jump.batch_kernel(s, 3.0, 0.03, keep_clicks=True)(
        13, np.arange(1000))
    n_clicks = len(full[3][0])
    assert sum(rows) == n_clicks > 3000
    rows.clear()
    lean = quantum_jump.batch_kernel(s, 3.0, 0.03)(13, np.arange(1000))
    assert len(rows) == 1 and rows[0] <= 1000
    assert lean[2] is None and lean[3] is None
    assert np.array_equal(lean[0], full[0])
    assert np.array_equal(lean[1], full[1])


def test_exit_only_where_records_read_exact_zero(monkeypatch):
    # a row leaves only where the kernel that samples every click computes
    # C = 0 exactly at its later points, so the arrays with and without the
    # click columns are the same either way.  Not where a joint channel or a
    # non-diagonal H_eff (sigma_x (x) sigma_x, a driven local pair, or H0 = 0
    # with the rank-one channel |u><+| on A) may leave a product state with
    # a rounding residue; but a diagonal H0, even sigma_z (x) sigma_z, keeps
    # a basis-state qubit in its basis state
    thermal = load_scenario(bundled_scenario_path("thermal_bell"))
    zz, xx, driven = (scenario_from_channels(thermal.channels, h0=h0)
                      for h0 in (0.4 * np.kron(SIGMA_Z, SIGMA_Z),
                                 0.4 * np.kron(SIGMA_X, SIGMA_X),
                                 local_hamiltonian(1.5 * SIGMA_X,
                                                   0.7 * SIGMA_X)))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rank_one = scenario_from_channels(
        (JumpChannel("u+", lift("A", np.outer([1.0, 0.0], plus)), 1.0),
         JumpChannel("d", lift("B", SIGMA_MINUS), 0.7)), bell_state())
    rows = _search_rows(monkeypatch)
    for s, exits in ((load_scenario(bundled_scenario_path(
            "common_bath_revival")), False), (xx, False), (driven, False),
            (rank_one, False), (thermal, True), (zz, True)):
        rows.clear()
        a = quantum_jump.batch_kernel(s, 3.0, 0.05)(19, np.arange(300))
        searched = sum(rows)
        b = quantum_jump.batch_kernel(s, 3.0, 0.05, keep_clicks=True)(
            19, np.arange(300))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert a[3] is None and len(b[3][0]) == sum(rows) - searched
        assert (searched < len(b[3][0])) == exits


def test_product_start_state_needs_no_search(monkeypatch):
    # a start state with a qubit in a basis state keeps it under these
    # dynamics: C = 0 at every point, and no click time is searched
    rows = _search_rows(monkeypatch)
    for s in (preset_photon_counting(1.0, 0.5, initial=UU),
              load_scenario(bundled_scenario_path("thermal_bell"))
              .with_initial(state_from_amplitudes(0.6, 0.8j, 0, 0))):
        summary = ensemble.run_average(quantum_jump.batch_kernel(s, 2.0),
                                       3, 700, 1)
        assert np.all(summary.mean_c == 0.0)
        assert np.all(summary.stderr == 0.0)
    assert rows == []


def test_long_horizon_exits_stay_finite():
    # a product row is not evolved after it leaves: at t_max = 400 its
    # no-click norm would underflow, and C = 0/0 would be NaN
    s = load_scenario(bundled_scenario_path("thermal_bell"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        summary = ensemble.run_average(quantum_jump.batch_kernel(s, 400.0, 4.0),
                                       5, 512, 1)
    assert np.all(np.isfinite(summary.mean_c))
    assert np.all(np.isfinite(summary.stderr))
    assert summary.mean_c[-1] == 0.0
