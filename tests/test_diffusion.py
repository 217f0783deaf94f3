"""Diffusive unraveling engine: noise contracts, steppers, decay rates."""

import tracemalloc

import numpy as np
import pytest

from trajent import diffusion
from trajent.diffusion import (_NOISE_VALUES, batch_kernel_qsd,
                               run_ensemble_qsd, run_trajectory_qsd)
from trajent.ensemble import average, fit_rate_series, trajectory_rng
from trajent.errors import StepSizeError
from trajent.linalg import ID2, SIGMA_X, SIGMA_Z
from trajent.models import (preset_dephasing, preset_photon_counting,
                            scenario_from_channels, state_from_amplitudes,
                            with_heterodyne, with_phase_rotation)
from trajent.quantum_jump import run_ensemble

from _oracles import (complex_wiener_increments, step_heterodyne,
                      step_homodyne, wiener_increments)

V_XY = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)


def _mean(recs):
    c = np.array([r.concurrences for r in recs])
    return recs[0].times, c.mean(axis=0), c.std(axis=0, ddof=1) / np.sqrt(len(recs))


def test_real_increment_moments():
    rng = np.random.default_rng(61)
    dw = wiener_increments(rng, 100_000, 2, 0.01)
    assert dw.shape == (100_000, 2)
    assert np.max(np.abs(dw.mean(axis=0))) < 4 * np.sqrt(0.01 / 100_000)
    assert np.max(np.abs(dw.var(axis=0) / 0.01 - 1.0)) < 0.05


def test_complex_increment_moments_and_order():
    rng = np.random.default_rng(62)
    dxi = complex_wiener_increments(rng, 100_000, 2, 0.01)
    assert abs(np.mean(np.abs(dxi) ** 2) / 0.01 - 1.0) < 0.05
    assert abs(np.mean(dxi ** 2)) < 4 * 0.01 / np.sqrt(100_000)
    # channel m consumes its normal pair before channel m+1
    z = np.random.default_rng(63).standard_normal(4)
    got = complex_wiener_increments(np.random.default_rng(63), 1, 2, 2.0)[0]
    assert got[0] == z[0] + 1j * z[1]
    assert got[1] == z[2] + 1j * z[3]


def test_steppers_return_unit_norm():
    s = preset_photon_counting(1.0, 0.6)
    rng = np.random.default_rng(64)
    for _ in range(25):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        for stepper in (step_homodyne, step_heterodyne):
            out = stepper(psi, s, 0.005, rng)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_reference_stepper_matches_batch():
    s = preset_photon_counting(1.0, 0.6)
    for kind, stepper in (("homodyne", step_homodyne),
                          ("heterodyne", step_heterodyne)):
        rec = run_trajectory_qsd(kind, s, 0.5, dt=0.005, seed=71, index=2,
                                 record_grid=0.05, keep_states=True)
        rng = trajectory_rng(71, 2)
        psi = s.initial.copy()
        states = [psi]
        for _ in range(100):
            psi = stepper(psi, s, 0.005, rng)
            states.append(psi)
        for k in range(11):
            assert np.allclose(states[10 * k], rec.states[k], atol=1e-10)


def test_homodyne_decay_rate():
    s = preset_photon_counting(1.0, 1.0)
    recs = run_ensemble_qsd("homodyne", s, 1.5, 400, dt=0.005, seed=101,
                            record_grid=0.05)
    t, m, se = _mean(recs)
    fit = fit_rate_series(t, m, se)
    assert abs(fit.rate - 1.0) < 0.1


def test_heterodyne_decay_rate():
    s = preset_photon_counting(1.0, 1.0)
    recs = run_ensemble_qsd("heterodyne", s, 1.5, 400, dt=0.005, seed=103,
                            record_grid=0.05)
    t, m, se = _mean(recs)
    fit = fit_rate_series(t, m, se)
    assert abs(fit.rate - 1.0) < 0.1


def test_dephasing_phase_steers_decay():
    psi = state_from_amplitudes(1, 0, 0, -1j) / np.sqrt(2)
    s = preset_dephasing(V_XY, V_XY, 1.0, 1.0, initial=psi)
    recs = run_ensemble_qsd("homodyne", s, 0.8, 400, dt=0.0025, seed=107,
                            record_grid=0.025)
    t, m, se = _mean(recs)
    assert abs(fit_rate_series(t, m, se).rate - 4.0) < 0.4
    # quarter-turn detector phase switches the decay off entirely: every
    # trajectory keeps C = 1 to machine precision
    quarter = with_phase_rotation(s, np.pi / 2)
    recs = run_ensemble_qsd("homodyne", quarter, 0.8, 400, dt=0.0025, seed=109,
                            record_grid=0.025)
    c = np.array([r.concurrences for r in recs])
    assert np.max(np.abs(c - 1.0)) < 1e-12


def test_no_channels_matches_jump_engine():
    # no channel means no noise to draw: both kinds keep C = 1 under a local
    # H0 or none, as the jump engine does
    h0 = np.kron(SIGMA_Z, ID2) + 0.3 * np.kron(ID2, SIGMA_X)
    for s in (scenario_from_channels([]), scenario_from_channels([], h0=h0)):
        want = np.array([r.concurrences for r in run_ensemble(s, 1.0, 4)])
        assert np.max(np.abs(want - 1.0)) < 1e-12
        for kind in ("homodyne", "heterodyne"):
            got = np.array([r.concurrences
                            for r in run_ensemble_qsd(kind, s, 1.0, 4)])
            assert np.max(np.abs(got - want)) < 1e-12, kind


def test_worker_count_invisible():
    s = preset_photon_counting(1.0, 1.0)
    for kind in ("homodyne", "heterodyne"):
        one = run_ensemble_qsd(kind, s, 0.5, 600, dt=0.005, seed=113,
                               record_grid=0.05, keep_states=True, workers=1)
        two = run_ensemble_qsd(kind, s, 0.5, 600, dt=0.005, seed=113,
                               record_grid=0.05, keep_states=True, workers=2)
        assert len(one) == len(two) == 600
        for k, (ra, rb) in enumerate(zip(one, two)):
            assert ra.index == rb.index == k
            assert ra.seed == rb.seed == 113
            assert np.array_equal(ra.concurrences, rb.concurrences)
            assert np.array_equal(ra.states, rb.states)


def test_streamed_noise_is_independent_of_block_boundaries():
    # a 512-row batch draws its noise in blocks of _NOISE_VALUES normals, a
    # single trajectory in one block: the horizon spans several blocks of the
    # batch, so trajectory k sees the same increments only if every block
    # continues its own substream in draw order
    s = preset_photon_counting(1.0, 0.6)
    n_steps = 800                                    # t_max 2, dt 0.0025
    for kind, per_step in (("homodyne", 2), ("heterodyne", 4)):
        assert 512 * n_steps * per_step >= 3 * _NOISE_VALUES
        recs = run_ensemble_qsd(kind, s, 2.0, 600, dt=0.0025, seed=127,
                                record_grid=0.05, keep_states=True)
        for k in (0, 300, 511, 512, 599):
            one = run_trajectory_qsd(kind, s, 2.0, dt=0.0025, seed=127,
                                     index=k, record_grid=0.05,
                                     keep_states=True)
            assert np.max(np.abs(recs[k].states - one.states)) < 1e-10
            assert np.max(np.abs(recs[k].concurrences
                                 - one.concurrences)) < 1e-10


def test_kernel_steps_rows_in_blocks_of_512(monkeypatch):
    # a call of 1100 rows is stepped 512, 512 and 76 rows at a time, so it
    # equals three calls of those sizes bit for bit
    blocks = []

    def step_rows(*args):
        blocks.append(len(args[5]))
        step(*args)

    step = diffusion._step_rows
    monkeypatch.setattr(diffusion, "_step_rows", step_rows)
    kernel = batch_kernel_qsd("heterodyne", preset_photon_counting(1.0, 0.6),
                              0.2, dt=0.005, record_grid=0.05,
                              keep_states=True)
    times, conc, states, clicks = kernel(23, range(1100))
    assert blocks == [512, 512, 76]
    parts = [kernel(23, range(i, j))
             for i, j in ((0, 512), (512, 1024), (1024, 1100))]
    assert clicks is None
    assert np.array_equal(times, parts[0][0])
    assert np.array_equal(conc, np.concatenate([p[1] for p in parts]))
    assert np.array_equal(states, np.concatenate([p[2] for p in parts]))


def test_memory_independent_of_t_max():
    # the default grid keeps 101 record points, so only the horizon grows
    s = preset_photon_counting(1.0, 1.0)
    peaks = []
    for t_max in (3.0, 12.0):
        tracemalloc.start()
        try:
            run_ensemble_qsd("heterodyne", s, t_max, 64, dt=0.0025, seed=131)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_scenario_and_step_validation():
    s = preset_photon_counting(1.0, 1.0)
    rotating = with_heterodyne(s, 0.5, 3.0)
    with pytest.raises(ValueError, match="static"):
        run_trajectory_qsd("homodyne", rotating, 1.0, dt=0.005)
    with pytest.raises(StepSizeError):
        run_trajectory_qsd("homodyne", s, 1.0, dt=0.02, record_grid=0.1)
    with pytest.raises(ValueError, match="kind"):
        run_trajectory_qsd("photon", s, 1.0, dt=0.005)
    with pytest.raises(ValueError):
        run_ensemble_qsd("homodyne", s, 1.0, 0)
    # each is found when the kernel is built, before any kernel call
    with pytest.raises(ValueError, match="static"):
        batch_kernel_qsd("homodyne", rotating, 1.0, 0.005)
    with pytest.raises(StepSizeError):
        batch_kernel_qsd("homodyne", s, 1.0, 0.02, 0.1)
    with pytest.raises(ValueError, match="kind"):
        batch_kernel_qsd("photon", s, 1.0, 0.005)


def test_tiny_step_is_rejected_by_name():
    # grid / dt overflows for the smallest subnormal, and a 1e-300 step asks
    # for ~1e299 steps per record interval: both are named errors, not an
    # OverflowError or a run that never ends
    s = preset_photon_counting(1.0, 1.0)
    for dt in (5e-324, 1e-300):
        with pytest.raises(ValueError, match="fit in int64"):
            diffusion._grid(s, 1.0, dt, 0.1)
        with pytest.raises(ValueError, match="fit in int64"):
            batch_kernel_qsd("heterodyne", s, 1.0, dt, 0.1)
