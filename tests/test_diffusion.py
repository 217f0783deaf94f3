"""Diffusive unraveling engine: two-point increments, the split step,
exact invariants and closed-form means.

Every statistical assertion is a 5 sigma bound: the increments' moments
against their exact values, and each resolved point of an ensemble mean
(mean >= 5 stderr) against `rates.analytic_mean_concurrence`.
"""

import tracemalloc

import numpy as np
import pytest

from trajent import diffusion
from trajent.config import bundled_scenario_path, load_scenario
from trajent.diffusion import (_BLOCK, _bytes, _tables, batch_kernel_qsd,
                               run_ensemble_qsd, run_trajectory_qsd)
from trajent.ensemble import Substreams, average, run_average
from trajent.errors import StepSizeError
from trajent.linalg import ID2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z
from trajent.models import (JumpChannel, lift, preset_dephasing,
                            preset_photon_counting, scenario_from_channels,
                            state_from_amplitudes, with_heterodyne,
                            with_phase_rotation)
from trajent.quantum_jump import run_ensemble
from trajent.rates import analytic_mean_concurrence

from _oracles import step_heterodyne, step_homodyne, step_signs

V_XY = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
SIGMA = 5.0


def _increments(het: bool, rates, h: float, seed: int, rows,
                n_steps: int) -> np.ndarray:
    """(n_steps, M, B) increments sqrt(gamma_m) dw_m or sqrt(gamma_m) d xi_m
    of trajectories ``rows``, read as the kernel reads them."""
    rates = np.asarray(rates, dtype=float)
    tables = _tables(het, np.sqrt(h / (2 if het else 1) * rates))
    per_step = len(tables)
    words = Substreams(seed, rows).raw(-(-n_steps * per_step // 8))
    signs = _bytes(words, n_steps, per_step)
    return np.concatenate([table[:, signs[:, j]]
                           for j, (_, table) in enumerate(tables)]
                          ).transpose(1, 0, 2)


def _resolved_z(s, kind, summ) -> np.ndarray:
    """(mean - closed form) / stderr at the points with mean >= 5 stderr."""
    want = analytic_mean_concurrence(s, "qsd-" + kind, summ.times)
    sel = (summ.stderr > 0) & (summ.mean_c >= SIGMA * summ.stderr)
    assert sel.sum() >= 10
    return (summ.mean_c - want)[sel] / summ.stderr[sel]


def test_real_increment_moments():
    # dw = +-sqrt(h): dw^2 = h to rounding, and the mean of n increments has
    # sigma sqrt(h / n), as has that of the cross products dw_1 dw_2 / sqrt(h)
    h, n_steps = 0.01, 500
    dw = _increments(False, [1.0, 1.0], h, 61, range(200), n_steps)
    n = n_steps * 200
    assert dw.shape == (n_steps, 2, 200)
    assert np.allclose(dw ** 2, h, rtol=1e-15, atol=0.0)
    assert np.max(np.abs(dw.mean(axis=(0, 2)))) < SIGMA * np.sqrt(h / n)
    cross = (dw[:, 0] * dw[:, 1]).mean()
    assert abs(cross) < SIGMA * h / np.sqrt(n)


def test_complex_increment_moments_and_order():
    # d xi = sqrt(h/2) (s' + i s''): |d xi|^2 = h to rounding, E d xi = 0 with
    # sigma sqrt(h / 2n) per part, and E d xi^2 = i h E[s' s''] = 0 with
    # sigma h / sqrt(n)
    h, n_steps = 0.01, 500
    dxi = _increments(True, [1.0, 1.0], h, 62, range(200), n_steps)
    n = n_steps * 200
    assert np.allclose(np.abs(dxi) ** 2, h, rtol=1e-15, atol=0.0)
    mean = dxi.mean(axis=(0, 2))
    assert np.max(np.abs(mean.view(float))) < SIGMA * np.sqrt(h / (2 * n))
    sq = (dxi ** 2).mean(axis=(0, 2))
    assert np.max(np.abs(sq.real)) < 1e-15 * h
    assert np.max(np.abs(sq.imag)) < SIGMA * h / np.sqrt(n)
    # the signs come from numpy's own random_raw words: step by step, channel
    # by channel, the real part's bit before the imaginary part's, each step
    # from a new byte; 5 heterodyne channels take 10 bits, two bytes a step
    rates = [1.0, 0.5, 2.0, 1.5, 0.25]
    for het, per in ((True, 2), (False, 1)):
        got = _increments(het, rates, h, 63, [7, 900], 70)
        for col, k in enumerate((7, 900)):
            s = step_signs(63, k, 70, per * len(rates))
            want = (s[:, 0::2] + 1j * s[:, 1::2] if het else s)
            scale = np.sqrt(h / per * np.array(rates))
            assert np.array_equal(got[:, :, col], scale * want)


def test_steppers_return_unit_norm():
    s = preset_photon_counting(1.0, 0.6)
    rng = np.random.default_rng(64)
    for _ in range(25):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        signs = rng.choice([-1.0, 1.0], 4)
        for stepper in (step_homodyne, step_heterodyne):
            out = stepper(psi, s, 0.005, signs)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def _five_channels():
    """Five static channels, one joint: heterodyne reads two bytes a step."""
    joint = np.kron(SIGMA_MINUS, ID2) + 0.5 * np.kron(ID2, SIGMA_MINUS)
    return scenario_from_channels(
        [JumpChannel("minus-A", lift("A", SIGMA_MINUS), 1.0),
         JumpChannel("plus-A", lift("A", SIGMA_PLUS), 0.4),
         JumpChannel("minus-B", lift("B", SIGMA_MINUS), 0.8),
         JumpChannel("z-B", lift("B", SIGMA_Z), 0.3),
         JumpChannel("joint", joint, 0.5)],
        h0=0.7 * np.kron(SIGMA_X, SIGMA_X),
        initial=state_from_amplitudes(0.6, 0.2j, -0.3, 0.7))


def test_reference_stepper_matches_batch():
    # the loop-form split step with E from scipy's expm, reading the signs
    # from numpy's own words, against the batch kernel's states; a detector
    # phase gives complex J and a local H0 a complex E, which the kernel
    # applies as a second real matmul by the imaginary part
    pc = preset_photon_counting(1.0, 0.6)
    rotated = with_phase_rotation(pc, 0.3)
    driven = scenario_from_channels(pc.channels,
                                    h0=0.7 * np.kron(SIGMA_Z, ID2))
    for s in (pc, _five_channels(), rotated, driven):
        m_ch = len(s.channels)
        for kind, stepper, per in (("homodyne", step_homodyne, 1),
                                   ("heterodyne", step_heterodyne, 2)):
            # every array the step multiplies by is real: no complex GEMM
            step = batch_kernel_qsd(kind, s, 0.5, 0.005).args[0]
            assert all(a.dtype == np.float64
                       for op in (step.ops, step.prop_ops, *step.jumps)
                       for a in op if a is not None)
            rec = run_trajectory_qsd(kind, s, 0.5, dt=0.005, seed=71,
                                     index=2, record_grid=0.05,
                                     keep_states=True)
            signs = step_signs(71, 2, 100, per * m_ch)
            psi = s.psi0
            states = [psi]
            for k in range(100):
                psi = stepper(psi, s, 0.005, signs[k])
                states.append(psi)
            for k in range(11):
                assert np.allclose(states[10 * k], rec.states[k],
                                   atol=1e-12), (kind, m_ch, k)
    # the imaginary parts are there, so the second matmuls ran
    step = batch_kernel_qsd("homodyne", rotated, 0.5, 0.005).args[0]
    assert step.ops[1] is not None and step.jumps[0][1] is not None
    step = batch_kernel_qsd("homodyne", driven, 0.5, 0.005).args[0]
    assert step.ops[1] is None and step.prop_ops[1] is not None


def test_homodyne_decay_rate():
    # C0 e^{-kappa_ho t} at every resolved point, N = 400, 5 sigma
    s = preset_photon_counting(1.0, 1.0)
    summ = average(run_ensemble_qsd("homodyne", s, 1.5, 400, dt=0.005,
                                    seed=101, record_grid=0.05))
    assert np.max(np.abs(_resolved_z(s, "homodyne", summ))) <= SIGMA


def test_heterodyne_decay_rate():
    # C0 e^{-kappa_het t} at every resolved point, N = 400, 5 sigma
    s = preset_photon_counting(1.0, 1.0)
    summ = average(run_ensemble_qsd("heterodyne", s, 1.5, 400, dt=0.005,
                                    seed=103, record_grid=0.05))
    assert np.max(np.abs(_resolved_z(s, "heterodyne", summ))) <= SIGMA


def test_dephasing_phase_steers_decay():
    psi = state_from_amplitudes(1, 0, 0, -1j) / np.sqrt(2)
    s = preset_dephasing(V_XY, V_XY, 1.0, 1.0, initial=psi)
    summ = average(run_ensemble_qsd("homodyne", s, 0.8, 400, dt=0.0025,
                                    seed=107, record_grid=0.025))
    assert np.max(np.abs(_resolved_z(s, "homodyne", summ))) <= SIGMA
    # quarter-turn detector phase switches the decay off entirely: every
    # trajectory keeps C = 1 to machine precision
    quarter = with_phase_rotation(s, np.pi / 2)
    recs = run_ensemble_qsd("homodyne", quarter, 0.8, 400, dt=0.0025, seed=109,
                            record_grid=0.025)
    c = np.array([r.concurrences for r in recs])
    assert np.max(np.abs(c - 1.0)) < 1e-12


@pytest.mark.parametrize("name", ["thermal_bell", "thermal_optimal"])
@pytest.mark.parametrize("kind", ["homodyne", "heterodyne"])
def test_thermal_mean_within_5_sigma_of_closed_form(name, kind):
    # N = 4000, T = 3, 31 points, dt at the step bound (h gamma_max = 0.01);
    # the Euler-Maruyama step read 55 to 84 sigma here
    s = load_scenario(bundled_scenario_path(name))
    summ = run_average(batch_kernel_qsd(kind, s, 3.0, 0.005, 0.1), 5, 4000,
                       1)
    assert np.max(np.abs(_resolved_z(s, kind, summ))) <= SIGMA


@pytest.mark.parametrize("kind", ["homodyne", "heterodyne"])
def test_product_start_stays_a_product(kind):
    # local channels keep a product state a product state: every factor of
    # the split step, and E, act on each qubit alone; the Euler-Maruyama
    # step reached C = 0.94 (homodyne) and 0.47 here
    s = load_scenario(bundled_scenario_path("thermal_bell"))
    s = s.with_initial(np.kron([0.6, 0.8j], [1.0, 1.0]))
    _, conc, _, _ = batch_kernel_qsd(kind, s, 6.0, 0.0025, 0.06)(0, range(256))
    assert np.max(conc) <= 1e-13


@pytest.mark.parametrize("kind", ["homodyne", "heterodyne"])
def test_single_excitation_vanishes_at_t0(kind):
    # collective decay from c_ud |ud> + c_du |du>: the split step moves the
    # ratio of the triplet and singlet amplitudes deterministically, so every
    # trajectory reaches c = 0 at t0 = ln|c+ / c-| / gamma = ln 3, the 20th
    # record point, as the jump engine does
    s = load_scenario(bundled_scenario_path("common_bath_single_excitation"))
    t0 = np.log(3.0)
    times, conc, _, _ = batch_kernel_qsd(kind, s, 2 * t0, None,
                                         t0 / 20)(3, range(512))
    assert times[20] == pytest.approx(t0, abs=1e-15)
    assert np.max(conc[:, 20]) <= 1e-12
    # the zero is a crossing at t0: every trajectory is entangled at the
    # record points on either side (min 8e-4 here)
    assert np.min(conc[:, [19, 21]]) > 1e-4


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
    # a row block reads its words _BLOCK steps at a time: the horizon spans
    # several blocks, so trajectory k sees the same increments in a batch of
    # 600 and alone only if every block continues its own substream
    s = preset_photon_counting(1.0, 0.6)
    n_steps = 1200                                   # t_max 3, dt 0.0025
    assert n_steps > 2 * _BLOCK
    for kind in ("homodyne", "heterodyne"):
        recs = run_ensemble_qsd(kind, s, 3.0, 600, dt=0.0025, seed=127,
                                record_grid=0.05, keep_states=True)
        for k in (0, 300, 511, 512, 599):
            one = run_trajectory_qsd(kind, s, 3.0, dt=0.0025, seed=127,
                                     index=k, record_grid=0.05,
                                     keep_states=True)
            assert np.max(np.abs(recs[k].states - one.states)) < 1e-10
            assert np.max(np.abs(recs[k].concurrences
                                 - one.concurrences)) < 1e-10


def test_block_rule_stays_within_the_threading_bound():
    # B is the largest power of two whose widest real product,
    # (4 + 4M, 4) @ (4, 2B), is at most 262,144 multiply-adds
    assert [diffusion._rows(m) for m in (1, 4, 8, 16)] == [4096, 1024, 512,
                                                           256]
    for m_ch in range(1, 17):
        b = diffusion._rows(m_ch)
        assert b & (b - 1) == 0
        assert (4 + 4 * m_ch) * 4 * 2 * b <= 262_144 < \
            (4 + 4 * m_ch) * 4 * 2 * (2 * b)


@pytest.mark.parametrize("name", ["photon_counting", "thermal_bell"])
def test_kernel_steps_rows_in_blocks_by_the_rule(monkeypatch, name):
    # M = 2 and M = 4 give blocks of 2048 and 1024 rows: a call of two
    # blocks and 76 rows is stepped in those three parts, so it equals
    # three calls of those sizes bit for bit
    s = load_scenario(bundled_scenario_path(name))
    rows = diffusion._rows(len(s.channels))
    assert rows == {2: 2048, 4: 1024}[len(s.channels)]
    blocks = []

    def step_rows(*args):
        blocks.append(len(args[4]))
        step(*args)

    step = diffusion._step_rows
    monkeypatch.setattr(diffusion, "_step_rows", step_rows)
    kernel = batch_kernel_qsd("heterodyne", s, 0.2, dt=0.005,
                              record_grid=0.05, keep_states=True)
    n = 2 * rows + 76
    times, conc, states, clicks = kernel(23, range(n))
    assert blocks == [rows, rows, 76]
    parts = [kernel(23, range(i, j))
             for i, j in ((0, rows), (rows, 2 * rows), (2 * rows, n))]
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
