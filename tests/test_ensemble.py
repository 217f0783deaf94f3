"""Ensemble substreams, drivers, reduction and rate fitting."""

import tracemalloc
import warnings

import numpy as np
import pytest

from trajent.diffusion import batch_kernel_qsd, run_ensemble_qsd
from trajent.ensemble import (Substreams, TrajectoryRecord, average,
                              empirical_density, fit_rate, fit_rate_series,
                              run_average, trajectory_rng)
from trajent.errors import FitWindowError
from trajent.models import preset_photon_counting
from trajent.quantum_jump import batch_kernel, run_ensemble


def _record(times, conc, states=None, index=0):
    return TrajectoryRecord(seed=0, index=index,
                            times=np.asarray(times, dtype=float),
                            concurrences=np.asarray(conc, dtype=float),
                            states=states)


def test_substreams_read_exactly_what_trajectory_rng_gives():
    # the array reader against numpy's own Generator, with no tolerance:
    # one- and multi-word seeds, one- and two-word spawn keys, and rows drawn
    # in a scattered, uneven order across calls
    indices = [0, 511, 512, 5999, 2**32 + 5]
    order = [[0, 1, 2, 3, 4], [4, 1], [3], [4, 0, 3], [1, 4], [4, 2], [4]]
    for seed in (0, 7, 2**32 + 3, 2**70 + 11):
        reader = Substreams(seed, indices)
        got = [[] for _ in indices]
        for rows in order:
            for row, u in zip(rows, reader.random(np.array(rows))):
                got[row].append(u)
        for k, drawn in zip(indices, got):
            want = trajectory_rng(seed, k).random(len(drawn))
            assert np.array_equal(np.array(drawn), want), (seed, k)
    # as SeedSequence, a negative seed or index is an error
    for seed, indices in ((-1, [0]), (3, [2, -1])):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.SeedSequence(seed, spawn_key=(min(indices),))
        with pytest.raises(ValueError, match="non-negative"):
            Substreams(seed, indices)


def test_average_recovers_mean_and_stderr():
    t = np.array([0.0, 0.5, 1.0])
    recs = [_record(t, [1.0, 0.8, 0.2], index=0),
            _record(t, [1.0, 0.4, 0.0], index=1),
            _record(t, [1.0, 0.6, 0.4], index=2)]
    s = average(recs)
    assert s.n_traj == 3
    assert np.allclose(s.mean_c, [1.0, 0.6, 0.2])
    want_se = np.array([0.0, 0.2, 0.2]) / np.sqrt(3)
    assert np.allclose(s.stderr, want_se, atol=1e-15)
    assert s.empirical_rho is None


def test_single_trajectory_stderr_is_zero():
    s = average([_record([0.0, 1.0], [1.0, 0.5])])
    assert np.all(s.stderr == 0.0)


def test_average_rejects_bad_input():
    with pytest.raises(ValueError):
        average([])
    a = _record([0.0, 1.0], [1.0, 0.5])
    b = _record([0.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="grid"):
        average([a, b])


def _engines():
    """Each engine's kernel and its records path, on the same scenario."""
    s = preset_photon_counting(1.0, 0.6)
    return {
        "qj": (batch_kernel(s, 1.0, 0.05),
               lambda n: run_ensemble(s, 1.0, n, seed=17, record_grid=0.05)),
        "qsd": (batch_kernel_qsd("heterodyne", s, 1.0, 0.005, 0.05),
                lambda n: run_ensemble_qsd("heterodyne", s, 1.0, n, dt=0.005,
                                           seed=17, record_grid=0.05)),
    }


@pytest.mark.parametrize("engine", ["qj", "qsd"])
def test_streamed_average_equals_average_of_records(engine):
    # 1100 trajectories are batches of 512, 512 and 76: the moments of the
    # short last batch are merged by the pairwise update, and the batch sums
    # add in another order than one sum over all rows, so agreement is to
    # rounding; one batch reduces exactly as `average` does
    kernel, records = _engines()[engine]
    for n in (1100, 300, 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_average(kernel, 17, n, 1)
        want = average(records(n))
        assert got.n_traj == want.n_traj == n
        assert np.array_equal(got.times, want.times)
        if n > 512:
            assert np.max(np.abs(got.mean_c - want.mean_c)) < 1e-12
            assert np.max(np.abs(got.stderr - want.stderr)) < 1e-12
            assert np.all(got.stderr[1:] > 0)
            two = run_average(kernel, 17, n, 2)
            assert np.array_equal(got.mean_c, two.mean_c)
            assert np.array_equal(got.stderr, two.stderr)
        else:
            assert np.array_equal(got.mean_c, want.mean_c)
            assert np.array_equal(got.stderr, want.stderr)
    assert np.all(got.stderr == 0.0)                       # n == 1


def test_streamed_memory_independent_of_n_traj():
    # the records path holds every trajectory's row (6x here); the streamed
    # path holds one batch at a time
    kernel = batch_kernel(preset_photon_counting(1.0, 1.0), 1.0)
    peaks = []
    for n in (600, 6000):
        tracemalloc.start()
        try:
            run_average(kernel, 3, n, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_empirical_density_by_hand():
    t = np.array([0.0, 1.0])
    uu = np.zeros((2, 4), dtype=complex)
    uu[:, 0] = 1.0
    dd = np.zeros((2, 4), dtype=complex)
    dd[:, 3] = 1.0
    recs = [_record(t, [0.0, 0.0], states=uu),
            _record(t, [0.0, 0.0], states=dd, index=1)]
    rho = empirical_density(recs)
    assert rho.shape == (2, 4, 4)
    want = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert np.max(np.abs(rho - want[None])) < 1e-15
    assert np.max(np.abs(average(recs).empirical_rho - rho)) == 0.0
    with pytest.raises(ValueError, match="keep_states"):
        empirical_density([recs[0], _record(t, [0.0, 0.0], index=2)])


def test_fit_exact_exponential():
    t = np.linspace(0.0, 2.0, 41)
    fit = fit_rate_series(t, 0.7 * np.exp(-1.3 * t))
    assert abs(fit.rate - 1.3) < 1e-10
    assert abs(fit.c0 - 0.7) < 1e-10
    assert fit.n_points == 41
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.window == (0.0, 2.0)


def test_fit_window_stops_where_signal_drowns():
    t = np.linspace(0.0, 2.0, 21)
    mean = np.exp(-2.0 * t)
    se = np.full_like(mean, 0.004)
    # mean/5 drops below 0.004 once e^{-2t} < 0.02, i.e. past t ~ 1.956
    fit = fit_rate_series(t, mean, se)
    assert fit.n_points == 20
    assert fit.window[1] == t[19]
    assert abs(fit.rate - 2.0) < 1e-9


def test_fit_window_error():
    t = np.linspace(0.0, 2.0, 21)
    mean = np.exp(-2.0 * t)
    noisy = np.full_like(mean, 0.2)          # only a few significant points
    with pytest.raises(FitWindowError, match="not enough signal"):
        fit_rate_series(t, mean, noisy)
    with pytest.raises(FitWindowError):
        fit_rate_series(t[:5], mean[:5], None)   # shorter than min_points
    fit = fit_rate_series(t, mean, None)          # exact: no stderr given
    assert abs(fit.rate - 2.0) < 1e-10


def test_fit_weights_favor_tight_points():
    # two decades of decay with huge error bars on the tail: the weighted
    # slope should track the early, well-measured part
    t = np.linspace(0.0, 3.0, 31)
    mean = np.exp(-1.0 * t)
    mean[20:] *= 1.5                          # corrupt the tail
    se = np.full_like(mean, 1e-6)
    se[20:] = mean[20:] / 6.0                 # keep in window, low weight
    fit = fit_rate_series(t, mean, se)
    assert fit.n_points == 31
    assert abs(fit.rate - 1.0) < 0.01


def test_fit_input_validation_and_wrapper():
    with pytest.raises(ValueError, match="matching"):
        fit_rate_series(np.arange(4.0), np.ones(3))
    t = np.linspace(0.0, 1.0, 21)
    recs = [_record(t, np.exp(-0.5 * t), index=k) for k in range(3)]
    fit = fit_rate(average(recs))
    assert abs(fit.rate - 0.5) < 1e-10
