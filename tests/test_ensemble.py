"""Ensemble substreams, drivers, reduction and rate fitting."""

import concurrent.futures
import functools
import multiprocessing
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from trajent import ensemble
from trajent.config import load_scenario
from trajent.diffusion import batch_kernel_qsd, run_ensemble_qsd
from trajent.ensemble import (Substreams, TrajectoryRecord, average,
                              fit_rate, fit_rate_series, run_average,
                              run_batches, run_records)
from trajent.errors import ConfigError, FitWindowError, NumericalError
from trajent.linalg import SIGMA_MINUS
from trajent.models import (JumpChannel, bell_state, lift,
                            preset_photon_counting, scenario_from_channels,
                            with_homodyne_shift)
from trajent.quantum_jump import batch_kernel, run_ensemble

from _oracles import trajectory_rng


def _record(times, conc, states=None, index=0):
    return TrajectoryRecord(seed=0, index=index,
                            times=np.asarray(times, dtype=float),
                            concurrences=np.asarray(conc, dtype=float),
                            states=states)


def test_substreams_read_exactly_what_trajectory_rng_gives():
    # the array reader against numpy's own Generator, with no tolerance:
    # one- and multi-word seeds, among them seeds of more words than the
    # 4-word pool, which numpy mixes in after the pool and before the key,
    # one- and two-word spawn keys, and rows drawn in a scattered, uneven
    # order across calls
    indices = [0, 511, 512, 5999, 2**32 + 5]
    order = [[0, 1, 2, 3, 4], [4, 1], [3], [4, 0, 3], [1, 4], [4, 2], [4]]
    for seed in (0, 7, 2**32 + 3, 2**70 + 11, 2**128, 2**200 + 3):
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


def test_substreams_raw_words_are_random_raw():
    # raw reads of every row, continued across calls and after uniforms,
    # equal numpy's own PCG64.random_raw bit for bit
    indices = [0, 3, 512, 2**32 + 5]
    for seed in (0, 2601, 2**70 + 11):
        reader = Substreams(seed, indices)
        first = reader.raw(5)
        reader.random(np.array([1, 3]))
        rest = reader.raw(70)
        assert first.dtype == rest.dtype == np.uint64
        assert first.shape == (5, 4) and rest.shape == (70, 4)
        for col, k in enumerate(indices):
            bits = trajectory_rng(seed, k).bit_generator
            assert np.array_equal(first[:, col], bits.random_raw(5))
            if col in (1, 3):  # the uniform read one word
                bits.random_raw(1)
            assert np.array_equal(rest[:, col], bits.random_raw(70))
        assert reader.raw(0).shape == (0, 4)


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


def _engines(keep_states=False):
    """Each engine's kernel and its records path, on the same scenario; the
    streamed jump kernels let rows with a qubit in a basis state leave the
    click loop (photon counting and thermal_bell), the records keep every
    click.  The rank-one channel |u><+| leaves such states too, but its
    H_eff is not diagonal, so its later records are not exactly 0 and its
    rows stay."""
    s = preset_photon_counting(1.0, 0.6)
    thermal = load_scenario("thermal_bell")
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    rank_one = scenario_from_channels(
        (JumpChannel("u+", lift("A", np.outer([1.0, 0.0], plus)), 1.0),
         JumpChannel("d", lift("B", SIGMA_MINUS), 0.7)), bell_state())
    return {
        "qj": (batch_kernel(s, 1.0, 0.05, keep_states),
               lambda n: run_ensemble(s, 1.0, n, seed=17, record_grid=0.05)),
        "qj-thermal": (batch_kernel(thermal, 1.0, 0.05, keep_states),
                       lambda n: run_ensemble(thermal, 1.0, n, seed=17,
                                              record_grid=0.05)),
        "qj-rank-one": (batch_kernel(rank_one, 1.0, 0.05, keep_states),
                        lambda n: run_ensemble(rank_one, 1.0, n, seed=17,
                                               record_grid=0.05)),
        "qsd": (batch_kernel_qsd("heterodyne", s, 1.0, 0.005, 0.05,
                                 keep_states),
                lambda n: run_ensemble_qsd("heterodyne", s, 1.0, n, dt=0.005,
                                           seed=17, record_grid=0.05)),
    }


@pytest.mark.parametrize("engine", ["qj", "qj-thermal", "qj-rank-one", "qsd"])
def test_streamed_average_equals_average_of_records(engine):
    # 1100 trajectories are batches of 512, 512 and 76; `average` reduces
    # the records in the same blocks, by the same formula and merge order
    kernel, records = _engines()[engine]
    for n in (1100, 300, 1):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = run_average(kernel, 17, n, 1)
        want = average(records(n))
        assert got.n_traj == want.n_traj == n
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.mean_c, want.mean_c)
        assert np.array_equal(got.stderr, want.stderr)
        assert got.empirical_rho is None
        if n > 512:
            assert np.all(got.stderr[1:] > 0)
            two = run_average(kernel, 17, n, 2)
            assert np.array_equal(got.mean_c, two.mean_c)
            assert np.array_equal(got.stderr, two.stderr)
    assert np.all(got.stderr == 0.0)                       # n == 1


@pytest.mark.parametrize("engine", ["qj", "qj-thermal", "qsd"])
def test_streamed_average_keeps_the_empirical_density(engine):
    # a kernel that keeps states: each batch also reduces to its projector
    # sum, so `run_average` gives empirical_rho with no records, bit for bit
    # that of `average` at any worker count
    kernel = _engines(keep_states=True)[engine][0]
    want = average(run_records(kernel, 17, 1100, 1))
    assert want.empirical_rho.shape == (len(want.times), 4, 4)
    for workers in (1, 2):
        got = run_average(kernel, 17, 1100, workers)
        assert got.n_traj == 1100
        for name in ("times", "mean_c", "stderr", "empirical_rho"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                (name, workers)


def test_streamed_memory_independent_of_n_traj():
    # the records path holds every trajectory's row (3x here); the streamed
    # path holds one kernel call, of at most span rows, at a time
    span = ensemble._CALL_ROWS
    kernel = batch_kernel(preset_photon_counting(1.0, 1.0), 1.0)
    peaks = []
    for n in (span, 3 * span):
        tracemalloc.start()
        try:
            run_average(kernel, 3, n, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_pool_holds_at_most_workers_processes(monkeypatch):
    # 20 kernel calls of span rows over 3 workers, on an in-process stand-in
    # for the process pool: the caller computes calls 0, 3, 6, ... itself,
    # and a pool of 2 gets the others
    span = ensemble._CALL_ROWS
    sizes, submitted, calls = [], [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args[3] // span)
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    def kernel(seed, indices):
        calls.append((indices[0] // span, len(indices)))
        return np.zeros(1), np.ones((len(indices), 1)), None, None

    monkeypatch.setattr(ensemble.concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    summary = run_average(kernel, 0, 20 * span, 3)
    assert sizes == [2]
    assert sorted(calls) == [(i, span) for i in range(20)]
    assert submitted == [i for i in range(20) if i % 3]
    assert summary.n_traj == 20 * span
    assert np.array_equal(summary.mean_c, [1.0])


def _same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert (ra.seed, ra.index) == (rb.seed, rb.index)
        for name in ("times", "concurrences", "states", "click_times"):
            x, y = getattr(ra, name), getattr(rb, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert ra.click_channels.tolist() == rb.click_channels.tolist()


def _same_summaries(a, b):
    assert a.n_traj == b.n_traj
    for name in ("times", "mean_c", "stderr", "empirical_rho"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@pytest.mark.parametrize("method,workers", [("fork", 2), ("fork", 3),
                                            ("spawn", 2)])
def test_pooled_results_byte_identical(monkeypatch, method, workers):
    # a pooled call's arrays come back through a file: records and summaries
    # equal a one-process run byte for byte, for both engines, also when the
    # workers start as fresh interpreters (spawn, the macOS default)
    monkeypatch.setattr(
        ensemble.concurrent.futures, "ProcessPoolExecutor",
        functools.partial(concurrent.futures.ProcessPoolExecutor,
                          mp_context=multiprocessing.get_context(method)))
    s = with_homodyne_shift(preset_photon_counting(1.0, 1.0), [1, 1])
    for kernel in (batch_kernel(s, 0.5, 0.05, keep_states=True,
                                keep_clicks=True),
                   batch_kernel_qsd("heterodyne", s, 0.5, 0.005, 0.05,
                                    keep_states=True)):
        _same_records(run_records(kernel, 23, 1100, workers),
                      run_records(kernel, 23, 1100, 1))
        _same_summaries(run_average(kernel, 23, 1100, workers),
                        run_average(kernel, 23, 1100, 1))


def test_pooled_records_hold_one_copy():
    # the caller reads a pooled call's file into one buffer whose views are
    # the records' arrays, so its peak stays near a one-process run's; with
    # the arrays pickled through the result pipe it read 1.4x
    kernel = batch_kernel(preset_photon_counting(1.0, 1.0), 1.0, 0.02,
                          keep_states=True, keep_clicks=True)
    peaks = []
    for workers in (1, 2):
        tracemalloc.start()
        try:
            run_records(kernel, 3, 1024, workers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def _stub_kernel(seed, indices):
    """Ones, or an error for the call that starts at row ``seed``."""
    if indices[0] == seed:
        raise NumericalError(f"no rows from {seed}")
    return np.zeros(2), np.ones((len(indices), 2)), None, None


def test_pooled_calls_leave_no_file(monkeypatch, tmp_path):
    # calls 1 and 3 of four go to the pool; each call's file is unlinked
    # when the caller reads it, and the run's directory goes with the run,
    # also when a pooled kernel raises, whose error reaches the caller
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    span = ensemble._CALL_ROWS
    for i, _ in enumerate(run_batches(_stub_kernel, -1, 4 * span, 2)):
        call = i * ensemble._BATCH // span
        [run] = tmp_path.iterdir()
        assert all(int(f.name) > call for f in run.iterdir())
    assert not any(tmp_path.iterdir())
    assert run_average(_stub_kernel, -1, 4 * span, 2).n_traj == 4 * span
    assert len(run_records(_stub_kernel, -1, 4 * span, 2)) == 4 * span
    assert not any(tmp_path.iterdir())
    with pytest.raises(NumericalError, match=f"no rows from {span}"):
        run_records(_stub_kernel, span, 4 * span, 2)
    assert not any(tmp_path.iterdir())


def test_one_process_makes_no_directory(monkeypatch):
    # one worker, or one call, starts no pool and so needs no directory
    def refuse():
        raise AssertionError("a temporary directory was made")

    monkeypatch.setattr(tempfile, "TemporaryDirectory", refuse)
    assert run_average(_stub_kernel, -1, 3000, 1).n_traj == 3000
    assert len(run_records(_stub_kernel, -1, 500, 4)) == 500


def test_unwritable_call_file_is_a_config_error(tmp_path):
    # a worker that cannot write its call's file names it (a directory that
    # cannot be made: tests/test_cli.py)
    gone = tmp_path / "gone"
    with pytest.raises(ConfigError, match=f"cannot write {gone}/1: No such"):
        ensemble._pooled_chunk(_stub_kernel, ensemble._keep, -1, 0, 10,
                               str(gone), 1)


def test_progress_eta_counts_the_rows_computed(caplog):
    # one kernel call computes all 1100 rows before its three batches are
    # logged, so no time is left after the first
    def kernel(seed, indices):
        time.sleep(0.05)
        return np.zeros(1), np.ones((len(indices), 1)), None, None

    caplog.set_level("INFO", logger="trajent")
    run_average(kernel, 0, 1100, 1)
    lines = [r.getMessage() for r in caplog.records if r.name == "trajent"]
    assert [line.split()[1] for line in lines] == ["512/1100", "1024/1100",
                                                   "1100/1100"]
    assert all(line.endswith("ETA 0.00 s") for line in lines)


@pytest.mark.parametrize("workers", [0, -2])
def test_drivers_reject_workers_below_one(workers):
    s = preset_photon_counting(1.0, 1.0)
    with pytest.raises(ValueError, match="workers"):
        run_ensemble(s, 1.0, 10, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_ensemble_qsd("homodyne", s, 1.0, 10, dt=0.005, workers=workers)
    with pytest.raises(ValueError, match="workers"):
        run_average(batch_kernel(s, 1.0), 0, 10, workers)


def _random_records(n, g, seed):
    """n records of g random unit states and concurrences."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((n, g, 4, 2)).view(complex)[..., 0]
    states /= np.linalg.norm(states, axis=2, keepdims=True)
    t = np.linspace(0.0, 1.0, g)
    return [_record(t, rng.random(g), states=psi, index=k)
            for k, psi in enumerate(states)]


def test_average_memory_independent_of_n_traj():
    # the records are reduced a batch of rows at a time, with no stack of
    # all of them
    n = 2 * ensemble._BATCH
    recs = _random_records(3 * n, 21, 5)
    peaks = []
    for m in (n, 3 * n):
        tracemalloc.start()
        try:
            average(recs[:m])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0]


def test_empirical_density_equals_one_matmul():
    # 1100 states are blocks of 512, 512 and 76 rows; the merged block sums
    # equal one sum over all rows to rounding
    recs = _random_records(1100, 7, 9)
    states = np.stack([r.states for r in recs], axis=1)         # (G, N, 4)
    want = states.transpose(0, 2, 1) @ np.conjugate(states) / len(recs)
    rho = average(recs).empirical_rho
    assert np.max(np.abs(rho - want)) < 1e-15


def test_empirical_density_by_hand():
    t = np.array([0.0, 1.0])
    uu = np.zeros((2, 4), dtype=complex)
    uu[:, 0] = 1.0
    dd = np.zeros((2, 4), dtype=complex)
    dd[:, 3] = 1.0
    recs = [_record(t, [0.0, 0.0], states=uu),
            _record(t, [0.0, 0.0], states=dd, index=1)]
    rho = average(recs).empirical_rho
    assert rho.shape == (2, 4, 4)
    want = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert np.max(np.abs(rho - want[None])) < 1e-15
    # a record without states leaves the ensemble without a density
    assert average([recs[0], _record(t, [0.0, 0.0], index=2)]
                   ).empirical_rho is None


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
