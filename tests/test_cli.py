"""Command-line workflows end to end: files in, files out, exit codes."""

import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from trajent.cli import main
from trajent.config import bundled_scenario_path, load_scenario
from trajent.diffusion import batch_kernel_qsd
from trajent.ensemble import run_average
from trajent.linalg import SIGMA_X, kron2
from trajent.lindblad import evolve_rho
from trajent.models import (lindblad_superoperator, preset_photon_counting,
                            preset_thermal, scenario_from_channels)
from trajent.rates import analytic_mean_concurrence

from _oracles import GEN_TOL, generator_deviation


def _write_config(tmp_path, name="photon_counting", params=None, initial=None):
    cfg = {"preset": name, "params": params or {"gamma_a": 1.0, "gamma_b": 1.0}}
    if initial is not None:
        cfg["initial_state"] = initial
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_simulate_writes_all_columns(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run.csv"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--tmax", "1.0",
               "--grid", "0.05", "--traj", "50", "--seed", "3"])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "mean_C", "stderr_C", "analytic_C", "C_rho"]
    assert len(rows) == 21
    t = np.array([float(r[0]) for r in rows])
    assert np.allclose(t, 0.05 * np.arange(21))
    mean = np.array([float(r[1]) for r in rows])
    ana = np.array([float(r[3]) for r in rows])
    assert abs(mean[0] - 1.0) < 1e-12
    assert np.allclose(ana, np.exp(-t), atol=1e-12)
    c_rho = np.array([float(r[4]) for r in rows])
    assert np.all(mean >= c_rho - 1e-9)          # averaging only loses order


def test_simulate_reproducible_bytes(tmp_path, monkeypatch):
    # 600 trajectories are two 512-wide batches, so --threads 2 starts a pool
    # of one process for the second; the calling process computes the first
    pools = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    cfg = _write_config(tmp_path)
    for extra in ([], ["--unraveling", "qsd-heterodyne", "--dt", "0.005"]):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out, threads in ((a, "1"), (b, "2")):
            rc = main(["simulate", "--config", cfg, "--out", str(out),
                       "--tmax", "0.5", "--traj", "600", "--seed", "11",
                       "--threads", threads] + extra)
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
    assert pools == [1, 1]


def test_simulate_unraveling_and_master_modes(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "qsd.csv"
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--tmax", "0.5",
               "--traj", "30", "--unraveling", "qsd-heterodyne",
               "--dt", "0.005"])
    assert rc == 0
    header, rows = _read_csv(out)
    assert all(r[1] != "" for r in rows)
    # the master equation has one route, `trajent master`, and simulate's
    # C_rho column is the same curve, string for string
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", cfg, "--tmax", "0.5",
              "--unraveling", "master"])
    assert exc.value.code == 2
    rho = tmp_path / "rho.csv"
    assert main(["master", "--config", cfg, "--out", str(rho),
                 "--tmax", "0.5"]) == 0
    assert header[4] == "C_rho" and _read_csv(rho)[0] == ["t", "C_rho"]
    assert [r[4] for r in rows] == [r[1] for r in _read_csv(rho)[1]]


def test_master_subcommand(tmp_path):
    out = tmp_path / "rho.csv"
    rc = main(["master", "--config", str(bundled_scenario_path("thermal_bell")),
               "--out", str(out), "--tmax", "2.0"])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "C_rho"]
    assert abs(float(rows[0][1]) - 1.0) < 1e-9
    assert float(rows[-1][1]) == 0.0             # sudden death has happened


def _csv_writer_rendering(header, columns):
    """The bytes csv.writer gives for ``.16e`` fields, a None column empty."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for i in range(len(columns[0])):
        w.writerow(["" if c is None else f"{c[i]:.16e}" for c in columns])
    return buf.getvalue().encode()


def test_csv_bytes_match_csv_writer(tmp_path):
    # more rows than one write's chunk, and simulate with an empty analytic_C
    # column (a common bath has no closed form under homodyne detection)
    s = load_scenario("common_bath_revival")
    evo = evolve_rho(s, 20.0, record_grid=0.02)
    rho = tmp_path / "rho.csv"
    assert main(["master", "--config", "common_bath_revival", "--tmax", "20",
                 "--grid", "0.02", "--out", str(rho)]) == 0
    assert rho.read_bytes() == _csv_writer_rendering(
        ["t", "C_rho"], [evo.times, evo.c_rho])

    evo = evolve_rho(s, 3.0, record_grid=0.01)
    summary = run_average(batch_kernel_qsd("homodyne", s, 3.0, None, 0.01),
                          4, 20, 1)
    assert analytic_mean_concurrence(s, "qsd-homodyne", evo.times) is None
    run = tmp_path / "run.csv"
    assert main(["simulate", "--config", "common_bath_revival", "--tmax", "3",
                 "--grid", "0.01", "--traj", "20", "--seed", "4",
                 "--unraveling", "qsd-homodyne", "--out", str(run)]) == 0
    assert run.read_bytes() == _csv_writer_rendering(
        ["t", "mean_C", "stderr_C", "analytic_C", "C_rho"],
        [summary.times, summary.mean_c, summary.stderr, None, evo.c_rho])


def test_rates_subcommand(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "rates.json"
    rc = main(["rates", "--config", cfg, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    for key in ("kappa_qj", "kappa_ho", "kappa_ho_opt", "kappa_het"):
        assert abs(data[key] - 1.0) < 1e-12
    rc = main(["rates", "--config",
               str(bundled_scenario_path("common_bath_single_excitation"))])
    assert rc == 2                               # joint channel: no local rates


def test_rates_refuse_a_coupling_h0(monkeypatch, capsys):
    # a scenario whose H0 couples the qubits has no closed-form rates
    coupled = scenario_from_channels(preset_photon_counting(1.0, 1.0).channels,
                                     h0=2.0 * kron2(SIGMA_X, SIGMA_X))
    monkeypatch.setattr("trajent.cli.load_scenario", lambda path: coupled)
    assert main(["rates", "--config", "thermal_bell"]) == 2
    assert "H0 couples the qubits" in capsys.readouterr().err


def test_rates_error_message(tmp_path, capsys):
    main(["rates", "--config", str(bundled_scenario_path("common_bath_single_excitation"))])
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "local" in err


def test_fit_roundtrip(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--tmax",
                 "1.0", "--grid", "0.01", "--traj", "400", "--seed", "5"]) == 0
    fit_out = tmp_path / "fit.json"
    rc = main(["fit", str(out), "--out", str(fit_out)])
    assert rc == 0
    data = json.loads(fit_out.read_text())
    assert abs(data["rate"] - 1.0) < 0.1
    assert data["n_points"] >= 10
    assert abs(data["rate_over_analytic"] - data["rate"]
               / data["analytic_rate"]) < 1e-12
    rc = main(["fit", str(out), "--column", "nope"])
    assert rc == 2


def test_fit_short_window_is_exit_3(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "short.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--tmax",
                 "1.0", "--grid", "0.25", "--traj", "20"]) == 0
    assert main(["fit", str(out)]) == 3


def test_optimize_subcommand(tmp_path):
    cfg = _write_config(tmp_path)
    out = tmp_path / "opt.json"
    rc = main(["optimize", "--config", cfg, "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert abs(data["achieved"] - 1.0) < 1e-12   # (gamma_a + gamma_b)/2
    assert abs(data["reference_balanced_mixing"] - 1.0) < 1e-12
    u = np.array(data["u_a"])                    # [[re, im], ...] rows
    assert u.shape == (2, 2, 2)
    assert np.max(np.abs(np.hypot(u[..., 0], u[..., 1]) - 1 / np.sqrt(2))) \
        < 1e-12                                  # balanced mixing
    deph = bundled_scenario_path("dephasing_phi0")
    assert main(["optimize", "--config", str(deph)]) == 2


def test_custom_thermal_channels_match_the_preset(tmp_path, capsys):
    # the same channels written out give the preset's rates and optimum, as
    # 2x2 local matrices or as 4x4 "joint" ones: locality is read from the
    # operators, so the joint twin also gets the preset's qj run, closed
    # form (analytic_C) included
    ref = load_scenario("thermal_bell")

    def pairs(m):
        return [[[z.real, z.imag] for z in row] for row in m]

    cfg = {"custom_channels": [{"id": ch.id, "locality": qubit,
                                "matrix": pairs(j), "rate": ch.rate}
                               for ch, (qubit, j) in zip(ref.channels,
                                                         ref.qubits[1])],
           "initial_state": pairs([ref.initial])[0]}
    twin = tmp_path / "twin.json"
    twin.write_text(json.dumps(cfg))
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps(dict(cfg, custom_channels=[
        {"id": ch.id, "locality": "joint", "matrix": pairs(ch.op),
         "rate": ch.rate} for ch in ref.channels])))
    simulate = ["simulate", "--unraveling", "qj", "--tmax", "2.0", "--grid",
                "0.1", "--traj", "200", "--seed", "5"]
    for command, configs in ((["rates"], (twin, joint)),
                             (["optimize"], (twin, joint)),
                             (simulate, (joint,))):
        docs = []
        for config in ("thermal_bell", *map(str, configs)):
            out = tmp_path / f"{command[0]}-{len(docs)}.out"
            assert main([*command, "--config", config, "--out",
                         str(out)]) == 0
            docs.append(out.read_bytes())
        assert all(d == docs[0] for d in docs[1:]), command[0]
    assert b",," not in docs[0]  # every analytic_C is there
    cfg["custom_channels"] = [{"id": "flip-A", "locality": "A",
                               "matrix": pairs(SIGMA_X), "rate": 1.0}]
    twin.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert main(["optimize", "--config", str(twin)]) == 2
    assert "thermal-type scenario" in capsys.readouterr().err


def test_zero_rate_common_bath_simulates(tmp_path):
    # a zero collective rate is a valid scenario, so simulate runs it (three
    # batches) and exits 0: nothing clicks, and the mean, the closed form and
    # C_rho all stay at the Bell state's C(0) = 1
    cfg = _write_config(tmp_path, "common_bath", params={"gamma": 0.0})
    out = tmp_path / "still.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--tmax",
                 "1.0", "--grid", "0.25", "--traj", "1100"]) == 0
    header, rows = _read_csv(out)
    cols = [header.index(c) for c in ("mean_C", "analytic_C", "C_rho")]
    values = np.array([[float(r[i]) for i in cols] for r in rows])
    assert values.shape == (5, 3)
    assert np.max(np.abs(values - 1.0)) < 1e-15


def test_phase_rotated_common_bath_gets_its_curve(tmp_path):
    # a detector phase on the collective channel, e^{-0.7i}(sigma_-^A +
    # sigma_-^B), monitors the same ensemble, so analytic_C is the bundled
    # revival run's, within the rounding of |e^{-0.7i}|^2
    revival = bundled_scenario_path("common_bath_revival")
    cfg = _write_config(tmp_path, "common_bath",
                        params={"gamma": 1.0, "phases": [0.7]},
                        initial=json.loads(revival.read_text())["initial_state"])
    columns = []
    for config in (cfg, str(revival)):
        out = tmp_path / "run.csv"
        assert main(["simulate", "--config", config, "--out", str(out),
                     "--unraveling", "qj", "--tmax", "1", "--grid",
                     "0.25"]) == 0
        header, rows = _read_csv(out)
        columns.append([r[header.index("analytic_C")] for r in rows])
    assert len(columns[0]) == 5 and all(columns[0])
    rotated, bundled = (np.array(c, dtype=float) for c in columns)
    assert np.max(np.abs(rotated - bundled)) <= 1e-15


def test_rotated_thermal_with_an_unmonitored_qubit(tmp_path):
    # a qubit whose two rates are 0 has zero channels at rate 0, as in the
    # thermal preset, so every command that reads the channels runs
    u = [[[0.6, 0.0], [0.8, 0.0]], [[-0.8, 0.0], [0.6, 0.0]]]
    cfg = _write_config(tmp_path, "rotated_thermal", params={
        "u_a": u, "u_b": u, "gamma_plus_a": 0.0, "gamma_minus_a": 0.0,
        "gamma_plus_b": 0.5, "gamma_minus_b": 1.5})
    for argv in (["rates"], ["optimize"],
                 ["simulate", "--unraveling", "qj", "--tmax", "1.0",
                  "--traj", "50"]):
        assert main([*argv, "--config", cfg, "--out", os.devnull]) == 0, argv
    assert generator_deviation(load_scenario(cfg),
                               preset_thermal(0.0, 0.0, 0.5, 1.5)) < GEN_TOL


def _exit_on_closed_stdout(unbuffered, tmax, grid, settle):
    """Exit code and stderr of `trajent master` on thermal_bell when the
    reader takes the header, waits ``settle`` seconds and closes the pipe."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered is not None:
        env["PYTHONUNBUFFERED"] = unbuffered
    with tempfile.TemporaryFile("w+") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-m", "trajent.cli", "master", "--config",
             "thermal_bell", "--tmax", tmax, "--grid", grid],
            stdout=subprocess.PIPE, stderr=stderr, env=env, bufsize=0)
        assert os.read(proc.stdout.fileno(), 8) == b"t,C_rho\n"
        time.sleep(settle)
        proc.stdout.close()
        code = proc.wait(timeout=120)
        stderr.seek(0)
        return code, stderr.read()


UNBUFFERED = pytest.mark.parametrize("unbuffered", ["1", None],
                                     ids=["unbuffered", "buffered"])


@UNBUFFERED
def test_closed_stdout_is_exit_1_without_traceback(unbuffered):
    # 40,001 CSV lines, far more than a pipe buffer holds, so writes fail
    # once the reader has closed its end.  Unbuffered, stdout writes through
    # to the pipe, where a long write cut short by the close is lost without
    # an error; the next write must still raise.
    code, err = _exit_on_closed_stdout(unbuffered, "20", "0.0005", 0.0)
    assert code == 1 and "Traceback" not in err


@UNBUFFERED
def test_closed_stdout_during_the_last_write_is_exit_1(unbuffered):
    # 1,501 lines (69 KB) just overfill a 64 KB pipe: after the pause the
    # writer is blocked on a full pipe, near the end of the table, when the
    # reader closes.  No later write would report a write cut short there, so
    # each must be one the pipe takes whole or fails.  A close before the
    # pipe fills fails the next write, so a slow start cannot fail this test.
    code, err = _exit_on_closed_stdout(unbuffered, "15", "0.01", 1.0)
    assert code == 1 and "Traceback" not in err


def test_unwritable_out_is_exit_2(tmp_path, monkeypatch, capsys):
    # every subcommand reports an --out it cannot open by name, no traceback,
    # before anything is computed, and without creating the file
    cfg = _write_config(tmp_path)
    run = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(run), "--tmax",
                 "1.0", "--grid", "0.01", "--traj", "50"]) == 0
    capsys.readouterr()

    def reached(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr("trajent.cli.run_average", reached)
    monkeypatch.setattr("trajent.cli.evolve_rho", reached)
    for bad, why in ((tmp_path / "missing" / "out", "No such file"),
                     (tmp_path, "Is a directory")):
        for argv in (["simulate", "--config", cfg, "--tmax", "1", "--traj",
                      "50"],
                     ["master", "--config", cfg, "--tmax", "1"],
                     ["rates", "--config", cfg],
                     ["fit", str(run)],
                     ["optimize", "--config", cfg]):
            assert main([*argv, "--out", str(bad)]) == 2, argv[0]
            assert capsys.readouterr().err.startswith(
                f"error: cannot write {bad}: {why}")
    assert not (tmp_path / "missing").exists()


def test_unusable_temp_directory_is_exit_2(tmp_path, monkeypatch, capsys):
    # --threads 2 over two kernel calls hands the second call's arrays back
    # through a file in a temporary directory; one that cannot be made is
    # one line and exit 2, and --threads 1 never looks for one
    cfg = _write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(tempfile, "tempdir", str(blocker))
    argv = ["simulate", "--config", cfg, "--tmax", "0.5", "--traj", "1100",
            "--out", str(tmp_path / "run.csv"), "--threads"]
    assert main([*argv, "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot make a temporary directory: ")
    assert f"{blocker}/" in err and err.count("\n") == 1
    assert main([*argv, "1"]) == 0


def _run_python(code, *args):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_tiny_dt_exits_2_without_traceback():
    # in a fresh process under a timeout, so a run that never ends fails
    for dt in ("5e-324", "1e-300"):
        out = _run_python("import sys; from trajent.cli import main; "
                          "sys.exit(main())", "simulate", "--config",
                          "thermal_bell", "--unraveling", "qsd-heterodyne",
                          "--dt", dt, "--tmax", "1", "--grid", "0.1")
        assert out.returncode == 2, out.stderr
        assert "fit in int64" in out.stderr
        assert "Traceback" not in out.stderr


def test_preconditions_fail_before_any_work(tmp_path, monkeypatch, capsys):
    # every engine check runs when its kernel is built, before the master
    # equation or any trajectory: a run that reaches evolve_rho fails here
    def reached(*args, **kwargs):
        raise AssertionError("evolve_rho ran before the engine's checks")

    monkeypatch.setattr("trajent.cli.evolve_rho", reached)
    rotating = _write_config(tmp_path, params={
        "gamma_a": 1.0, "gamma_b": 1.0, "heterodyne_amplitudes": [0.5],
        "heterodyne_frequencies": [3.0]})
    for argv, named in (
            (["--config", "thermal_bell", "--unraveling", "qsd-heterodyne",
              "--dt", "0.02"], "reduce the diffusion step"),
            (["--config", rotating, "--unraveling", "qsd-homodyne"],
             "remove rotating displacements")):
        assert main(["simulate", *argv, "--tmax", "2", "--traj", "8"]) == 2
        assert named in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # scipy.linalg alone would add ~0.35 s and ~27 MB to every command
    out = _run_python("import trajent.cli, sys; print(any("
                      "m.split('.')[0] == 'scipy' for m in sys.modules))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


# what an import of each module must leave unloaded
UNLOADED = {
    "trajent": (),
    "trajent.lindblad": ("cli", "config", "diffusion", "quantum_jump",
                         "rates"),
    "trajent.quantum_jump": ("cli", "config", "diffusion", "lindblad",
                             "rates"),
}


@pytest.mark.parametrize("module, unloaded", UNLOADED.items(),
                         ids=list(UNLOADED))
def test_an_import_loads_only_its_closure(module, unloaded):
    # the package re-exports nothing, so a module loads the modules it
    # imports and no others; `import trajent` alone loads no submodule
    out = _run_python(f"import json, sys, {module}; print(json.dumps(["
                      "m for m in sys.modules if m.startswith('trajent.')]))")
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    if module == "trajent":
        assert loaded == []
    assert not {f"trajent.{m}" for m in unloaded} & set(loaded), loaded


def test_no_subcommand_loads_numpy_random():
    # numpy 2 imports numpy.random on first use, which costs milliseconds per
    # command; both engines read their substreams through Substreams
    code = ("import json, sys\n"
            "import numpy\n"
            "from trajent.cli import main\n"
            "loaded = ['numpy.random' in sys.modules]\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    main(argv)\n"
            "    loaded.append('numpy.random' in sys.modules)\n"
            "print(json.dumps(loaded))")
    bare = _run_python("import numpy, sys; "
                       "print('numpy.random' in sys.modules)")
    if bare.stdout.strip() != "False":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    small = ["--config", "thermal_bell", "--tmax", "0.5", "--grid", "0.05",
             "--out", os.devnull]
    argvs = [
        ["simulate", *small, "--traj", "20", "--unraveling", "qj"],
        ["master", *small],
        ["rates", "--config", "thermal_bell", "--out", os.devnull],
        ["optimize", "--config", "thermal_bell", "--out", os.devnull],
        ["simulate", *small, "--traj", "20", "--unraveling", "qsd-homodyne"],
        ["simulate", *small, "--traj", "20", "--unraveling",
         "qsd-heterodyne"],
    ]
    out = _run_python(code, json.dumps(argvs))
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == [False] * 7


def test_every_subcommand_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes any scipy import raise ImportError
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from trajent.cli import main\n"
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
    small = ["--config", "thermal_bell", "--tmax", "0.5", "--grid", "0.05"]
    argvs = [
        ["master", *small, "--out", str(tmp_path / "rho.csv")],
        ["rates", "--config", "thermal_bell"],
        ["optimize", "--config", "thermal_bell"],
        ["simulate", *small, "--traj", "20", "--unraveling", "qj",
         "--out", str(tmp_path / "qj.csv")],
        ["simulate", *small, "--traj", "20", "--unraveling",
         "qsd-heterodyne", "--dt", "0.005",
         "--out", str(tmp_path / "het.csv")],
    ]
    out = _run_python(code, json.dumps(argvs))
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [0] * len(argvs)


def test_config_and_argument_errors(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json"),
                 "--tmax", "1.0"]) == 2
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", cfg, "--tmax", "1.0",
                 "--grid", "2.0"]) == 2
    assert main(["simulate", "--config", cfg, "--tmax", "-1.0"]) == 2
    # a grid that does not divide tmax, or is zero, fails the one grid rule
    for grid in ("0.3", "0"):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     "5", "--grid", grid]) == 2
        assert main(["master", "--config", cfg, "--tmax", "1.0",
                     "--grid", grid]) == 2
    assert "record_grid" in capsys.readouterr().err
    # a horizon that is not finite, or has no finite number of record
    # intervals, is named for both engines
    for horizon, named in ((["inf", "--grid", "0.1"], "positive and finite"),
                           (["inf"], "positive and finite"),
                           (["1e300", "--grid", "1e-300"], "is not finite")):
        assert main(["simulate", "--config", cfg, "--tmax", *horizon,
                     "--traj", "5"]) == 2
        assert main(["master", "--config", cfg, "--tmax", *horizon]) == 2
        assert capsys.readouterr().err.count(named) == 2
    # a diffusion step above the step bound is a bad --dt, as one above the
    # record grid is: both are rejected before anything is computed
    for dt in ("0.05", "0.2"):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     "5", "--grid", "0.1", "--dt", dt, "--unraveling",
                     "qsd-homodyne"]) == 2
    err = capsys.readouterr().err
    assert "reduce the diffusion step" in err and "need 0 < dt" in err
    # fewer than one worker process is an error, not a serial run
    for threads in ("0", "-3"):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     "5", "--threads", threads]) == 2
    assert "--threads" in capsys.readouterr().err
    # fewer than one trajectory is named, whatever the unraveling
    for traj, unraveling in (("0", "qj"), ("-3", "qsd-homodyne")):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     traj, "--unraveling", unraveling]) == 2
        assert "--traj must be at least 1" in capsys.readouterr().err
    # a negative seed is named, whatever the unraveling
    for unraveling in ("qj", "qsd-homodyne"):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     "5", "--seed", "-1", "--unraveling", unraveling]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err
    # the jump engine has no time step to bound
    assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj", "5",
                 "--dt", "0.01", "--unraveling", "qj"]) == 2
    assert "--dt applies to the qsd unravelings only" in \
        capsys.readouterr().err
    # and `trajent master` has no --dt flag at all
    with pytest.raises(SystemExit) as exc:
        main(["master", "--config", cfg, "--tmax", "1.0", "--dt", "0.01"])
    assert exc.value.code == 2
    # the best mixing is closed-form, so the search knobs are gone
    for flag, value in (("--restarts", "4"), ("--seed", "1")):
        with pytest.raises(SystemExit) as exc:
            main(["optimize", "--config", cfg, flag, value])
        assert exc.value.code == 2
    # a rotating displacement without its -alpha partner makes K(t) oscillate
    lone = tmp_path / "lone.json"
    lone.write_text(json.dumps({"custom_channels": [
        {"id": "lone", "locality": "A",
         "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], "rate": 1.0,
         "shift": [0.5, 0], "het_freq": 3.0}]}))
    assert main(["simulate", "--config", str(lone), "--tmax", "1.0",
                 "--traj", "5"]) == 2
    assert "oscillates" in capsys.readouterr().err
    # a number where a list is expected is a configuration error naming the key
    scalar = _write_config(tmp_path, params={"gamma_a": 1.0, "gamma_b": 1.0,
                                             "phases": 0.5})
    assert main(["rates", "--config", scalar]) == 2
    assert "phases: expected a list" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad), "--tmax", "1.0"]) == 2
    with pytest.raises(SystemExit):
        main(["simulate", "--no-such-flag"])
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_log_env_smoke(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TRAJENT_LOG", "debug")
    cfg = _write_config(tmp_path)
    out = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--tmax",
                 "0.2", "--traj", "10"]) == 0
    assert out.exists()


def test_progress_logged_per_batch_at_info(tmp_path, monkeypatch, caplog):
    # 1100 trajectories in one process are three batches: 512, 512 and 76
    monkeypatch.delenv("TRAJENT_LOG", raising=False)
    cfg = _write_config(tmp_path)
    argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "run.csv"),
            "--tmax", "0.2", "--traj", "1100"]

    def progress():
        return [r for r in caplog.records
                if r.name == "trajent" and "trajectories" in r.getMessage()]

    assert main(argv) == 0
    assert progress() == []
    caplog.set_level("INFO", logger="trajent")
    assert main(argv) == 0
    lines = [r.getMessage() for r in progress()]
    assert len(lines) == 3
    assert [line.split()[1] for line in lines] == ["512/1100", "1024/1100",
                                                   "1100/1100"]
    assert all("elapsed" in line and "ETA" in line for line in lines)


def test_master_health_logged_at_info(tmp_path, caplog):
    # both commands that run the master equation report its smallest
    # eigenvalue and trace drift, the figures evolve_rho returns
    evo = evolve_rho(load_scenario("thermal_bell"), 1.0)
    want = (f"master equation min eigenvalue {evo.min_eigenvalue:.3e}, "
            f"max trace drift {evo.max_trace_drift:.3e}")
    caplog.set_level("INFO", logger="trajent")
    for argv in (["master"], ["simulate", "--traj", "20"]):
        caplog.clear()
        assert main([*argv, "--config", "thermal_bell", "--tmax", "1",
                     "--out", str(tmp_path / "run.csv")]) == 0
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "trajent" and r.levelname == "INFO"]
        assert f"{argv[0]}: {want}" in lines


def test_non_hermitian_master_states_are_exit_2(monkeypatch, capsys):
    # a generator that breaks rho = rho^dag fails the Hermiticity check of
    # the one Wootters pass in evolve_rho: ValueError, exit 2
    gen = lindblad_superoperator(load_scenario("thermal_bell")) \
        + 1e-6j * np.eye(16)
    monkeypatch.setattr("trajent.lindblad.lindblad_superoperator",
                        lambda _: gen)
    assert main(["master", "--config", "thermal_bell", "--tmax", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: density matrix 1 is not Hermitian: "
                          "max |rho - rho^dag| = ")


def test_simulate_builds_no_records(tmp_path, monkeypatch):
    from trajent import ensemble

    def no_records(*args, **kwargs):
        raise AssertionError("simulate built trajectory records")

    monkeypatch.setattr(ensemble, "_records", no_records)
    cfg = _write_config(tmp_path)
    for extra in (["--unraveling", "qj"],
                  ["--unraveling", "qsd-heterodyne", "--dt", "0.005"]):
        out = tmp_path / "run.csv"
        out.unlink(missing_ok=True)
        assert main(["simulate", "--config", cfg, "--out", str(out), "--tmax",
                     "0.5", "--traj", "600", "--seed", "3"] + extra) == 0
        header, rows = _read_csv(out)
        assert header[:3] == ["t", "mean_C", "stderr_C"] and len(rows) == 101
        assert all(r[1] and r[2] for r in rows)


def test_config_accepts_bundled_name(tmp_path):
    by_name, by_path = tmp_path / "name.json", tmp_path / "path.json"
    assert main(["rates", "--config", "thermal_bell", "--out",
                 str(by_name)]) == 0
    assert main(["rates", "--config",
                 str(bundled_scenario_path("thermal_bell")), "--out",
                 str(by_path)]) == 0
    assert by_name.read_bytes() == by_path.read_bytes()
    assert main(["rates", "--config", "photon_counting.json"]) == 0
    assert main(["rates", "--config", "no_such_scenario"]) == 2

