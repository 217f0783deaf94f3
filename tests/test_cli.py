"""Command-line workflows end to end: files in, files out, exit codes."""

import concurrent.futures
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trajent.cli import main
from trajent.config import bundled_scenario_path


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
    rc = main(["simulate", "--config", cfg, "--out", str(out), "--tmax", "0.5",
               "--unraveling", "master"])
    assert rc == 0
    header, rows = _read_csv(out)
    assert all(r[1] == "" and r[2] == "" for r in rows)   # no ensemble columns
    assert all(r[4] != "" for r in rows)


def test_master_subcommand(tmp_path):
    out = tmp_path / "rho.csv"
    rc = main(["master", "--config", str(bundled_scenario_path("thermal_bell")),
               "--out", str(out), "--tmax", "2.0"])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header == ["t", "C_rho"]
    assert abs(float(rows[0][1]) - 1.0) < 1e-9
    assert float(rows[-1][1]) == 0.0             # sudden death has happened


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


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    # every subcommand reports an --out it cannot open by name, no traceback
    cfg = _write_config(tmp_path)
    run = tmp_path / "run.csv"
    assert main(["simulate", "--config", cfg, "--out", str(run), "--tmax",
                 "1.0", "--grid", "0.01", "--traj", "50"]) == 0
    capsys.readouterr()
    bad = str(tmp_path / "missing" / "out")
    for argv in (["simulate", "--config", cfg, "--tmax", "1", "--traj", "50"],
                 ["master", "--config", cfg, "--tmax", "1"],
                 ["rates", "--config", cfg],
                 ["fit", str(run)],
                 ["optimize", "--config", cfg]):
        assert main([*argv, "--out", bad]) == 2, argv[0]
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {bad}: ")


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


def test_only_qsd_loads_numpy_random():
    # numpy 2 imports numpy.random on first use, which costs milliseconds per
    # command; the jump engine reads its substreams through Substreams
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
    ]
    out = _run_python(code, json.dumps(argvs))
    assert out.returncode == 0, out.stderr
    # only the last command, the QSD engine, draws from numpy Generators
    loaded = json.loads(out.stdout.strip().splitlines()[-1])
    assert loaded == [False] * 5 + [True]


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
    for traj, unraveling in (("0", "qj"), ("-3", "master")):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     traj, "--unraveling", unraveling]) == 2
        assert "--traj must be at least 1" in capsys.readouterr().err
    # a negative seed is named, for the trajectory engines and the master one
    for unraveling in ("qj", "master"):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     "5", "--seed", "-1", "--unraveling", unraveling]) == 2
        assert "--seed must be non-negative" in capsys.readouterr().err
    # neither the jump engine nor the master equation has a time step to bound
    for unraveling in ("qj", "master"):
        assert main(["simulate", "--config", cfg, "--tmax", "1.0", "--traj",
                     "5", "--dt", "0.01", "--unraveling", unraveling]) == 2
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

