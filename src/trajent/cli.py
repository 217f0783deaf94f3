"""Command-line front end.

Subcommands
-----------
simulate   trajectory ensemble of a scenario file, with the ensemble
           (master-equation) curve and the closed-form mean alongside
master     master-equation evolution only, exact on the record grid
rates      closed-form decay rates of a scenario, as JSON
fit        exponential rate fit of a previously written CSV
optimize   best channel mixing when the channels are thermal baths, as JSON

Exit codes: 0 success, 1 stdout closed before the output was written,
2 configuration error, 3 numerical failure.  The environment variable
TRAJENT_LOG selects the log level (DEBUG, INFO, ...).

CSV output carries columns t, mean_C, stderr_C, analytic_C, C_rho with '.'
as decimal separator and 17 significant digits; identical configuration and
seed reproduce byte-identical files regardless of --threads.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import errno
import json
import logging
import os
import select
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import bundled_scenario_names, load_scenario
from .diffusion import batch_kernel_qsd
from .ensemble import fit_rate_series, run_average
from .errors import ConfigError, NumericalError
from .lindblad import evolve_rho
from .quantum_jump import batch_kernel
from .rates import (UNRAVELINGS, analytic_mean_concurrence,
                    optimize_unraveling, rate_report)

log = logging.getLogger("trajent")

# A pipe takes a write of at most PIPE_BUF bytes whole or fails it; a longer
# one that a closing reader cuts short loses its tail without an error where
# stdout writes through to the pipe (PYTHONUNBUFFERED)
_PIPE_BUF = getattr(select, "PIPE_BUF", 512)


def _setup_logging() -> None:
    level = os.environ.get("TRAJENT_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write(out_path: str | None, text: str) -> None:
    """Write ASCII ``text`` to ``--out`` in writes of at most `_PIPE_BUF`
    bytes."""
    with _output(out_path) as stream:
        for k in range(0, len(text), _PIPE_BUF):
            stream.write(text[k:k + _PIPE_BUF])


def _write_csv(out_path: str | None, header: list[str],
               columns: list[np.ndarray | None]) -> None:
    """One CSV row per record point: each column's ``.16e`` value, or an
    empty field for a None column."""
    line = ",".join("" if c is None else "{:.16e}" for c in columns) + "\n"
    values = [c.tolist() for c in columns if c is not None]
    _write(out_path, ",".join(header) + "\n"
           + "".join(map(line.format, *values)))


def _write_json(doc, out_path: str | None) -> None:
    _write(out_path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _check_out(path: str | None) -> None:
    """Name an ``--out`` that cannot be written before anything is computed,
    without creating or truncating it; `_output` reports what this misses."""
    if path is None or path == "-":
        return
    out = Path(path)
    if out.is_dir():
        code = errno.EISDIR
    elif not out.parent.is_dir():
        code = errno.ENOENT
    elif not os.access(out if out.exists() else out.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


@contextlib.contextmanager
def _output(path: str | None):
    """The ``--out`` stream: stdout for None or '-', else the named file."""
    if path is None or path == "-":
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe fails here, inside `main`
        return
    try:
        stream = open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    with stream:
        yield stream


def _log_health(command: str, evo) -> None:
    log.info("%s: master equation min eigenvalue %.3e, max trace drift "
             "%.3e", command, evo.min_eigenvalue, evo.max_trace_drift)


def cmd_simulate(args) -> int:
    unraveling = args.unraveling
    if unraveling == "qj" and args.dt is not None:
        raise ConfigError("--dt applies to the qsd unravelings only; the "
                          "qj engine is exact and takes no time step")
    if args.threads < 1:
        raise ConfigError("--threads must be at least 1")
    if args.seed < 0:
        raise ConfigError("--seed must be non-negative")
    if args.traj < 1:
        raise ConfigError("--traj must be at least 1")
    s = load_scenario(args.config)
    t_max, grid = args.tmax, args.grid
    t0 = time.perf_counter()
    # the kernel checks its engine's preconditions before anything runs
    if unraveling == "qj":
        kernel = batch_kernel(s, t_max, grid)
    else:
        kernel = batch_kernel_qsd(unraveling.split("-", 1)[1], s, t_max,
                                  args.dt, grid)
    evo = evolve_rho(s, t_max, record_grid=grid)
    log.info("simulate: %s unraveling=%s traj=%d tmax=%g grid=%g seed=%d",
             args.config, unraveling, args.traj, t_max, evo.times[1],
             args.seed)
    _log_health("simulate", evo)
    summary = run_average(kernel, args.seed, args.traj, args.threads)
    times, mean, stderr = summary.times, summary.mean_c, summary.stderr
    analytic = analytic_mean_concurrence(s, unraveling, times)
    log.info("simulate: done in %.2f s", time.perf_counter() - t0)

    _write_csv(args.out, ["t", "mean_C", "stderr_C", "analytic_C", "C_rho"],
               [times, mean, stderr, analytic, evo.c_rho])
    return 0


def cmd_master(args) -> int:
    s = load_scenario(args.config)
    evo = evolve_rho(s, args.tmax, record_grid=args.grid)
    _log_health("master", evo)
    _write_csv(args.out, ["t", "C_rho"], [evo.times, evo.c_rho])
    return 0


def cmd_rates(args) -> int:
    report = rate_report(load_scenario(args.config))
    _write_json(dataclasses.asdict(report), args.out)
    return 0


def cmd_fit(args) -> int:
    path = Path(args.csv)
    try:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    col = args.column
    if col not in rows[0]:
        raise ConfigError(f"{path}: no column {col!r}; have "
                          f"{sorted(rows[0])}")

    def column(name):
        vals = [r.get(name, "") for r in rows]
        if any(v == "" or v is None for v in vals):
            return None
        return np.array([float(v) for v in vals])

    t = column("t")
    y = column(col)
    if t is None or y is None:
        raise ConfigError(f"{path}: column 't' or {col!r} has gaps")
    stderr = column("stderr_C") if col == "mean_C" else None

    fit = fit_rate_series(t, y, stderr)
    doc = {"column": col, **dataclasses.asdict(fit)}
    analytic = column("analytic_C")
    if analytic is not None and col != "analytic_C":
        ref = fit_rate_series(t, analytic)
        doc["analytic_rate"] = ref.rate
        doc["rate_over_analytic"] = fit.rate / ref.rate if ref.rate != 0 \
            else None
    _write_json(doc, args.out)
    return 0


def cmd_optimize(args) -> int:
    s = load_scenario(args.config)
    opt = optimize_unraveling(s)
    doc = {
        "achieved": opt.achieved,
        "reference_balanced_mixing": opt.reference,
        "u_a": [[[z.real, z.imag] for z in row] for row in opt.u_a],
        "u_b": [[[z.real, z.imag] for z in row] for row in opt.u_b],
        "detector_phases_a": list(opt.phases_a),
        "detector_phases_b": list(opt.phases_b),
        "thermal_rates": list(s.thermal_rates),
    }
    _write_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="trajent",
        description="Trajectory unravelings and entanglement decay of two "
                    "monitored qubits.",
        epilog="Bundled scenarios: " + ", ".join(bundled_scenario_names()))
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True,
                        help="scenario description file (JSON) or the name "
                             "of a bundled scenario")
        sp.add_argument("--out", default=None,
                        help="output path ('-' or omitted for stdout)")

    sp = sub.add_parser("simulate", help="run a trajectory ensemble")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--dt", type=float, default=None,
                    help="split-step upper bound for the qsd "
                         "unravelings only (default: automatic); an error "
                         "with qj, whose click times are exact")
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--grid", type=float, default=None,
                    help="recording grid spacing (default tmax/100)")
    sp.add_argument("--traj", type=int, default=1000)
    sp.add_argument("--threads", type=int, default=1,
                    help="worker processes for the ensemble")
    sp.add_argument("--unraveling", choices=UNRAVELINGS, default="qj")
    sp.set_defaults(fn=cmd_simulate)

    sp = sub.add_parser("master", help="master-equation evolution only, "
                        "solved exactly by one matrix exponential (no time "
                        "step)")
    common(sp)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--grid", type=float, default=None,
                    help="recording grid spacing (default tmax/100)")
    sp.set_defaults(fn=cmd_master)

    sp = sub.add_parser("rates", help="closed-form decay rates as JSON")
    common(sp)
    sp.set_defaults(fn=cmd_rates)

    sp = sub.add_parser(
        "fit", help="fit a decay rate to a simulate CSV",
        description="Fit mean_C ~ c0 exp(-rate t) over the leading points "
        "with mean_C > 5 stderr_C.  rate_stderr treats the grid points as "
        "independent; they average the same trajectories, so it understates "
        "the seed-to-seed spread of the rate (about fivefold in the README "
        "example).")
    sp.add_argument("csv", help="CSV file written by 'simulate'")
    sp.add_argument("--column", default="mean_C")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_fit)

    sp = sub.add_parser("optimize", help="best channel mixing when the "
                        "channels, preset or custom, are thermal baths")
    common(sp)
    sp.set_defaults(fn=cmd_optimize)

    return p


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at os.devnull, as the signal
        # module's documentation advises, so the final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
