"""Correctness checks on the outputs of one repetition, each with its bound.

Every check is one entry in the counts behind ``pass_ratio``.  The bounds:

* statistical checks are pointwise at 5 standard errors (``SIGMA``), with a
  1e-12 guard where the spread is zero.  The comparison of mean_C with the
  closed form uses only the points where mean_C >= 5 stderr_C, the window
  trajent's own rate fit uses: mean_C is a mean of non-negative values, so
  (mean/stderr)^2 is about the number of trajectories that carry it.  Late
  points are carried by a handful of trajectories, where the sample stderr
  is not a standard deviation of the mean (at N = 12000 on thermal_bell one
  such point read 7.3 "sigma" low with mean/stderr = 2.2);
* the master equation is compared with ``scipy.linalg.expm`` of trajent's
  16x16 Lindblad generator applied to rho0, to ``EXACT_TOL``; the
  concurrence of the reference is computed here with Wootters' formula, not
  with trajent's;
* ``trajent fit`` must recover the closed-form rate within ``FIT_TOL``
  relative; its own ``rate_stderr`` is not used (it treats time-correlated
  points as independent).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from workloads import n_records

SIGMA = 5.0
GUARD = 1e-12
EXACT_TOL = 1e-6
FIT_TOL = 0.05

_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SYSY = np.kron(_SY, _SY)


def wootters(rhos: np.ndarray) -> np.ndarray:
    """Concurrence of a stack of two-qubit density matrices, shape (G, 4, 4)."""
    r = rhos @ _SYSY @ np.conjugate(rhos) @ _SYSY
    ev = np.sort(np.clip(np.linalg.eigvals(r).real, 0.0, None), axis=-1)
    lam = np.sqrt(ev)[..., ::-1]
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3],
                   0.0, None)


class Reference:
    """Exact master-equation states of one scenario, cached per grid."""

    def __init__(self, scenario):
        from trajent.models import lindblad_superoperator
        self.gen = lindblad_superoperator(scenario)
        psi = scenario.initial / np.linalg.norm(scenario.initial)
        self.vec0 = np.outer(psi, np.conjugate(psi)).reshape(-1, order="F")
        self._cache: dict[tuple, np.ndarray] = {}

    def rhos(self, times: np.ndarray) -> np.ndarray:
        key = (times.size, float(times[-1]))
        if key not in self._cache:
            self._cache[key] = np.stack(
                [(expm(self.gen * t) @ self.vec0).reshape(4, 4, order="F")
                 for t in times])
        return self._cache[key]

    def concurrence(self, times: np.ndarray) -> np.ndarray:
        return wootters(self.rhos(times))


def _read_csv(path: Path, header: list[str], n_rows: int, grid: float) -> dict:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != header:
        raise ValueError(f"{path.name}: header {rows[0]} != {header}")
    if len(rows) - 1 != n_rows:
        raise ValueError(f"{path.name}: {len(rows) - 1} rows, want {n_rows}")
    data = np.array([[float(x) for x in r] for r in rows[1:]])
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: non-finite values")
    cols = {h: data[:, i] for i, h in enumerate(header)}
    if np.max(np.abs(np.diff(cols["t"]) - grid)) > 1e-9:
        raise ValueError(f"{path.name}: t is not on the grid {grid}")
    return cols


def _read_json(path: Path, keys: list[str]) -> dict:
    doc = json.loads(path.read_text())
    for k in keys:
        if not np.all(np.isfinite(np.asarray(doc[k], dtype=float))):
            raise ValueError(f"{path.name}: {k} is not finite")
    return doc


class Report:
    """Outcomes of the checks of one repetition, and what they measured."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []
        self.bias_sigma: float | None = None
        self.mean_stderr2: float | None = None

    def check(self, name: str, fn) -> None:
        """Record fn() -> (ok, detail); an exception is a failed check."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a broken output is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


def _above_rho(mean, stderr, c_rho):
    """The paper's inequality: the trajectory mean bounds C of the mean state."""
    z = (mean - c_rho) / np.where(stderr > 0, stderr, np.inf)
    ok = np.all(mean >= c_rho - SIGMA * stderr - GUARD)
    return ok, f"min (mean_C - C_rho)/stderr = {z.min():.2f}"


def _near_analytic(mean, stderr, analytic):
    sel = _resolved(mean, stderr)
    ok = np.all(np.abs(mean - analytic)[sel] <= SIGMA * stderr[sel] + GUARD)
    return ok, (f"max |mean_C - analytic_C|/stderr = "
                f"{_bias(mean, stderr, analytic):.2f} over {sel.sum()} points")


def _resolved(mean, stderr):
    """Grid points carried by at least ~25 trajectories (mean >= 5 stderr)."""
    return (stderr > 0) & (mean >= SIGMA * stderr)


def _bias(mean, stderr, analytic) -> float:
    sel = _resolved(mean, stderr)
    return float(np.max(np.abs(mean - analytic)[sel] / stderr[sel],
                        initial=0.0))


def _z(gap, sigma) -> float:
    pos = sigma > 0
    return float(np.max(np.abs(gap[pos]) / sigma[pos], initial=0.0))


def _exact(name, got, want):
    err = float(np.max(np.abs(got - want)))
    return err <= EXACT_TOL, f"max |{name} - expm reference| = {err:.2e}"


def _simulate_csv(rep: Report, d: Path, sz: dict, ref: Reference,
                  with_analytic: bool) -> None:
    cols = {}

    def read():
        cols.update(_read_csv(d / "simulate.csv",
                              ["t", "mean_C", "stderr_C", "analytic_C", "C_rho"],
                              n_records(sz),
                              sz["grid"]))
        return True, "finite, on the grid"
    rep.check("simulate.csv well-formed", read)
    if not cols:
        return
    mean, se, an = cols["mean_C"], cols["stderr_C"], cols["analytic_C"]
    rep.check("mean_C >= C_rho - 5 sigma", lambda: _above_rho(mean, se, cols["C_rho"]))
    rep.check("C_rho exact", lambda: _exact("C_rho", cols["C_rho"],
                                            ref.concurrence(cols["t"])))
    if with_analytic:
        rep.check("|mean_C - analytic_C| <= 5 sigma",
                  lambda: _near_analytic(mean, se, an))
    rep.bias_sigma = _bias(mean, se, an)
    rep.mean_stderr2 = float(np.mean(se ** 2))


def _rcs(rep: Report, rcs, names) -> None:
    for name, rc in zip(names, rcs):
        rep.check(f"{name} exit 0", lambda rc=rc: (rc == 0, f"exit {rc}"))


def check_qj_sparse(rep, d, sz, ctx, rcs):
    _rcs(rep, rcs, ["simulate", "fit"])
    _simulate_csv(rep, d, sz, ctx["thermal_bell"], with_analytic=True)

    def fit():
        doc = _read_json(d / "fit.json", ["rate", "rate_over_analytic"])
        r = doc["rate_over_analytic"]
        return abs(r - 1.0) <= FIT_TOL, f"rate_over_analytic = {r:.4f}"
    rep.check("fit rate within 5% of analytic", fit)


def check_qsd_het(rep, d, sz, ctx, rcs):
    _rcs(rep, rcs, ["simulate"])
    # the step bias is reported as bias_sigma, not gated
    _simulate_csv(rep, d, sz, ctx["thermal_bell"], with_analytic=False)


def check_master_opt(rep, d, sz, ctx, rcs):
    _rcs(rep, rcs, ["master", "rates", "optimize"])
    ref = ctx["thermal_bell"]
    out = {}

    def master():
        out.update(_read_csv(d / "master.csv", ["t", "C_rho"],
                             n_records(sz),
                             sz["grid"]))
        return True, "finite, on the grid"
    rep.check("master.csv well-formed", master)
    if out:
        rep.check("C_rho exact", lambda: _exact("C_rho", out["C_rho"],
                                                ref.concurrence(out["t"])))

    kappas = {}

    def rates():
        doc = _read_json(d / "rates.json", ["kappa_qj", "kappa_ho", "kappa_ho_opt",
                                            "kappa_het", "kappa_qj_opt_thermal"])
        kappas.update({k: v for k, v in doc.items() if k.startswith("kappa")})
        return all(v >= 0 for v in kappas.values()), "finite, non-negative"
    rep.check("rates.json well-formed", rates)

    def optimize():
        doc = _read_json(d / "optimize.json",
                         ["achieved", "reference_balanced_mixing", "thermal_rates"])
        gp_a, gm_a, gp_b, gm_b = doc["thermal_rates"]
        closed = 0.5 * ((np.sqrt(gm_a) - np.sqrt(gp_a)) ** 2
                        + (np.sqrt(gm_b) - np.sqrt(gp_b)) ** 2)
        kappas["optimize.achieved"] = doc["achieved"]
        gap = abs(doc["achieved"] - doc["reference_balanced_mixing"])
        ref_gap = abs(doc["reference_balanced_mixing"] - closed)
        return (gap <= EXACT_TOL and ref_gap <= EXACT_TOL,
                f"|achieved - reference| = {gap:.2e}, "
                f"|reference - closed form| = {ref_gap:.2e}")
    rep.check("optimize reaches balanced mixing", optimize)

    if out and kappas:
        def bound():
            # C0 exp(-kappa t) is the exact trajectory mean of each scheme
            t, c_rho = out["t"], out["C_rho"]
            c0 = c_rho[0]
            worst = min(float(np.min(c0 * np.exp(-k * t) - c_rho))
                        for k in kappas.values())
            return worst >= -EXACT_TOL, f"min (C0 e^-kappa t - C_rho) = {worst:.2e}"
        rep.check("closed-form means >= C_rho", bound)


def check_qj_dense_states(rep, d, sz, ctx, rcs):
    from trajent.rates import analytic_mean_concurrence
    _rcs(rep, rcs, ["pipeline"])
    out = {}

    def read():
        with np.load(d / "dense.npz") as z:
            out.update({k: z[k] for k in z.files})
        with np.load(d / "dense_sigma.npz") as z:
            out.update({k: z[k] for k in z.files})
        g = n_records(sz)
        shapes = {"times": (g,), "mean_c": (g,), "stderr": (g,),
                  "empirical_rho": (g, 4, 4), "master_rho": (g, 4, 4),
                  "c_rho": (g,)}
        for k, shape in shapes.items():
            if out[k].shape != shape or not np.all(np.isfinite(out[k])):
                return False, f"{k}: shape {out[k].shape} or non-finite"
        return True, "finite, expected shapes"
    rep.check("outputs well-formed", read)
    if not out:
        return
    s = ctx["dense"]
    ref = ctx["dense_ref"]
    t, mean, se = out["times"], out["mean_c"], out["stderr"]
    analytic = analytic_mean_concurrence(s, "qj", t)
    rep.check("mean_C >= C_rho - 5 sigma", lambda: _above_rho(mean, se, out["c_rho"]))
    rep.check("|mean_C - analytic_C| <= 5 sigma",
              lambda: _near_analytic(mean, se, analytic))
    rep.check("master rho exact", lambda: _exact("rho", out["master_rho"],
                                                 ref.rhos(t)))
    rep.check("C_rho exact", lambda: _exact("C_rho", out["c_rho"],
                                            ref.concurrence(t)))

    def density():
        gap = out["empirical_rho"] - out["master_rho"]
        ok = (np.all(np.abs(gap.real) <= SIGMA * out["sigma_re"] + GUARD)
              and np.all(np.abs(gap.imag) <= SIGMA * out["sigma_im"] + GUARD))
        z = max(_z(gap.real, out["sigma_re"]), _z(gap.imag, out["sigma_im"]))
        return ok, f"max |rho_emp - rho_master|/sigma = {z:.2f}"
    rep.check("empirical rho within 5 sigma of master rho", density)
    rep.bias_sigma = _bias(mean, se, analytic)
    rep.mean_stderr2 = float(np.mean(se ** 2))


CHECKS = {"qj_sparse": check_qj_sparse, "qj_dense_states": check_qj_dense_states,
          "qsd_het": check_qsd_het, "master_opt": check_master_opt}


def context(dense_scenario: Path | None) -> dict:
    """Scenarios and exact references the checks of a run need."""
    from trajent.config import bundled_scenario_path, load_scenario
    ctx = {"thermal_bell": Reference(load_scenario(
        bundled_scenario_path("thermal_bell")))}
    if dense_scenario is not None:
        ctx["dense"] = load_scenario(dense_scenario)
        ctx["dense_ref"] = Reference(ctx["dense"])
    return ctx
