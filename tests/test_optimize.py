"""Best channel mixing: the balanced mixing reaches the closed-form optimum."""

from dataclasses import replace

import numpy as np
import pytest

from trajent.linalg import SIGMA_Z, kron2
from trajent.models import preset_rotated_thermal, preset_thermal
from trajent.rates import kappa_opt_thermal, optimize_unraveling, rate_report


def _random_u2(rng):
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(z)
    return q


def test_balanced_mixing_is_optimal_over_random_unitaries():
    # oracle independent of optimize: kappa_qj of the mixed scenario itself
    rng = np.random.default_rng(51)
    for _ in range(60):
        g = rng.uniform(0.1, 3.0, 4)
        best = kappa_opt_thermal(*g)
        u_a, u_b = _random_u2(rng), _random_u2(rng)
        mixed = preset_rotated_thermal(u_a, u_b, *g)
        assert rate_report(mixed).kappa_qj >= best - 1e-12
        opt = optimize_unraveling(preset_thermal(*g))
        mixed = preset_rotated_thermal(opt.u_a, opt.u_b, *g)
        assert abs(rate_report(mixed).kappa_qj - opt.reference) < 1e-12


def test_recovers_thermal_optimum():
    opt = optimize_unraveling(preset_thermal(1.0, 2.0, 1.0, 2.0))
    assert abs(opt.reference - (3.0 - 2.0 * np.sqrt(2.0))) < 1e-12
    assert abs(opt.achieved - opt.reference) < 1e-12
    # the optimum is the balanced mixing: all moduli 1/sqrt(2)
    assert np.max(np.abs(np.abs(opt.u_a) - 1 / np.sqrt(2))) < 1e-12
    assert np.max(np.abs(np.abs(opt.u_b) - 1 / np.sqrt(2))) < 1e-12


def test_random_quadruples():
    rng = np.random.default_rng(52)
    for _ in range(6):
        g = rng.uniform(0.1, 3.0, 4)
        opt = optimize_unraveling(preset_thermal(*g))
        want = kappa_opt_thermal(*g)
        assert abs(opt.achieved - want) < 1e-12
        assert opt.achieved >= want - 1e-12  # closed form is a true lower bound


def test_zero_temperature():
    opt = optimize_unraveling(preset_thermal(0.0, 1.2, 0.0, 0.7))
    assert abs(opt.achieved - 0.95) < 1e-12  # (1.2 + 0.7)/2
    # with det J = 0 on every channel the phase convention is 0
    assert np.all((opt.phases_a >= 0) & (opt.phases_a < np.pi))


def test_unmonitored_qubit():
    # a qubit with no channels mixes zero operators: rate 0, phases 0
    opt = optimize_unraveling(preset_thermal(0.0, 0.0, 0.5, 1.5))
    want = kappa_opt_thermal(0.0, 0.0, 0.5, 1.5)
    assert opt.achieved == pytest.approx(want, abs=1e-15)
    assert np.array_equal(opt.phases_a, np.zeros(2))


def test_coupling_h0_is_refused():
    # thermal_rates does not read H0, but the mixed scenario goes through the
    # same refusals as rate_report, which has no closed form for it
    s = replace(preset_thermal(1.0, 2.0, 1.0, 2.0),
                h0=kron2(SIGMA_Z, SIGMA_Z))
    assert s.thermal_rates == (1.0, 2.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="couples the qubits"):
        optimize_unraveling(s)


def test_equal_temperature_protection():
    opt = optimize_unraveling(preset_thermal(0.9, 0.9, 0.4, 0.4))
    assert opt.reference == 0.0
    assert abs(opt.achieved) < 1e-12


def test_detector_phases_range():
    opt = optimize_unraveling(preset_thermal(0.5, 1.5, 0.5, 1.5))
    for ph in (opt.phases_a, opt.phases_b):
        assert ph.shape == (2,)
        assert np.all((ph >= 0) & (ph < np.pi))


def test_determinism_and_validation():
    a = optimize_unraveling(preset_thermal(1.0, 2.0, 0.5, 1.5))
    b = optimize_unraveling(preset_thermal(1.0, 2.0, 0.5, 1.5))
    assert a.achieved == b.achieved
    assert np.array_equal(a.u_a, b.u_a)
    with pytest.raises(ValueError):
        optimize_unraveling(preset_thermal(-1.0, 1.0, 1.0, 1.0))
