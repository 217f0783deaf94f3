"""Scenario file parsing: schema strictness, transforms, bundled files."""

import inspect
import json

import numpy as np
import pytest

from trajent.cli import main
from trajent.config import (
    _PRESETS, bundled_scenario_names, bundled_scenario_path, load_scenario,
    scenario_from_dict,
)
from trajent.errors import ConfigError
from trajent.linalg import SIGMA_X, SIGMA_Z
from trajent.models import (
    preset_common_bath, preset_dephasing, preset_photon_counting,
    preset_rotated_thermal, preset_thermal, with_homodyne_shift,
)

from _oracles import GEN_TOL, generator_deviation

S2 = 1 / np.sqrt(2)


def test_preset_roundtrip():
    s = scenario_from_dict({
        "preset": "photon_counting",
        "params": {"gamma_a": 1.0, "gamma_b": 0.5},
    })
    ref = preset_photon_counting(1.0, 0.5)
    assert [c.id for c in s.channels] == [c.id for c in ref.channels]
    assert np.allclose(s.initial, ref.initial)
    assert s.thermal_rates == (0.0, 1.0, 0.0, 0.5)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown top-level"):
        scenario_from_dict({"preset": "photon_counting",
                            "params": {"gamma_a": 1, "gamma_b": 1},
                            "tmax": 3.0})
    with pytest.raises(ConfigError, match="unknown parameter"):
        scenario_from_dict({"preset": "photon_counting",
                            "params": {"gamma_a": 1, "gamma_b": 1,
                                       "gamma_c": 1}})
    with pytest.raises(ConfigError, match="unknown preset"):
        scenario_from_dict({"preset": "laser", "params": {}})


def test_preset_or_custom_exactly_one():
    with pytest.raises(ConfigError, match="exactly one"):
        scenario_from_dict({})
    with pytest.raises(ConfigError, match="exactly one"):
        scenario_from_dict({
            "preset": "photon_counting",
            "params": {"gamma_a": 1, "gamma_b": 1},
            "custom_channels": [],
        })


def test_missing_parameter():
    with pytest.raises(ConfigError, match="missing parameter"):
        scenario_from_dict({"preset": "photon_counting",
                            "params": {"gamma_a": 1.0}})


def test_initial_state_parsing():
    doc = {
        "preset": "photon_counting",
        "params": {"gamma_a": 1.0, "gamma_b": 1.0},
        "initial_state": [[0, 0], [1, 0], [0, -2], [0, 0]],
    }
    with pytest.warns(UserWarning):  # norm sqrt(5) input is renormalized
        s = scenario_from_dict(doc)
    # the file's vector is kept as given; psi0, the start state of every
    # engine, is its one normalized copy
    assert np.array_equal(s.initial, [0, 1, -2j, 0])
    want = np.array([0, 1, -2j, 0]) / np.sqrt(5)
    assert np.max(np.abs(s.psi0 - want)) < 1e-12

    bad = dict(doc, initial_state=[[0, 0]] * 3)
    with pytest.raises(ConfigError, match="4"):
        scenario_from_dict(bad)
    zero = dict(doc, initial_state=[[0, 0]] * 4)
    with pytest.raises(ConfigError, match="zero vector"):
        scenario_from_dict(zero)


def test_initial_state_renormalization_warns():
    doc = {
        "preset": "photon_counting",
        "params": {"gamma_a": 1.0, "gamma_b": 1.0},
        "initial_state": [[1.01, 0], [0, 0], [0, 0], [0, 0]],
    }
    with pytest.warns(UserWarning, match="renormalizing"):
        s = scenario_from_dict(doc)
    assert np.array_equal(s.initial, [1.01, 0, 0, 0])
    assert abs(np.linalg.norm(s.psi0) - 1.0) < 1e-12


def test_transforms_applied_in_order():
    doc = {
        "preset": "photon_counting",
        "params": {"gamma_a": 1.0, "gamma_b": 1.0,
                   "phases": [0.5, 0.5],
                   "homodyne_shifts": [[0.8, 0.0], [0.8, 0.0]]},
    }
    s = scenario_from_dict(doc)
    assert len(s.channels) == 4  # each base channel split into +/- pair
    assert all(c.rate == 0.5 for c in s.channels)
    # phase was applied to the bare operator before displacement
    assert np.max(np.abs(s.channels[0].op
                         - np.exp(-0.5j) * np.array([[0, 0], [1, 0]]))) < 1e-14
    assert s.channels[0].shift_at(0.0) == 0.8
    ref = preset_photon_counting(1.0, 1.0)
    assert generator_deviation(s, ref) < GEN_TOL


def test_heterodyne_requires_both_keys():
    doc = {
        "preset": "photon_counting",
        "params": {"gamma_a": 1.0, "gamma_b": 1.0,
                   "heterodyne_amplitudes": [0.5, 0.5]},
    }
    with pytest.raises(ConfigError, match="together"):
        scenario_from_dict(doc)
    doc["params"]["heterodyne_frequencies"] = [3.0, 3.0]
    s = scenario_from_dict(doc)
    assert s.time_dependent
    assert len(s.channels) == 4


def test_custom_channels():
    doc = {
        "custom_channels": [
            {"id": "x", "locality": "A",
             "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], "rate": 2.0},
            {"id": "y", "locality": "B",
             "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "rate": 0.5},
        ],
    }
    s = scenario_from_dict(doc)
    assert [c.id for c in s.channels] == ["x", "y"]
    assert np.allclose(s.channels[0].op, [[0, 0], [1, 0]])
    assert s.channels[1].rate == 0.5

    with pytest.raises(ConfigError, match="unknown key"):
        scenario_from_dict({"custom_channels": [
            {"id": "x", "locality": "A", "matrix": [[[0, 0], [0, 0]]],
             "rate": 1.0, "color": "red"}]})
    # the scenario's own check names the source and every violation
    with pytest.raises(ConfigError, match=r"^bad\.json: invalid scenario:\n"
                       r"  channel 'x': rate -1\.0 is negative"):
        scenario_from_dict({"custom_channels": [
            {"id": "x", "locality": "A",
             "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], "rate": -1.0}]},
            source="bad.json")


def test_malformed_values():
    with pytest.raises(ConfigError, match="re, im"):
        scenario_from_dict({"preset": "photon_counting",
                            "params": {"gamma_a": 1, "gamma_b": 1},
                            "initial_state": [1, 0, 0, 0]})
    with pytest.raises(ConfigError, match="number"):
        scenario_from_dict({"preset": "photon_counting",
                            "params": {"gamma_a": "one", "gamma_b": 1}})
    # a number where a list is expected names the key instead of crashing
    dephasing = {"v_a": [1.0, 0.0, 0.0], "v_b": [0.0, 0.0, 1.0],
                 "gamma_a": 1.0, "gamma_b": 1.0}
    counting = {"gamma_a": 1.0, "gamma_b": 1.0,
                "heterodyne_amplitudes": [0.5], "heterodyne_frequencies": [3.0]}
    for preset, params, key in (("dephasing", dephasing, "v_a"),
                                ("dephasing", dephasing, "v_b"),
                                ("dephasing", dephasing, "phases"),
                                ("photon_counting", counting,
                                 "heterodyne_amplitudes"),
                                ("photon_counting", counting,
                                 "heterodyne_frequencies"),
                                ("photon_counting", counting,
                                 "homodyne_shifts")):
        with pytest.raises(ConfigError, match=f"{key}: expected a list"):
            scenario_from_dict({"preset": preset,
                                "params": dict(params, **{key: 1.0})})


def test_json_booleans_are_not_numbers(tmp_path, capsys):
    # true/false inside a [re, im] pair are rejected as in a plain number
    flip = {"id": "x", "locality": "A",
            "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], "rate": 1.0}
    docs = {
        "initial_state": {"preset": "photon_counting",
                          "params": {"gamma_a": 1, "gamma_b": 1},
                          "initial_state": [[True, 0], [0, 0], [0, 0],
                                            [0, False]]},
        "matrix": {"custom_channels": [
            dict(flip, matrix=[[[0, 0], [0, 0]], [[True, 0], [0, 0]]])]},
        "shift": {"custom_channels": [dict(flip, shift=[0.5, False])]},
    }
    for key, doc in docs.items():
        with pytest.raises(ConfigError, match=f"{key}.*expected a number"):
            scenario_from_dict(doc)
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(doc))
        assert main(["master", "--config", str(path), "--tmax", "1"]) == 2
        assert "expected a number" in capsys.readouterr().err
    # the same pairs with numbers load
    assert scenario_from_dict(dict(docs["initial_state"], initial_state=[
        [1, 0], [0, 0], [0, 0], [0, 0]])).initial[0] == 1.0


def test_load_scenario_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_scenario(bad)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({
        "preset": "dephasing",
        "params": {"v_a": [1.0, 0.0, 0.0], "v_b": [0.0, 0.0, 1.0],
                   "gamma_a": 0.5, "gamma_b": 0.5},
    }))
    s = load_scenario(path)
    assert [c.id for c in s.channels] == ["dephase-A", "dephase-B"]
    assert np.array_equal(s.channels[0].op, SIGMA_X)
    assert np.array_equal(s.channels[1].op, SIGMA_Z)


def test_bundled_scenarios_all_load():
    names = bundled_scenario_names()
    assert "photon_counting" in names
    assert "thermal_bell" in names
    assert "common_bath_single_excitation" in names
    assert len(names) == 8
    for name in names:
        load_scenario(bundled_scenario_path(name))


def test_preset_table_matches_builders():
    # a renamed builder argument must fail here, not crash the command line
    for name, (build, parsers) in _PRESETS.items():
        required = [p.name for p in inspect.signature(build).parameters.values()
                    if p.default is inspect.Parameter.empty]
        assert list(parsers) == required, name
    u_bal = [[S2, S2], [S2, -S2]]
    by_hand = {
        "common_bath_revival": preset_common_bath(1.0),
        "common_bath_single_excitation": preset_common_bath(1.0),
        "dephasing_phi0": preset_dephasing([S2, S2, 0.0], [S2, S2, 0.0],
                                           1.0, 1.0),
        "dephasing_phi_half_pi": preset_dephasing([S2, S2, 0.0],
                                                  [S2, S2, 0.0], 1.0, 1.0),
        "photon_counting": preset_photon_counting(1.0, 1.0),
        "photon_counting_shifted": with_homodyne_shift(
            preset_photon_counting(1.0, 1.0), [0.8, 0.8]),
        "thermal_bell": preset_thermal(1.0, 2.0, 1.0, 2.0),
        "thermal_optimal": preset_rotated_thermal(u_bal, u_bal,
                                                  1.0, 2.0, 1.0, 2.0),
    }
    assert sorted(by_hand) == bundled_scenario_names()
    for name, ref in by_hand.items():
        s = load_scenario(name)
        assert s.thermal_rates == ref.thermal_rates, name
        assert [c.id for c in s.channels] == [c.id for c in ref.channels]
        for c, r in zip(s.channels, ref.channels):
            assert np.array_equal(c.op, r.op), (name, c.id)
            assert (c.rate, c.shift) == (r.rate, r.shift), (name, c.id)


def test_bundled_scenario_path_rejects_unknown():
    with pytest.raises(ConfigError, match="available"):
        bundled_scenario_path("does_not_exist")


def test_bundled_thermal_matches_hand_construction():
    s = load_scenario(bundled_scenario_path("thermal_bell"))
    assert s.thermal_rates == (1.0, 2.0, 1.0, 2.0)
    want = np.array([1, 0, 0, -1j]) / np.sqrt(2)
    assert np.max(np.abs(s.initial - want)) < 1e-12


def test_unpaired_rotating_displacement_rejected(tmp_path):
    # J + alpha e^{i Omega t} without its -alpha partner makes K(t) oscillate;
    # both engines would silently use K(0)
    lone = {"id": "lone", "locality": "A",
            "matrix": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]], "rate": 1.0,
            "shift": [0.5, 0], "het_freq": 3.0}
    path = tmp_path / "lone.json"
    path.write_text(json.dumps({"custom_channels": [lone]}))
    with pytest.raises(ConfigError, match="oscillates"):
        load_scenario(path)
    partner = dict(lone, id="partner", shift=[-0.5, 0])
    s = scenario_from_dict({"custom_channels": [lone, partner]})
    assert s.time_dependent

