"""Scenario file parsing: schema strictness, transforms, bundled files."""

import inspect
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from trajent.cli import main
from trajent.config import (
    _PRESETS, bundled_scenario_names, bundled_scenario_path, load_scenario,
    scenario_from_dict,
)
from trajent.errors import ConfigError
from trajent.linalg import ID2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Z
from trajent.models import (
    COLLECTIVE_DECAY, lift, local_hamiltonian, preset_common_bath,
    preset_dephasing, preset_photon_counting, preset_rotated_thermal,
    preset_thermal, with_homodyne_shift,
)
from trajent.rates import analytic_mean_concurrence, rate_report

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
    assert np.max(np.abs(s.channels[0].op - np.exp(-0.5j)
                         * lift("A", [[0, 0], [1, 0]]))) < 1e-14
    assert s.channels[0].shift == 0.8
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
    assert np.array_equal(s.channels[0].op, lift("A", [[0, 0], [1, 0]]))
    assert np.array_equal(s.channels[1].op, lift("B", [[0, 1], [0, 0]]))
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
    assert np.array_equal(s.channels[0].op, lift("A", SIGMA_X))
    assert np.array_equal(s.channels[1].op, lift("B", SIGMA_Z))


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


def _pairs(m) -> list:
    """A matrix as a scenario file writes it: rows of [re, im] pairs."""
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, complex)]


def test_bad_localities_and_shapes_are_named_together(tmp_path, capsys):
    # a file's locality says how its matrix is lifted; every channel whose
    # locality or shape is wrong is named in one error, and the CLI exits 2
    flip = _pairs(SIGMA_MINUS)
    doc = {"custom_channels": [
        {"id": "fine", "locality": "A", "matrix": flip, "rate": 1.0},
        {"id": "odd", "locality": "B", "matrix": _pairs(np.eye(4)),
         "rate": 1.0},
        {"id": "where", "locality": "C", "matrix": flip, "rate": 1.0},
        {"id": "wide", "locality": "A", "matrix": _pairs(np.ones((2, 3))),
         "rate": 1.0},
        {"id": "small", "locality": "joint", "matrix": flip, "rate": 1.0}]}
    with pytest.raises(ConfigError) as exc:
        scenario_from_dict(doc, source="bad.json")
    assert str(exc.value) == (
        "bad.json: invalid scenario:\n"
        "  channel 'odd': operator shape (4, 4) does not match locality "
        "'B' (want (2, 2))\n"
        "  channel 'where': locality must be one of ('A', 'B', 'joint')\n"
        "  channel 'wide': operator shape (2, 3) does not match locality "
        "'A' (want (2, 2))\n"
        "  channel 'small': operator shape (2, 2) does not match locality "
        "'joint' (want (4, 4))")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["rates", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert all(f"channel '{c}'" in err for c in ("odd", "where", "wide",
                                                  "small"))
    assert "'fine'" not in err
    # ragged rows are a malformed matrix, named with the file and the entry
    doc["custom_channels"][0]["matrix"] = [flip[0], flip[1][:1]]
    with pytest.raises(ConfigError, match=re.escape(
            "bad.json: custom_channels[0].matrix: malformed matrix")):
        scenario_from_dict(doc, source="bad.json")


def _random_channel_set(rng) -> tuple[list, dict]:
    """(channels, params): a random channel set as (locality, matrix, rate,
    shift) with 2x2 matrices on "A"/"B" and 4x4 "joint" ones, and the
    monitoring transforms of its file.  Most are independent thermal baths,
    some displaced or with one more channel; the rest mix random local,
    joint and collective channels."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    g = rng.uniform(0.1, 3.0, 4)
    if rng.random() < 0.6:
        a = complex(*rng.standard_normal(2)) if rng.random() < 0.4 else None
        b = None if a is None else np.conj(a) if rng.random() < 0.5 else a
        channels = [("A", SIGMA_PLUS, g[0], a), ("A", SIGMA_MINUS, g[1], b),
                    ("B", SIGMA_PLUS, g[2], None),
                    ("B", SIGMA_MINUS, g[3], None)]
        extra = rng.integers(6)
        if extra < 2:
            channels.append(("A", SIGMA_Z, g[1], None) if extra
                            else ("joint", cplx(4, 4), g[2], None))
    else:
        kinds = {"A": lambda: ("A", cplx(2, 2)), "B": lambda: ("B", cplx(2, 2)),
                 "joint": lambda: ("joint", cplx(4, 4)),
                 "collective": lambda: ("joint", COLLECTIVE_DECAY)}
        channels = [(*kinds[list(kinds)[rng.integers(4)]](),
                     rng.uniform(0.1, 2.0), None)
                    for _ in range(rng.integers(1, 4))]
    n, params = len(channels), {}
    transform = rng.integers(4)
    if transform == 1 and all(c[3] is None for c in channels):
        params["homodyne_shifts"] = [[x.real, x.imag] for x in cplx(n)]
    elif transform == 2 and all(c[3] is None for c in channels):
        params["heterodyne_amplitudes"] = list(rng.uniform(0.1, 1.0, n))
        params["heterodyne_frequencies"] = list(rng.uniform(0.5, 3.0, n))
    elif transform == 3:
        params["phases"] = list(rng.uniform(0.0, np.pi, n))
    return channels, params


def test_channels_written_as_joint_read_as_their_local_twins():
    # the same 200 random channel sets, written with 2x2 "A"/"B" matrices and
    # as 4x4 "joint" ones (lifted by np.kron), load to bit-identical operators
    # and so to equal per-qubit views, thermal rates, rates and curves
    rng = np.random.default_rng(29)
    t, reported, baths = np.linspace(0.0, 2.0, 5), 0, 0
    lifts = {"A": lambda j: np.kron(j, ID2), "B": lambda j: np.kron(ID2, j),
             "joint": lambda j: j}
    for _ in range(200):
        channels, params = _random_channel_set(rng)
        docs = [{"params": params, "custom_channels": [
            {"id": f"c{m}", "locality": loc if local else "joint",
             "matrix": _pairs(j if local else lifts[loc](j)), "rate": g,
             **({} if a is None else {"shift": [a.real, a.imag]})}
            for m, (loc, j, g, a) in enumerate(channels)]}
            for local in (True, False)]
        x, y = rng.standard_normal(2)  # H0 none, local or coupling
        h0 = (np.zeros((4, 4)), local_hamiltonian(x * SIGMA_X, y * SIGMA_Z),
              x * np.kron(SIGMA_X, SIGMA_Z))[rng.integers(3)]
        s, twin = (replace(scenario_from_dict(d), h0=h0) for d in docs)
        assert s.lifted_ops.tobytes() == twin.lifted_ops.tobytes()
        assert s.qubits[0] is None and twin.qubits[0] is None \
            or np.array_equal(s.qubits[0], twin.qubits[0])
        for q, p in zip(s.qubits[1], twin.qubits[1]):
            assert q is None and p is None \
                or q[0] == p[0] and np.array_equal(q[1], p[1])
        assert s.thermal_rates == twin.thermal_rates
        baths += s.thermal_rates is not None
        for unraveling in ("qj", "qsd-homodyne", "qsd-heterodyne"):
            want = analytic_mean_concurrence(s, unraveling, t)
            got = analytic_mean_concurrence(twin, unraveling, t)
            assert (got is None) == (want is None)
            assert want is None or np.array_equal(got, want)
        try:
            want = rate_report(s)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                rate_report(twin)
            continue
        assert rate_report(twin) == want
        reported += 1
    # both verdicts of each are exercised: 90 reports and 56 baths here
    assert 60 <= reported <= 170 and 30 <= baths <= 170
