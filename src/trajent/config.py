"""Scenario description files.

A scenario file is a JSON object with up to four keys:

    preset           name of a built-in scenario family (see _PRESETS)
    params           parameters of that preset (rates are numbers, v_a/v_b
                     lists of 3 numbers, u_a/u_b N x 2 nested [re, im]
                     pairs), plus optional monitoring transformations
                     applied afterwards, each a list with one entry per
                     channel or one for all:
                       homodyne_shifts          [re, im] pairs
                       heterodyne_amplitudes    positive floats
                       heterodyne_frequencies   positive floats
                       phases                   detector phases
    initial_state    four [re, im] amplitude pairs in the {uu,ud,du,dd}
                     basis, kept as given and normalized by Scenario.psi0
                     (a norm off 1 by more than 1e-6 triggers a warning)
    custom_channels  explicit channel list instead of a preset; each entry
                     has id, locality ("A"|"B"|"joint"), matrix (nested
                     [re, im] pairs, 2x2 or 4x4), rate, and optional
                     shift [re, im] / het_freq

Exactly one of ``preset`` or ``custom_channels`` must be present.  Unknown
keys anywhere are errors — misspelled parameters must not pass silently.
A channel's locality says how its matrix is read: a 2x2 one on qubit A or B
is lifted (`models.lift`); a "joint" one is 4x4.  Every channel whose
locality or shape is wrong is named in one error.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import (
    Scenario, JumpChannel, lift, preset_common_bath, preset_dephasing,
    preset_photon_counting, preset_rotated_thermal, preset_thermal,
    scenario_from_channels, with_heterodyne, with_homodyne_shift,
    with_phase_rotation,
)

__all__ = ["load_scenario", "scenario_from_dict", "bundled_scenario_path",
           "bundled_scenario_names"]

_TOP_KEYS = {"preset", "params", "initial_state", "custom_channels"}
_CHANNEL_KEYS = {"id", "locality", "matrix", "rate", "shift", "het_freq"}
_TRANSFORM_KEYS = {"homodyne_shifts", "heterodyne_amplitudes",
                   "heterodyne_frequencies", "phases"}
_SHAPES = {"A": (2, 2), "B": (2, 2), "joint": (4, 4)}  # matrix per locality


def _number(value, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _complex(pair, where: str) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"{where}: expected a [re, im] pair, got {pair!r}")
    return complex(_number(pair[0], where), _number(pair[1], where))


def _complex_matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{where}: expected a nested list of [re, im] pairs")
    try:
        return np.array([[_complex(x, where) for x in row] for row in rows])
    except (TypeError, ValueError) as exc:  # ConfigError, or ragged rows
        raise ConfigError(f"{where}: malformed matrix ({exc})") from exc


def _vector(value, where: str, parse=_number) -> list:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return [parse(x, where) for x in value]


_THERMAL_RATES = dict.fromkeys(("gamma_plus_a", "gamma_minus_a",
                                "gamma_plus_b", "gamma_minus_b"), _number)

# preset name -> (builder, {parameter: parser}); the parameters are exactly
# the builder's arguments without a default and are passed by keyword
_PRESETS = {
    "photon_counting": (preset_photon_counting,
                        {"gamma_a": _number, "gamma_b": _number}),
    "thermal": (preset_thermal, _THERMAL_RATES),
    "dephasing": (preset_dephasing, {"v_a": _vector, "v_b": _vector,
                                     "gamma_a": _number, "gamma_b": _number}),
    "rotated_thermal": (preset_rotated_thermal,
                        {"u_a": _complex_matrix, "u_b": _complex_matrix,
                         **_THERMAL_RATES}),
    "common_bath": (preset_common_bath, {"gamma": _number}),
}


def _build_preset(name: str, params: dict) -> Scenario:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid presets: "
                          f"{sorted(_PRESETS)}")
    build, parsers = _PRESETS[name]
    own = {k: v for k, v in params.items() if k not in _TRANSFORM_KEYS}
    unknown = set(own) - set(parsers)
    if unknown:
        raise ConfigError(f"unknown parameter(s) {sorted(unknown)} for preset "
                          f"{name!r}; accepted: {sorted(parsers)}")
    try:
        return build(**{k: parse(own[k], k) for k, parse in parsers.items()})
    except KeyError as exc:
        raise ConfigError(f"preset {name!r} is missing parameter {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"preset {name!r}: {exc}") from exc


def _apply_transforms(s: Scenario, params: dict) -> Scenario:
    try:
        if "phases" in params:
            s = with_phase_rotation(s, _vector(params["phases"], "phases"))
        if "homodyne_shifts" in params:
            s = with_homodyne_shift(s, _vector(params["homodyne_shifts"],
                                               "homodyne_shifts", _complex))
        has_amp = "heterodyne_amplitudes" in params
        has_freq = "heterodyne_frequencies" in params
        if has_amp != has_freq:
            raise ConfigError("heterodyne_amplitudes and "
                              "heterodyne_frequencies must be given together")
        if has_amp:
            s = with_heterodyne(
                s, _vector(params["heterodyne_amplitudes"],
                           "heterodyne_amplitudes"),
                _vector(params["heterodyne_frequencies"],
                        "heterodyne_frequencies"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return s


def _parse_channel(entry: dict, i: int) -> JumpChannel | str:
    """The channel of one entry, or the fault of its locality or shape."""
    if not isinstance(entry, dict):
        raise ConfigError(f"custom_channels[{i}] must be an object")
    unknown = set(entry) - _CHANNEL_KEYS
    if unknown:
        raise ConfigError(f"custom_channels[{i}]: unknown key(s) "
                          f"{sorted(unknown)}")
    try:
        cid = str(entry["id"])
        locality = str(entry["locality"])
        matrix = _complex_matrix(entry["matrix"], f"custom_channels[{i}].matrix")
        rate = _number(entry["rate"], f"custom_channels[{i}].rate")
    except KeyError as exc:
        raise ConfigError(f"custom_channels[{i}] is missing key {exc}") from exc
    shift = entry.get("shift")
    if shift is not None:
        shift = _complex(shift, f"custom_channels[{i}].shift")
    het = entry.get("het_freq")
    if het is not None:
        het = _number(het, f"custom_channels[{i}].het_freq")
    want = _SHAPES.get(locality)
    if want is None:
        return f"channel {cid!r}: locality must be one of {tuple(_SHAPES)}"
    if matrix.shape != want:
        return (f"channel {cid!r}: operator shape {matrix.shape} does not "
                f"match locality {locality!r} (want {want})")
    op = matrix if locality == "joint" else lift(locality, matrix)
    return JumpChannel(id=cid, op=op, rate=rate, shift=shift, het_freq=het)


def scenario_from_dict(doc: dict, source: str = "<dict>") -> Scenario:
    """Build a scenario from a parsed description; every error names the
    source, and an invalid scenario lists all its violations."""
    try:
        return _from_dict(doc, source)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def _from_dict(doc: dict, source: str) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)}; "
                          f"accepted: {sorted(_TOP_KEYS)}")
    preset = doc.get("preset")
    custom = doc.get("custom_channels")
    if (preset is None) == (custom is None):
        raise ConfigError("exactly one of 'preset' or 'custom_channels' is "
                          "required")
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")

    if preset is not None:
        s = _build_preset(str(preset), params)
    else:
        unknown_p = set(params) - _TRANSFORM_KEYS
        if unknown_p:
            raise ConfigError(f"unknown parameter(s) {sorted(unknown_p)} with "
                              "custom channels")
        if not isinstance(custom, list) or not custom:
            raise ConfigError("custom_channels must be a non-empty list")
        channels = [_parse_channel(c, i) for i, c in enumerate(custom)]
        if faults := [c for c in channels if isinstance(c, str)]:
            raise ConfigError("invalid scenario:\n  " + "\n  ".join(faults))
        s = scenario_from_channels(channels)
    s = _apply_transforms(s, params)

    if "initial_state" in doc:
        raw = doc["initial_state"]
        if not isinstance(raw, list) or len(raw) != 4:
            raise ConfigError("initial_state must list 4 [re, im] amplitude "
                              "pairs")
        psi = np.array([_complex(x, "initial_state") for x in raw])
        norm = np.linalg.norm(psi)
        if norm == 0.0:
            raise ConfigError("initial_state is the zero vector")
        if abs(norm - 1.0) > 1e-6:
            warnings.warn(f"{source}: initial state norm {norm:.8f} differs "
                          "from 1; renormalizing", stacklevel=3)
        s = s.with_initial(psi)  # Scenario.psi0 normalizes it
    return s


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario file, or a bundled scenario by bare name.

    A name without a directory part that is not an existing file, such as
    ``thermal_bell``, resolves to the bundled scenario of that name.
    """
    path = Path(path)
    if (len(path.parts) == 1 and not path.exists()
            and path.name.removesuffix(".json") in bundled_scenario_names()):
        path = bundled_scenario_path(path.name)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return scenario_from_dict(doc, source=str(path))


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario file shipped with the package (e.g. 'thermal_bell')."""
    if not name.endswith(".json"):
        name += ".json"
    path = Path(__file__).parent / "scenarios" / name
    if not path.is_file():
        raise ConfigError(f"no bundled scenario {name!r}; available: "
                          f"{', '.join(bundled_scenario_names())}")
    return path


def bundled_scenario_names() -> list[str]:
    return sorted(p.stem for p in
                  (Path(__file__).parent / "scenarios").glob("*.json"))
