"""Config, gate and netlist file formats, plus resistance unit parsing.

All files are YAML mappings, read section by section through `_mapping` and
`_sequence`: a section that is not a mapping, a list that is not a list and
an unknown key are hard errors, so a typo in a weight list cannot silently
fall back to a default. YAML resistances go through `parse_resistance`, as
`--weights` does.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import yaml

from .device import DeviceModel
from .gate import GateConfig, TieRule, VoltageLevels
from .netlist import Netlist, Source, Wire
from .transient import ClockSpec, TransientParams


class ParseError(ValueError):
    """User-input parse failure (exit code 2 at the CLI)."""


_SUFFIXES = {"k": 1e3, "K": 1e3, "M": 1e6}
_RES_RE = re.compile(r"^([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)([kKM]?)$")


def parse_resistance(text: str) -> float:
    """'60.5k' -> 60500.0; bare numbers are ohms; suffixes k and M."""
    m = _RES_RE.match(text.strip())
    if not m:
        raise ParseError(f"cannot parse resistance {text!r}")
    value = float(m.group(1)) * _SUFFIXES.get(m.group(2), 1.0)
    if not 0 < value < math.inf:
        raise ParseError(f"resistance must be positive and finite, got {text!r}")
    return value


def parse_weights(text: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """'M1,...,Mn;TH1,...' -> (input memristances, threshold memristances)."""
    if text.count(";") != 1:
        raise ParseError(
            f"weights must contain exactly one ';' separating inputs from "
            f"thresholds: {text!r}"
        )
    left, right = text.split(";")

    def parse_list(chunk, offset):
        out = []
        p = offset
        for part in chunk.split(","):
            try:
                out.append(parse_resistance(part))
            except ParseError:
                raise ParseError(
                    f"bad resistance {part.strip()!r} at position {p} in {text!r}"
                ) from None
            p += len(part) + 1
        return out

    inputs = parse_list(left, 0)
    thresholds = parse_list(right, len(left) + 1)
    return tuple(inputs), tuple(thresholds)


@dataclass(frozen=True)
class ProjectConfig:
    device: DeviceModel = field(default_factory=DeviceModel)
    levels: VoltageLevels = field(default_factory=VoltageLevels)
    tie_rule: TieRule = TieRule.INPUT_WINS
    transient: TransientParams = field(default_factory=TransientParams)
    clock: ClockSpec = field(default_factory=ClockSpec)
    seed: int | None = None


# section -> (constructor, file key -> field name)
_SECTIONS = {
    "device": (DeviceModel, {
        "r_min_ohm": "r_min",
        "r_max_ohm": "r_max",
        "bits": "bits",
        "v_prog_threshold_v": "v_prog_threshold",
        "step_fraction": "step_fraction",
        "noise_sigma_rel": "noise_sigma_rel",
        "seed": "seed",  # a ProjectConfig field, taken out before DeviceModel
    }),
    "levels": (VoltageLevels, {"v_dd_v": "v_dd", "v_high_v": "v_high", "v_low_v": "v_low"}),
    "transient": (TransientParams, {
        "tau_s": "tau",
        "r_sense_ohm": "r_sense",
        "v_meta_floor_v": "v_meta_floor",
    }),
    "clock": (ClockSpec, {"period_s": "period", "duty_eq": "duty_eq",
                          "sample_dt_s": "sample_dt"}),
}
_INT_FIELDS = {"bits", "seed"}


def _mapping(value, where, known) -> dict:
    """A YAML section: empty reads as {}, anything but a mapping of known keys
    is a ParseError."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected a mapping, got {type(value).__name__}")
    for key in value:
        if key not in known:
            raise ParseError(f"{where}: unknown key {key!r}")
    return value


def _sequence(value, where) -> list:
    """A YAML list: empty reads as [], anything but a list is a ParseError."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _number(value, where, kind=float):
    """kind(value) for a numeric field. Strings are accepted (YAML 1.1 reads
    '1.0e6' as one); an int field rejects a float with a fractional part, and
    every field rejects infinity and NaN."""
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        number = kind(value)
        if not -math.inf < number < math.inf:
            raise ValueError
        return number
    except (TypeError, ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ParseError(f"{where}: expected {what}, got {value!r}") from None


def _load_yaml(path, known) -> dict:
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as e:
            raise ParseError(f"{path}: {e}") from None
    return _mapping(data, str(path), known)


def load_project_config(path) -> ProjectConfig:
    data = _load_yaml(path, ("tie_rule", *_SECTIONS))
    kwargs = {}
    if "tie_rule" in data:
        kwargs["tie_rule"] = parse_tie_rule(data["tie_rule"])
    for name, (cls, keys) in _SECTIONS.items():
        if name not in data:
            continue
        fields = {
            keys[key]: _number(value, f"{name}.{key}",
                               int if keys[key] in _INT_FIELDS else float)
            for key, value in _mapping(data[name], name, keys).items()
        }
        if "seed" in fields:
            kwargs["seed"] = fields.pop("seed")
        try:
            kwargs[name] = cls(**fields)
        except ValueError as e:
            raise ParseError(f"{name}: {e}") from None
    return ProjectConfig(**kwargs)


def parse_tie_rule(value: str) -> TieRule:
    try:
        return TieRule(str(value).strip().lower())
    except ValueError:
        raise ParseError(
            f"tie_rule must be 'input_wins' or 'threshold_wins', got {value!r}"
        ) from None


def _parse_resistance_list(values, where) -> tuple[float, ...]:
    values = _sequence(values, where)
    if not values:
        raise ParseError(f"{where}: expected a non-empty list of resistances")
    out = []
    for i, v in enumerate(values):
        try:
            out.append(parse_resistance(str(v)))
        except ParseError as e:
            raise ParseError(f"{where}[{i}]: {e}") from None
    return tuple(out)


_GATEFILE_KEYS = ("input_memristances_ohm", "threshold_memristances_ohm", "tie_rule")


def save_gate_config(config: GateConfig, path) -> None:
    data = {
        "input_memristances_ohm": list(config.input_memristances),
        "threshold_memristances_ohm": list(config.threshold_memristances),
        "tie_rule": config.tie_rule.value,
    }
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)


def load_gate_config(path, levels: VoltageLevels | None = None,
                     tie_rule: TieRule = TieRule.INPUT_WINS) -> GateConfig:
    """Gate file; `tie_rule` applies when the file names none."""
    data = _load_yaml(path, _GATEFILE_KEYS)
    return GateConfig(
        _parse_resistance_list(data.get("input_memristances_ohm"), "input_memristances_ohm"),
        _parse_resistance_list(
            data.get("threshold_memristances_ohm"), "threshold_memristances_ohm"
        ),
        levels=levels or VoltageLevels(),
        tie_rule=parse_tie_rule(data["tie_rule"]) if "tie_rule" in data else tie_rule,
    )


_SOURCE_RE = re.compile(r"^(?:in(\d+)|(\w+)\.(CA|CO))$")
_DEST_RE = re.compile(r"^(\w+)\.(\d+)$")


def _parse_source(text, where) -> Source:
    m = _SOURCE_RE.match(str(text).strip())
    if not m:
        raise ParseError(
            f"{where}: source must be 'in<k>' or '<gate>.<CA|CO>', got {text!r}"
        )
    if m.group(1):
        return Source.primary(int(m.group(1)) - 1)
    return Source.gate_tap(m.group(2), m.group(3))


def parse_netlist_file(path, levels: VoltageLevels | None = None,
                       tie_rule: TieRule = TieRule.INPUT_WINS) -> Netlist:
    """Netlist file: 'inputs' count, 'gates' list, 'wires' list, 'outputs' list."""
    data = _load_yaml(path, ("inputs", "gates", "wires", "outputs", "tie_rule"))
    if "tie_rule" in data:
        tie_rule = parse_tie_rule(data["tie_rule"])
    n_inputs = _number(data.get("inputs"), "inputs", int)
    if n_inputs < 0:
        raise ParseError(f"inputs: expected an integer >= 0, got {n_inputs}")

    gates: dict[str, GateConfig] = {}
    for i, g in enumerate(_sequence(data.get("gates"), "gates")):
        where = f"gates[{i}]"
        g = _mapping(g, where, ("name", "inputs", "threshold"))
        name = str(g.get("name", "")).strip()
        if not name:
            raise ParseError(f"{where}: gate needs a name")
        if name in gates:
            raise ParseError(f"{where}: duplicate gate name {name!r}")
        gates[name] = GateConfig(
            _parse_resistance_list(g.get("inputs"), f"{where}.inputs"),
            _parse_resistance_list(g.get("threshold"), f"{where}.threshold"),
            levels=levels or VoltageLevels(),
            tie_rule=tie_rule,
        )

    wires = []
    for i, w in enumerate(_sequence(data.get("wires"), "wires")):
        where = f"wires[{i}]"
        w = _mapping(w, where, ("from", "to"))
        src = _parse_source(w.get("from"), f"{where}.from")
        m = _DEST_RE.match(str(w.get("to")).strip())
        if not m:
            raise ParseError(
                f"{where}.to: destination must be '<gate>.<slot>', got {w.get('to')!r}"
            )
        wires.append(Wire(source=src, gate=m.group(1), slot=int(m.group(2)) - 1))

    outputs = []
    for i, o in enumerate(_sequence(data.get("outputs"), "outputs")):
        where = f"outputs[{i}]"
        m = re.match(r"^(\w+)\.(CA|CO)$", str(o).strip())
        if not m:
            raise ParseError(f"{where}: output must be '<gate>.<CA|CO>', got {o!r}")
        outputs.append((m.group(1), m.group(2)))

    return Netlist(
        gates=gates,
        wires=tuple(wires),
        primary_inputs=n_inputs,
        primary_outputs=tuple(outputs),
    )
