"""Config, gate and netlist file formats, plus resistance unit parsing.

All files are YAML mappings. Unknown keys are hard errors so a typo in a
weight list cannot silently fall back to a default.
"""

from __future__ import annotations

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
    if value <= 0:
        raise ParseError(f"resistance must be positive, got {text!r}")
    return value


def parse_weights(text: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """'M1,...,Mn;TH1,...' -> (input memristances, threshold memristances)."""
    if text.count(";") != 1:
        raise ParseError(
            f"weights must contain exactly one ';' separating inputs from "
            f"thresholds: {text!r}"
        )
    left, right = text.split(";")
    pos = 0

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
    clock_period: float = 2e-3
    clock_duty_eq: float = 0.5
    clock_sample_dt: float = 1e-5
    seed: int | None = None

    def clock(self, n_cycles: int) -> ClockSpec:
        return ClockSpec(
            period=self.clock_period,
            duty_eq=self.clock_duty_eq,
            n_cycles=n_cycles,
            sample_dt=self.clock_sample_dt,
        )


_INT_FIELDS = {"bits"}


def _take(mapping: dict, section: str, known: dict) -> dict:
    """Map file keys onto constructor kwargs, rejecting unknown keys.

    Values are coerced to numbers (YAML 1.1 reads '1.0e6' as a string)."""
    out = {}
    for key, value in mapping.items():
        if key not in known:
            raise ParseError(f"unknown key {key!r} in section {section!r}")
        field_name = known[key]
        try:
            value = int(value) if field_name in _INT_FIELDS else float(value)
        except (TypeError, ValueError):
            raise ParseError(f"{section}.{key}: expected a number, got {value!r}") from None
        out[field_name] = value
    return out


_DEVICE_KEYS = {
    "r_min_ohm": "r_min",
    "r_max_ohm": "r_max",
    "bits": "bits",
    "v_prog_threshold_v": "v_prog_threshold",
    "step_fraction": "step_fraction",
    "noise_sigma_rel": "noise_sigma_rel",
}
_LEVEL_KEYS = {"v_dd_v": "v_dd", "v_high_v": "v_high", "v_low_v": "v_low"}
_TRANSIENT_KEYS = {
    "tau_s": "tau",
    "r_sense_ohm": "r_sense",
    "v_meta_floor_v": "v_meta_floor",
}
_CLOCK_KEYS = {"period_s": "clock_period", "duty_eq": "clock_duty_eq",
               "sample_dt_s": "clock_sample_dt"}


def _load_yaml(path) -> dict:
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
        except yaml.YAMLError as e:
            raise ParseError(f"{path}: {e}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be a mapping")
    return data


def load_project_config(path) -> ProjectConfig:
    data = _load_yaml(path)
    kwargs = {}
    for key, value in data.items():
        if key == "device":
            section = dict(value or {})
            if "seed" in section:
                kwargs["seed"] = section.pop("seed")
            dev_kwargs = _take(section, "device", _DEVICE_KEYS)
            try:
                kwargs["device"] = DeviceModel(**dev_kwargs)
            except ValueError as e:
                raise ParseError(f"device: {e}") from None
        elif key == "levels":
            try:
                kwargs["levels"] = VoltageLevels(**_take(value or {}, "levels", _LEVEL_KEYS))
            except ValueError as e:
                raise ParseError(f"levels: {e}") from None
        elif key == "tie_rule":
            kwargs["tie_rule"] = parse_tie_rule(value)
        elif key == "transient":
            try:
                kwargs["transient"] = TransientParams(
                    **_take(value or {}, "transient", _TRANSIENT_KEYS)
                )
            except ValueError as e:
                raise ParseError(f"transient: {e}") from None
        elif key == "clock":
            kwargs.update(_take(value or {}, "clock", _CLOCK_KEYS))
        else:
            raise ParseError(f"unknown top-level key {key!r} in {path}")
    return ProjectConfig(**kwargs)


def parse_tie_rule(value: str) -> TieRule:
    try:
        return TieRule(str(value).strip().lower())
    except ValueError:
        raise ParseError(
            f"tie_rule must be 'input_wins' or 'threshold_wins', got {value!r}"
        ) from None


def _parse_resistance_list(values, where) -> tuple[float, ...]:
    if not isinstance(values, list) or not values:
        raise ParseError(f"{where}: expected a non-empty list of resistances")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, (int, float)):
            if v <= 0:
                raise ParseError(f"{where}[{i}]: resistance must be positive")
            out.append(float(v))
        else:
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


def load_gate_config(path, levels: VoltageLevels | None = None) -> GateConfig:
    data = _load_yaml(path)
    for key in data:
        if key not in _GATEFILE_KEYS:
            raise ParseError(f"unknown key {key!r} in gate file {path}")
    if "input_memristances_ohm" not in data or "threshold_memristances_ohm" not in data:
        raise ParseError(f"{path}: gate file needs input and threshold memristances")
    return GateConfig(
        _parse_resistance_list(data["input_memristances_ohm"], "input_memristances_ohm"),
        _parse_resistance_list(
            data["threshold_memristances_ohm"], "threshold_memristances_ohm"
        ),
        levels=levels or VoltageLevels(),
        tie_rule=parse_tie_rule(data.get("tie_rule", "input_wins")),
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
    data = _load_yaml(path)
    for key in data:
        if key not in ("inputs", "gates", "wires", "outputs", "tie_rule"):
            raise ParseError(f"unknown key {key!r} in netlist file {path}")
    if "tie_rule" in data:
        tie_rule = parse_tie_rule(data["tie_rule"])
    try:
        n_inputs = int(data["inputs"])
    except (KeyError, TypeError, ValueError):
        raise ParseError(f"{path}: 'inputs' must be an integer count") from None

    gates: dict[str, GateConfig] = {}
    for i, g in enumerate(data.get("gates") or []):
        where = f"gates[{i}]"
        if not isinstance(g, dict):
            raise ParseError(f"{where}: expected a mapping")
        for key in g:
            if key not in ("name", "inputs", "threshold"):
                raise ParseError(f"{where}: unknown key {key!r}")
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
    for i, w in enumerate(data.get("wires") or []):
        where = f"wires[{i}]"
        if not isinstance(w, dict) or set(w) != {"from", "to"}:
            raise ParseError(f"{where}: expected {{from: ..., to: ...}}")
        src = _parse_source(w["from"], f"{where}.from")
        m = _DEST_RE.match(str(w["to"]).strip())
        if not m:
            raise ParseError(
                f"{where}.to: destination must be '<gate>.<slot>', got {w['to']!r}"
            )
        wires.append(Wire(source=src, gate=m.group(1), slot=int(m.group(2)) - 1))

    outputs = []
    for i, o in enumerate(data.get("outputs") or []):
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
