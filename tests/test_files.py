import re
from pathlib import Path

import pytest

from mtlg.files import (
    ParseError,
    ProjectConfig,
    load_gate_config,
    load_project_config,
    parse_netlist_file,
    parse_resistance,
    parse_weights,
    save_gate_config,
)
from mtlg.device import DeviceModel
from mtlg.gate import GateConfig, TieRule
from mtlg.netlist import network_truth_table, validate
from mtlg.transient import ClockSpec


class TestParseResistance:
    @pytest.mark.parametrize(
        "text,ohms",
        [("33k", 33e3), ("60.5k", 60.5e3), ("2M", 2e6), ("470", 470.0),
         ("1.5e3", 1500.0), ("2.5M", 2.5e6)],
    )
    def test_suffixes(self, text, ohms):
        assert parse_resistance(text) == pytest.approx(ohms, rel=1e-12)

    @pytest.mark.parametrize("text", ["", "abc", "-33k", "33kk", "0", "1e400", "1e397k",
                                      "inf", "nan"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ParseError):
            parse_resistance(text)


class TestParseWeights:
    def test_hardware_style(self):
        ms, ths = parse_weights("60.5k,60k;33k")
        assert ms == (60.5e3, 60e3)
        assert ths == (33e3,)

    def test_multiple_thresholds(self):
        _, ths = parse_weights("1M;2M,2M")
        assert ths == (2e6, 2e6)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_weights("60k,33k")

    def test_error_carries_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_weights("60k,bad;33k")


class TestProjectConfig:
    def test_full_file(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(
            "device:\n"
            "  r_min_ohm: 1.0e6\n"
            "  r_max_ohm: 1.0e7\n"
            "  bits: 5\n"
            "  seed: 11\n"
            "levels:\n"
            "  v_dd_v: 0.65\n"
            "  v_high_v: 0.9\n"
            "  v_low_v: 0.0\n"
            "tie_rule: threshold_wins\n"
            "transient:\n"
            "  tau_s: 2.0e-7\n"
            "clock:\n"
            "  period_s: 1.0e-3\n"
            "  sample_dt_s: 5.0e-6\n"
        )
        cfg = load_project_config(p)
        assert cfg.device.r_min == 1e6
        assert cfg.seed == 11
        assert cfg.tie_rule is TieRule.THRESHOLD_WINS
        assert cfg.transient.tau == 2e-7
        assert cfg.clock == ClockSpec(period=1e-3, sample_dt=5e-6)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("device:\n  r_min_ohms: 1000\n")
        with pytest.raises(ParseError, match="unknown key"):
            load_project_config(p)

    def test_unknown_top_level_rejected(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("devices: {}\n")
        with pytest.raises(ParseError):
            load_project_config(p)

    def test_integer_fields(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("device: {bits: 4.0, seed: 3}\n")
        cfg = load_project_config(p)
        assert cfg.device.bits == 4 and cfg.seed == 3

    @pytest.mark.parametrize("text,message", [
        ("device: {bits: 2.5}\n", "device.bits: expected an integer"),
        ("device: {seed: 1.5}\n", "device.seed: expected an integer"),
        ("device: {seed: abc}\n", "device.seed: expected an integer"),
        # once passed here, then failed in NumPy only when noise needed the rng
        ("device: {seed: -1}\n", "device.seed: expected an integer >= 0, got -1"),
        ("levels: {v_dd_v: abc}\n", "levels.v_dd_v: expected a number"),
        # YAML booleans once passed as the numbers 1 and 0
        ("device: {bits: true}\n", "device.bits: expected an integer, got True"),
        ("device: {seed: yes}\n", "device.seed: expected an integer, got True"),
        ("transient: {tau_s: on}\n", "transient.tau_s: expected a number, got True"),
        ("clock: {duty_eq: off}\n", "clock.duty_eq: expected a number, got False"),
        ("levels: [1, 2]\n", "levels: expected a mapping"),
        ("clock: {period: 1}\n", "clock: unknown key 'period'"),
        ("- device\n", "expected a mapping, got list"),
        ("levels: {v_dd_v: 1.0}\n", "levels: require v_low < v_dd < v_high"),
        # a read at or above the programming threshold would program the cells
        ("device: {v_prog_threshold_v: 0.5}\n",
         "levels.v_dd_v 0.65 must be below device.v_prog_threshold_v 0.5"),
        ("device: {v_prog_threshold_v: 0.8}\nlevels: {v_dd_v: 0.8}\n",
         "levels.v_dd_v 0.8 must be below device.v_prog_threshold_v 0.8"),
        # apply_pulse compares |v|: a negative supply programs the cells alike
        ("levels: {v_low_v: -2, v_dd_v: -1.5, v_high_v: 0}\n",
         "levels.v_dd_v -1.5 must be below device.v_prog_threshold_v 1.0 in magnitude"),
    ])
    def test_section_errors(self, tmp_path, text, message):
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            load_project_config(p)

    def test_read_voltage_checked_without_a_file(self):
        with pytest.raises(ValueError, match="must be below device.v_prog_threshold_v 0.5"):
            ProjectConfig(device=DeviceModel(v_prog_threshold=0.5))

    def test_empty_sections_give_defaults(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("device:\nlevels:\ntransient:\nclock:\n")
        assert load_project_config(p) == ProjectConfig()

    def test_empty_file_gives_defaults(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("")
        cfg = load_project_config(p)
        assert cfg.levels.v_dd == 0.65


class TestGateConfigFile:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "gate.yaml"
        cfg = GateConfig((60.5e3, 60e3), (33e3,), tie_rule=TieRule.THRESHOLD_WINS)
        save_gate_config(cfg, p)
        back = load_gate_config(p)
        assert back.input_memristances == cfg.input_memristances
        assert back.threshold_memristances == cfg.threshold_memristances
        assert back.tie_rule is TieRule.THRESHOLD_WINS

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "gate.yaml"
        p.write_text("input_memristances_ohm: [1000]\nthreshold_memristances_ohm: [1000]\nfoo: 1\n")
        with pytest.raises(ParseError):
            load_gate_config(p)

    def test_resistances_read_as_weights_do(self, tmp_path):
        p = tmp_path / "gate.yaml"
        p.write_text("input_memristances_ohm: [60500, 6.05e+4, 60.5k, '60500.0']\n"
                     "threshold_memristances_ohm: [1.0e6]\n")
        cfg = load_gate_config(p)
        assert cfg.input_memristances == (60500.0,) * 4
        assert cfg.threshold_memristances == (parse_resistance("1.0e6"),)

    @pytest.mark.parametrize("value", [".inf", ".nan", "true", "-5", "0", "[1k]", "{}"])
    def test_bad_resistance_is_parse_error(self, tmp_path, value):
        p = tmp_path / "gate.yaml"
        p.write_text(f"input_memristances_ohm: [{value}]\nthreshold_memristances_ohm: [1k]\n")
        with pytest.raises(ParseError, match=re.escape("input_memristances_ohm[0]: ")):
            load_gate_config(p)

    @pytest.mark.parametrize("text", ["threshold_memristances_ohm: [1k]\n",
                                      "input_memristances_ohm: 1k\n"
                                      "threshold_memristances_ohm: [1k]\n"])
    def test_missing_or_scalar_list(self, tmp_path, text):
        p = tmp_path / "gate.yaml"
        p.write_text(text)
        with pytest.raises(ParseError, match="input_memristances_ohm"):
            load_gate_config(p)


XOR_NETLIST = """\
inputs: 2
gates:
  - name: or1
    inputs: [33.8k, 18.3k]
    threshold: [41.6k]
  - name: and1
    inputs: [60.5k, 60k]
    threshold: [33k]
  - name: out
    inputs: [60.5k, 60k]
    threshold: [33k]
wires:
  - {from: in1, to: or1.1}
  - {from: in2, to: or1.2}
  - {from: in1, to: and1.1}
  - {from: in2, to: and1.2}
  - {from: or1.CA, to: out.1}
  - {from: and1.CO, to: out.2}
outputs: [out.CA]
"""


class TestNetlistFile:
    def test_single_gate(self, tmp_path):
        p = tmp_path / "net.yaml"
        p.write_text(
            "inputs: 2\n"
            "gates:\n"
            "  - name: g\n"
            "    inputs: [60.5k, 60k]\n"
            "    threshold: [33k]\n"
            "wires:\n"
            "  - {from: in1, to: g.1}\n"
            "  - {from: in2, to: g.2}\n"
            "outputs: [g.CA]\n"
        )
        net = parse_netlist_file(p)
        assert validate(net) == []
        assert net.primary_inputs == 2
        assert network_truth_table(net)[0].outputs == (0, 0, 0, 1)

    def test_xor_three_gate_file(self, tmp_path):
        p = tmp_path / "xor.yaml"
        p.write_text(XOR_NETLIST)
        net = parse_netlist_file(p)
        assert validate(net) == []
        assert network_truth_table(net)[0].outputs == (0, 1, 1, 0)

    def test_cycle_diagnosed(self, tmp_path):
        p = tmp_path / "net.yaml"
        p.write_text(
            "inputs: 1\n"
            "gates:\n"
            "  - {name: a, inputs: [10k, 10k], threshold: [10k]}\n"
            "  - {name: b, inputs: [10k, 10k], threshold: [10k]}\n"
            "wires:\n"
            "  - {from: in1, to: a.1}\n"
            "  - {from: b.CA, to: a.2}\n"
            "  - {from: in1, to: b.1}\n"
            "  - {from: a.CA, to: b.2}\n"
            "outputs: [b.CA]\n"
        )
        net = parse_netlist_file(p)
        assert any(d.code == "CycleError" for d in validate(net))

    def test_field_addressed_errors(self, tmp_path):
        p = tmp_path / "net.yaml"
        p.write_text(
            "inputs: 1\n"
            "gates:\n"
            "  - {name: g, inputs: [10q], threshold: [10k]}\n"
        )
        with pytest.raises(ParseError, match=r"gates\[0\].inputs"):
            parse_netlist_file(p)

    @pytest.mark.parametrize("body,message", [
        ("inputs: 1.5\n", "inputs: expected an integer"),
        ("gates: []\n", "inputs: expected an integer, got None"),
        # a negative count once passed as a netlist and failed validation
        ("inputs: -1\n", "inputs: expected an integer >= 0, got -1"),
        # once read as one input
        ("inputs: true\n", "inputs: expected an integer, got True"),
        ("inputs: 1\ngates: 5\n", "gates: expected a list"),
        ("inputs: 1\ngates: [5]\n", "gates[0]: expected a mapping"),
        ("inputs: 1\ngates: [{name: g, inputs: [1k], threshold: [1k], x: 1}]\n",
         "gates[0]: unknown key 'x'"),
        ("inputs: 1\nwires: {from: in1, to: g.1}\n", "wires: expected a list"),
        ("inputs: 1\nwires: [{from: in1}]\n", "wires[0].to"),
        ("inputs: 1\nwires: [{from: in1, to: g.1, via: x}]\n", "wires[0]: unknown key 'via'"),
        ("inputs: 1\noutputs: 5\n", "outputs: expected a list"),
        ("inputs: 1\nlevels: {}\n", "unknown key 'levels'"),
        # names no wire can name: refused at the gate, not at its first wire
        *((f"inputs: 1\ngates: [{{name: '{name}', inputs: [1k], threshold: [1k]}}]\n"
           f"wires: [{{from: in1, to: '{name}.1'}}]\n",
           f"gates[0]: gate name must be letters, digits or '_', got '{name}'")
          for name in ("g-h", "a b", "g.1")),
        # YAML reads these as None, True, 7, 7.1 and 12; once str()'d into
        # gates None, True and 7, and the wire to slot 10 of gate 7 into slot 1
        *((f"inputs: 1\ngates: [{{name: {name}, inputs: [1k], threshold: [1k]}}]\n",
           f"gates[0].name: expected text, got {got}")
          for name, got in (("null", "None"), ("yes", "True"), ("007", "7"))),
        ("inputs: 1\ngates: [{name: '7', inputs: [1k], threshold: [1k]}]\n"
         "wires: [{from: in1, to: 7.10}]\n", "wires[0].to: expected text, got 7.1"),
        ("inputs: 1\nwires: [{from: 1, to: g.1}]\n", "wires[0].from: expected text, got 1"),
        ("inputs: 1\noutputs: [12]\n", "outputs[0]: expected text, got 12"),
    ])
    def test_shape_errors(self, tmp_path, body, message):
        p = tmp_path / "net.yaml"
        p.write_text(body)
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_netlist_file(p)

    def test_bad_wire_spec(self, tmp_path):
        p = tmp_path / "net.yaml"
        p.write_text(
            "inputs: 1\n"
            "gates:\n"
            "  - {name: g, inputs: [10k], threshold: [12k]}\n"
            "wires:\n"
            "  - {from: g.XX, to: g.1}\n"
        )
        with pytest.raises(ParseError, match=r"wires\[0\].from"):
            parse_netlist_file(p)


def _readme_yaml_blocks():
    """The ```yaml blocks of README's "File formats" section, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```yaml\n(.*?)```", section, re.S)


class TestReadmeFormats:
    """README's example project config, gate config and netlist load with the
    readers it documents, and the netlist computes XOR, as README says."""

    def test_every_block_loads(self, tmp_path):
        project, gate, netlist = _readme_yaml_blocks()
        for name, body in (("project", project), ("gate", gate), ("net", netlist)):
            (tmp_path / f"{name}.yaml").write_text(body)
        cfg = load_project_config(tmp_path / "project.yaml")
        assert (cfg.device.bits, cfg.seed, cfg.tie_rule) == (5, 7, TieRule.INPUT_WINS)
        g = load_gate_config(tmp_path / "gate.yaml")
        assert (g.input_memristances, g.threshold_memristances) == ((60500.0, 60000.0),
                                                                     (33000.0,))
        net = parse_netlist_file(tmp_path / "net.yaml")
        assert validate(net) == []
        assert [tt.outputs for tt in network_truth_table(net)] == [(0, 1, 1, 0)]
