import argparse
import hashlib
import itertools
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mtlg
from mtlg import cli, files
from mtlg.cli import build_parser, main
from mtlg.gate import GateConfig, TieRule, boundary_grid
from oracles import assert_same_text, reference_rows

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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_and_config_high_high(self, capsys):
        code, out, _ = run(capsys, "eval", "--weights", "60.5k,60k;33k",
                           "--input", "11")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["CA"] == "1" and fields["CO"] == "0"
        assert float(fields["Iin"]) == pytest.approx(2.1577e-5, rel=1e-4)
        assert float(fields["Ith"]) == pytest.approx(1.9697e-5, rel=1e-4)

    def test_zero_input_law(self, capsys):
        code, out, _ = run(capsys, "eval", "--weights", "10k;99k", "--input", "0")
        assert code == 0 and "CA=0" in out

    def test_or_config(self, capsys):
        code, out, _ = run(capsys, "eval", "--weights", "33.8k,18.3k;41.6k",
                           "--input", "01")
        assert code == 0 and "CA=1" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--weights", "33q;1k", "--input", "1")
        assert code == 2 and "position" in err

    def test_dimension_mismatch_exit_3(self, capsys):
        code, _, _ = run(capsys, "eval", "--weights", "33k,60k;41k",
                         "--input", "011")
        assert code == 3


class TestTruth:
    def test_or3_with_class(self, capsys):
        code, out, _ = run(capsys, "truth", "--weights", "31.5k,30k,28.2k;68.2k")
        assert code == 0
        lines = out.splitlines()
        rows = [l for l in lines if l and l[0] in "01"]
        assert len(rows) == 8
        assert rows[0].split() == ["000", "0", "1"]
        assert all(r.split()[1] == "1" for r in rows[1:])
        assert "class=OR (MAJ-1)" in out

    def test_netlist_file(self, capsys, tmp_path):
        p = tmp_path / "xor.yaml"
        p.write_text(XOR_NETLIST)
        code, out, _ = run(capsys, "truth", "--netlist", str(p))
        assert code == 0
        assert "output out.CA" in out
        bits = [l.split()[1] for l in out.splitlines() if l.strip()[0] in "01"]
        assert bits == ["0", "1", "1", "0"]

    def test_netlist_cycle_exit_3(self, capsys, tmp_path):
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
        code, _, err = run(capsys, "truth", "--netlist", str(p))
        assert code == 3 and "cycle" in err

    def test_overflowing_conductance_exit_3(self, capsys):
        # once exit 0 with row 01 printed as 0: the exact row 01 is a tie
        code, out, err = run(capsys, "truth", "--weights", "1e-320,1k;1k")
        assert code == 3 and out == ""
        assert err == "error: branch currents at v_dd 0.65 V leave the normal float range\n"

    def test_subnormal_currents_exit_3(self, capsys, tmp_path):
        # once exit 0 with row 1 printed as a tie (0 under threshold_wins):
        # both currents rounded to one subnormal, the exact ones differ by 1e-7
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("levels: {v_dd_v: 1e-315}\n")
        code, out, err = run(capsys, "truth", "--config", str(cfg), "--weights",
                             "100k;100.00001k", "--tie-rule", "threshold_wins")
        assert code == 3 and out == ""
        assert err == "error: branch currents at v_dd 1e-315 V leave the normal float range\n"

    def test_missing_netlist_file_exit_2(self, capsys, tmp_path):
        missing = tmp_path / "missing.yaml"
        code, out, err = run(capsys, "truth", "--netlist", str(missing))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "missing.yaml" in err


class TestBoundary:
    def test_grid_and_hyperplane(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "boundary", "--weights", "3M,3M;2.5M",
                         "--res", "101", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# hyperplane: ")
        g1, g2, gt = (float(x) for x in lines[0].split(": ")[1].split(","))
        assert gt / g1 == pytest.approx(1.2, rel=1e-9)
        assert any(l.startswith("# class: AND (MAJ-2)") for l in lines)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "a1,a2,class"
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(rows) == 101 * 101
        # boundary within one cell of a1 + a2 = 1.2
        for row in rows:
            a1, a2, cls = (float(x) for x in row.split(","))
            if a1 + a2 > 1.2 + 0.0101:
                assert cls == 1
            elif a1 + a2 < 1.2 - 0.0101:
                assert cls == 0

    def test_bad_resolution_leaves_out_file_alone(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        out_file.write_text("kept\n")
        code, _, _ = run(capsys, "boundary", "--weights", "3M,3M;4M", "--res", "0",
                         "--out", str(out_file))
        assert code == 2 and out_file.read_text() == "kept\n"

    @pytest.mark.parametrize("weights, res", [("3M,3M;4M", "3163"),
                                              ("10k,10k,10k;15k", "216"),
                                              ("10k,10k,10k;15k", "3000")])
    def test_grid_over_max_points_exit_2_before_output(self, capsys, tmp_path,
                                                       weights, res):
        # --res 3000 on three inputs once ended in a 201 GiB allocation error
        out_file = tmp_path / "grid.csv"
        code, out, err = run(capsys, "boundary", "--weights", weights, "--res", res,
                             "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err.startswith("error: grid of ") and "points exceeds 10000000" in err

    @pytest.mark.parametrize("res", ["1", "-5"])
    @pytest.mark.parametrize("weights", ["3M;4M", "3M,3M,3M,3M;4M", "1M,2M,3M,4M,5M;4M"])
    def test_bad_resolution_exit_2_at_every_fan_in(self, capsys, tmp_path, weights, res):
        # fan-ins without a grid once took any --res and exited 0
        out_file = tmp_path / "grid.csv"
        code, out, err = run(capsys, "boundary", "--weights", weights, "--res", res,
                             "--out", str(out_file))
        assert code == 2 and out == "" and not out_file.exists()
        assert err == f"error: resolution must be >= 2, got {res}\n"

    @pytest.mark.parametrize("weights", ["3M;4M", "3M,3M,3M,3M;4M"])
    def test_no_grid_outside_two_or_three_inputs(self, capsys, weights):
        code, out, _ = run(capsys, "boundary", "--weights", weights)
        assert code == 0 and out.startswith("# hyperplane: ")
        assert all(line.startswith("# ") for line in out.splitlines())

    def test_corners_match_truth_at_the_tie_band_edge(self, capsys):
        # the input current of row 10 sits at the edge of the tie band; the grid
        # once compared conductances there and wrote 1,0,0 under class OR
        weights = "801862.7661695378,334851.10830955836;801862.7669714005"
        rule = ("--tie-rule", "threshold_wins")
        _, truth, _ = run(capsys, "truth", "--weights", weights, *rule)
        want = [f"{r[0]},{r[1]},{r.split()[1]}" for r in truth.splitlines()[1:5]]
        assert want == ["0,0,0", "0,1,1", "1,0,1", "1,1,1"]
        for res in (2, 5):
            code, out, _ = run(capsys, "boundary", "--weights", weights, *rule,
                               "--res", str(res))
            assert code == 0 and "# class: OR (MAJ-1)" in out
            rows = out.splitlines()[4:]
            corners = [rows[0], rows[res - 1], rows[res * (res - 1)], rows[-1]]
            assert corners == want

    def assert_rows_match_reference(self, capsys, weights, res, tie):
        code, out, _ = run(capsys, "boundary", "--weights", weights, "--res", str(res),
                           "--tie-rule", tie)
        gate = GateConfig(*files.parse_weights(weights), tie_rule=TieRule(tie))
        bm = boundary_grid(gate, res)
        cols = [a.ravel() for a in np.meshgrid(*bm.axes, indexing="ij")] + [bm.grid.ravel()]
        header = ",".join(f"a{i + 1}" for i in range(gate.n)) + ",class\n"
        assert code == 0
        assert_same_text(out.split("\n", 3)[3], header + reference_rows(cols))

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_match_per_value_formatting(self, capsys, seed):
        # n = 2 and 3 under both tie rules: seeds 0..3 cover all four pairs
        rng = np.random.default_rng(seed)
        n = 2 + seed % 2
        ms = rng.uniform(5e3, 200e3, n + 1)
        weights = ",".join(f"{m:.6g}" for m in ms[:n]) + f";{ms[n]:.6g}"
        tie = ("input_wins", "threshold_wins")[seed // 2 % 2]
        self.assert_rows_match_reference(capsys, weights, int(rng.integers(2, 71)), tie)

    @pytest.mark.parametrize("tie", ["input_wins", "threshold_wins"])
    @pytest.mark.parametrize("res", [2, 3, 70])
    def test_rows_match_per_value_formatting_at_exact_ties(self, capsys, res, tie):
        self.assert_rows_match_reference(capsys, "3M,3M;3M", res, tie)

    @pytest.mark.parametrize("tie", ["input_wins", "threshold_wins"])
    @pytest.mark.parametrize("weights", ["3M,3M;1M", "4M,4M,4M;1M"])
    def test_rows_match_reference_when_every_point_is_class_0(self, capsys, weights, tie):
        # the threshold conductance is above the summed input conductance
        assert not boundary_grid(GateConfig(*files.parse_weights(weights)), 9).grid.any()
        self.assert_rows_match_reference(capsys, weights, 9, tie)

    @pytest.mark.parametrize("weights", ["10k,1M;20k", "10k,1M,1M;20k"])
    def test_rows_match_reference_when_each_a1_slice_is_one_class(self, capsys, weights):
        # x1 decides alone at this resolution: every slice takes only one row tail
        grid = boundary_grid(GateConfig(*files.parse_weights(weights)), 10).grid
        slices = grid.reshape(10, -1)
        assert slices.min(axis=1).tolist() == slices.max(axis=1).tolist() == [0] * 5 + [1] * 5
        self.assert_rows_match_reference(capsys, weights, 10, "input_wins")

    @pytest.mark.parametrize("tie", ["input_wins", "threshold_wins"])
    @pytest.mark.parametrize("weights", ["3M,3M,3M;2.5M", "10k,20k,40k;30k"])
    def test_rows_match_reference_at_two_rows_per_slice(self, capsys, weights, tie):
        self.assert_rows_match_reference(capsys, weights, 2, tie)

    @pytest.mark.parametrize("tie", ["input_wins", "threshold_wins"])
    @pytest.mark.parametrize("res", [2, 3, 4, 31])
    def test_rows_match_reference_at_exact_ties_on_three_inputs(self, capsys, res, tie):
        self.assert_rows_match_reference(capsys, "3M,3M,3M;3M", res, tie)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "boundary", "--weights", "3M,3M;4M", "--res", "31", "--out", str(f1))
        run(capsys, "boundary", "--weights", "3M,3M;4M", "--res", "31", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()


class TestWave:
    def test_csv_emission(self, capsys, tmp_path):
        out_file = tmp_path / "wave.csv"
        code, _, _ = run(capsys, "wave", "--weights", "60.5k,60k;33k",
                         "--inputs", "00,01,10,11", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "t_s,clk_v,in1_v,in2_v,ca_v,co_v,cabar_v,cobar_v,resolved"
        assert len(lines) == 1 + 4 * 200  # 4 cycles at period / sample_dt = 200

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "no-such-dir" / "wave.csv"
        code, out, err = run(capsys, "wave", "--weights", "60k,30k;40k",
                             "--inputs", "01", "--out", str(out_file))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "wave.csv" in err

    def test_wrong_length_vector_exit_3(self, capsys):
        code, out, err = run(capsys, "wave", "--weights", "60k,30k;40k",
                             "--inputs", "11,111")
        assert code == 3 and out == ""
        assert err == "error: input has 3 bits, gate expects 2\n"

    def test_imbalance_past_float_range_settles(self, capsys):
        # |delta_i| * r_sense overflows; this once ended in "math domain error"
        code, out, _ = run(capsys, "wave", "--weights", "1e-305,1k;1k", "--inputs", "10")
        assert code == 0 and out.splitlines()[-1].endswith(",1")

    def test_subnormal_tau_warns_nothing(self, capsys, tmp_path):
        # -te / tau once overflowed on every evaluation sample and printed a
        # RuntimeWarning; any tau below 1e-300 puts each sample past the ramp
        outs = []
        for tau in ("1e-320", "1e-300"):
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"transient: {{tau_s: {tau}}}\n")
            outs.append(run(capsys, "wave", "--config", str(cfg),
                            "--weights", "60k,30k;40k", "--inputs", "01,11"))
        assert outs[0] == outs[1] and outs[0][0] == 0 and outs[0][2] == ""

    def test_sample_count_bound_exit_3(self, capsys, tmp_path):
        # 2e9 samples are refused before any array is built
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("clock: {sample_dt_s: 1.0e-12}\n")
        code, out, err = run(capsys, "wave", "--config", str(cfg),
                             "--weights", "60k,30k;40k", "--inputs", "01")
        assert code == 3 and out == ""
        assert err.startswith("error: trace of 2e+09 samples exceeds 10000000")

    def test_no_option_leaks_into_the_next_call(self, capsys, tmp_path):
        # the parser is built once per process and serves every call
        cfg = tmp_path / "slow_latch.yaml"
        cfg.write_text("transient: {tau_s: 2e-5}\n")
        argv = ["wave", "--weights", "60.5k,60k;33k", "--inputs", "00,01,10,11"]
        build_parser.cache_clear()
        first = run(capsys, *argv)
        other = run(capsys, *argv, "--tie-rule", "threshold_wins", "--config", str(cfg))
        assert first[0] == other[0] == 0 and other[1] != first[1]
        assert run(capsys, *argv) == first

    def test_command_found_by_name_at_call_time(self, capsys, monkeypatch):
        # a wrapper put on the module after the parser is built still runs,
        # as the traced benchmark run relies on
        build_parser()
        calls = []
        real = cli.cmd_wave
        monkeypatch.setattr(cli, "cmd_wave",
                            lambda args, cfg: calls.append(args) or real(args, cfg))
        code, out, _ = run(capsys, "wave", "--weights", "60k,30k;40k", "--inputs", "01")
        assert code == 0 and out.startswith("t_s,") and len(calls) == 1


class TestSynth:
    def test_xor_exit_3_with_witness(self, capsys):
        code, _, err = run(capsys, "synth", "--target", "XOR", "--n", "2")
        assert code == 3
        assert "witness" in err

    def test_round_trip_through_gate_file(self, capsys, tmp_path):
        gate_file = tmp_path / "gate.yaml"
        code, out, _ = run(capsys, "synth", "--target", "AND", "--n", "2",
                           "--out", str(gate_file))
        assert code == 0 and "feasible: yes" in out
        code, out, _ = run(capsys, "truth", "--gate-file", str(gate_file))
        assert code == 0
        rows = [l.split()[1] for l in out.splitlines() if l and l[0] in "01"]
        assert rows == ["0", "0", "0", "1"]

    def test_nand_read_at_co(self, capsys):
        code, out, _ = run(capsys, "synth", "--target", "NAND", "--n", "2")
        assert code == 0 and "CO output" in out

    def test_bitstring_target(self, capsys):
        code, out, _ = run(capsys, "synth", "--target", "1110")
        assert code == 0  # OR2 given as bitstring (all-ones input first)

    def test_malformed_bitstring_exit_2(self, capsys):
        code, _, err = run(capsys, "synth", "--target", "011", "--n", "2")
        assert code == 2 and "bitstring length 3" in err

    @pytest.mark.parametrize("target, message", [
        ("MAJ:x", "MAJ rank must be an integer, got 'x'"),
        ("MAJ:1.5", "MAJ rank must be an integer, got '1.5'"),
        ("maj:two", "MAJ rank must be an integer, got 'two'"),
        ("DICT:", "dictator index must be an integer, got ''"),
        (" dict:y ", "dictator index must be an integer, got 'y'"),
        ("foo", "unknown target name 'foo'"),
        (" xor3 ", "unknown target name 'xor3'"),
    ])
    def test_named_target_number_quoted_as_typed(self, capsys, target, message):
        # the name was once upper-cased first, and int() quoted 'X' in its own words
        code, out, err = run(capsys, "synth", "--target", target, "--n", "3")
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_quantized_output_flag(self, capsys, tmp_path):
        gate_file = tmp_path / "gate.yaml"
        code, out, _ = run(capsys, "synth", "--target", "MAJ:2", "--n", "3",
                           "--out", str(gate_file), "--quantized")
        assert code == 0 and "(verified)" in out

    @pytest.mark.parametrize("extra", [(), ("--quantized",)])
    def test_out_dash_refused_before_synthesis(self, capsys, tmp_path, monkeypatch, extra):
        # the report already goes to stdout; "-" once became a file of that name
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "synth", "--target", "AND", "--n", "2",
                             "--out", "-", *extra)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "file path" in err
        assert list(tmp_path.iterdir()) == []


class TestGoldenSynth:
    """Exit code and SHA-256 of the stdout and stderr of fixed synth runs,
    recorded while synthesize solved the unbounded LP on every target and
    verify_config added Fractions."""

    CASES = {
        "maj5_n10": (["synth", "--target", "MAJ:5", "--n", "10"], 0,
                     "5bfc74c304c486acc70a6b8938f98f5b6f3eccf86a71de09c1cc526913f4cc2c",
                     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "maj8_n10_quantized_fails": (
            ["synth", "--target", "MAJ:8", "--n", "10"], 0,
            "b1dba5ba6eab9f52cc34487ef73adfab403a49fc1eb91c7f420e35d8d070ab0b",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "and_n10": (["synth", "--target", "AND", "--n", "10"], 0,
                    "5ab99a4ea865c3e99a5472f48e6a7973ece5990d4f313803a0d2e80dd27eab93",
                    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        # [3 x1 + 2 x2 + x3 + x4 >= 3]
        "weighted_bitstring": (
            ["synth", "--target", "1111111111100000", "--tie-rule", "threshold_wins"], 0,
            "83b690f491beb7bd201c194968ca71f67387ae76580c01ff846a284e243a8f9d",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "xor_n3_witness": (["synth", "--target", "XOR", "--n", "3"], 3,
                           "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                           "df552492ddbc039333b3369e0e45508f2873e81a9cd399cf5a1c7695ff5bf92f"),
        # x1x2 v x3x4: monotone, so there is no witness
        "monotone_unseparable": (
            ["synth", "--target", "1111100010001000"], 3,
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "e14dfe4d23c838174c3358959a9575759dc5d0072c8dc0417fdef3d6384fa3fa"),
        "device_range": (["synth", "--target", "MAJ:5", "--n", "10", "--margin", "0.5"], 3,
                         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
                         "a3914ad1fb54dbaf8d9470c0f6d1bc7ad8b60aedd74e2916b860c4ad0466573f"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_output_digest(self, capsys, name):
        argv, code, out_digest, err_digest = self.CASES[name]
        got, out, err = run(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest
        assert hashlib.sha256(err.encode()).hexdigest() == err_digest


class TestProgram:
    def test_reports_pulses_and_resistance(self, capsys):
        code, out, _ = run(capsys, "program", "--target", "33k")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        r = float(fields["final_resistance_ohm"])
        assert abs(r - 33e3) <= 0.01 * 33e3
        assert int(fields["pulses"]) <= 200

    def test_out_of_range_exit_3(self, capsys):
        code, _, _ = run(capsys, "program", "--target", "5k")
        assert code == 3

    def test_start_out_of_range_exit_3(self, capsys):
        code, out, err = run(capsys, "program", "--target", "33k", "--start", "5k")
        assert (code, out) == (3, "")
        assert err == "error: resistance 5000 outside [10000, 100000]\n"

    def test_timeout_exit_3(self, capsys):
        code, _, err = run(capsys, "program", "--target", "33k", "--max-pulses", "1")
        assert code == 3 and err.startswith("error: did not reach 33000 ohm")

    def test_budget_past_sys_maxsize(self, capsys):
        # once exit 1 with an OverflowError traceback from the planner
        code, out, err = run(capsys, "program", "--target", "33k",
                             "--max-pulses", "100000000000000000000")
        assert (code, err) == (0, "")
        assert out == run(capsys, "program", "--target", "33k")[1]

    @pytest.mark.parametrize("option, value", [
        ("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"), ("--tol", "-0.01"),
        ("--max-pulses", "-5"), ("--tol", "1e-17"), ("--tol", "1e-16"),
    ])
    def test_bad_tolerance_or_budget_exit_3(self, capsys, option, value):
        # --tol inf once took any start as in band and exited 0 after 0 pulses;
        # --max-pulses -5 once failed "within 0 pulses"; --tol 1e-17 (below
        # float epsilon) once pulsed the whole budget and then timed out
        code, out, err = run(capsys, "program", "--target", "33k", option, value)
        assert code == 3 and out == ""
        assert err.startswith("error: require finite tol_rel > 0 and max_pulses >= 0")


class TestConfigFile:
    def test_config_drives_device_profile(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("device:\n  r_min_ohm: 1.0e+6\n  r_max_ohm: 1.0e+7\n")
        code, out, _ = run(capsys, "program", "--config", str(cfg),
                           "--target", "2M")
        assert code == 0
        assert abs(float(out.split("final_resistance_ohm=")[1].split()[0]) - 2e6) <= 2e4

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("device:\n  rmin: 1000\n")
        code, _, _ = run(capsys, "eval", "--config", str(cfg),
                         "--weights", "10k;20k", "--input", "1")
        assert code == 2

    @pytest.mark.parametrize("text", ["transient: {tau_s: [1e-7\n", "a: b: c\n",
                                      "device:\n  - x\n - y\n"])
    def test_malformed_yaml_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text)
        code, out, err = run(capsys, "eval", "--config", str(cfg),
                             "--weights", "10k;20k", "--input", "1")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {cfg}: ")

    def test_read_voltage_at_programming_threshold_exit_2(self, capsys, tmp_path):
        # once accepted: synth printed a "(verified)" gate whose reads program it
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("device: {v_prog_threshold_v: 0.5}\n")
        code, out, err = run(capsys, "synth", "--config", str(cfg), "--target", "AND",
                             "--n", "2")
        assert code == 2 and out == ""
        assert "must be below device.v_prog_threshold_v 0.5" in err

    def test_tie_rule_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "--weights", "2M;2M", "--input", "1",
                           "--tie-rule", "threshold_wins")
        assert code == 0 and "CA=0" in out
        code, out, _ = run(capsys, "eval", "--weights", "2M;2M", "--input", "1")
        assert code == 0 and "CA=1" in out


TIE_GATE = "input_memristances_ohm: [2M]\nthreshold_memristances_ohm: [2M]\n"
TIE_NETLIST = ("inputs: 1\ngates:\n  - {name: g, inputs: [2M], threshold: [2M]}\n"
               "wires:\n  - {from: in1, to: g.1}\noutputs: [g.CA]\n")
RULES = (None, "input_wins", "threshold_wins")


class TestTieRuleOrder:
    """The tie rule comes from --tie-rule, then the gate's file, then the
    project config, then input_wins, for every gate source. Each source is a
    gate whose two currents tie at input 1, so CA there is the rule."""

    @pytest.mark.parametrize("flag", RULES)
    @pytest.mark.parametrize("config_rule", RULES)
    @pytest.mark.parametrize("source, file_rule", [("weights", None)] + [
        (source, rule) for source in ("gate-file", "netlist") for rule in RULES])
    def test_order(self, capsys, tmp_path, source, file_rule, config_rule, flag):
        # the flag was once dropped for a netlist that names its own tie_rule,
        # and a gate file without one once read as input_wins whatever --config said
        argv = ["truth"]
        if source == "weights":
            argv += ["--weights", "2M;2M"]
        else:
            path = tmp_path / "source.yaml"
            path.write_text((TIE_GATE if source == "gate-file" else TIE_NETLIST)
                            + (f"tie_rule: {file_rule}\n" if file_rule else ""))
            argv += [f"--{source}", str(path)]
        if config_rule:
            cfg = tmp_path / "cfg.yaml"
            cfg.write_text(f"tie_rule: {config_rule}\n")
            argv += ["--config", str(cfg)]
        if flag:
            argv += ["--tie-rule", flag]
        code, out, _ = run(capsys, *argv)
        (row,) = [l.split() for l in out.splitlines() if l.strip().startswith("1 ")]
        rule = flag or file_rule or config_rule or "input_wins"
        assert code == 0 and row[1] == ("1" if rule == "input_wins" else "0")


EVAL_WITH_CONFIG = ("eval", "--config", "{file}", "--weights", "10k;20k", "--input", "1")
PROGRAM_WITH_CONFIG = ("program", "--config", "{file}", "--target", "33k")
WAVE_WITH_CONFIG = ("wave", "--config", "{file}", "--weights", "10k;20k", "--inputs", "1")
BOUNDARY = ("boundary", "--weights", "3M,3M;4M")
SYNTH_AND = ("synth", "--target", "AND", "--n", "2")


NETLIST_ARGV = ("truth", "--netlist", "{file}")


def one_input_netlist(wires, outputs="g.CA", inputs=1, gates=("g",)):
    """Netlist text of 10k:10k one-input gates with the given wires (flow YAML)."""
    lines = "".join(f"  - {{name: {g}, inputs: [10k], threshold: [10k]}}\n" for g in gates)
    return f"inputs: {inputs}\ngates:\n{lines}wires: [{wires}]\noutputs: [{outputs}]\n"


class TestBadInput:
    """Inputs that must end in exit 2 with one error line, many of which once
    ended in a traceback or were taken without a check: (file text or None,
    argv with {file} for its path, expected in stderr)."""

    CASES = {
        "device_scalar": ("device: 5\n", EVAL_WITH_CONFIG, "device: expected a mapping"),
        "levels_list": ("levels: [1, 2]\n", EVAL_WITH_CONFIG, "levels: expected a mapping"),
        "transient_scalar": ("transient: 3\n", EVAL_WITH_CONFIG,
                             "transient: expected a mapping"),
        "clock_list": ("clock: [1]\n", EVAL_WITH_CONFIG, "clock: expected a mapping"),
        "seed_text": ("device: {seed: abc, noise_sigma_rel: 0.01}\n", PROGRAM_WITH_CONFIG,
                      "device.seed: expected an integer"),
        "seed_fraction": ("device: {seed: 1.5, noise_sigma_rel: 0.01}\n",
                          PROGRAM_WITH_CONFIG, "device.seed: expected an integer"),
        "bits_fraction": ("device: {bits: 2.5}\n", EVAL_WITH_CONFIG,
                          "device.bits: expected an integer"),
        # YAML booleans: bits once read as 1, and synth exited 0 with "FAILS at row 1"
        "bits_true": ("device: {bits: true}\n", ("synth", "--config", "{file}", "--target",
                                                "AND", "--n", "2"),
                      "device.bits: expected an integer, got True"),
        "seed_yes": ("device: {seed: yes, noise_sigma_rel: 0.01}\n", PROGRAM_WITH_CONFIG,
                     "device.seed: expected an integer, got True"),
        "tau_on": ("transient: {tau_s: on}\n", WAVE_WITH_CONFIG,
                   "transient.tau_s: expected a number, got True"),
        "netlist_inputs_true": ("inputs: true\n"
                                "gates: [{name: g, inputs: [10k], threshold: [10k]}]\n"
                                "wires: [{from: in1, to: g.1}]\noutputs: [g.CA]\n",
                                ("truth", "--netlist", "{file}"),
                                "inputs: expected an integer, got True"),
        "netlist_gates_scalar": ("inputs: 1\ngates: 5\n", ("truth", "--netlist", "{file}"),
                                 "gates: expected a list"),
        "netlist_outputs_scalar": ("inputs: 1\noutputs: 5\n",
                                   ("truth", "--netlist", "{file}"), "outputs: expected a list"),
        # once exit 3: "primary input in1 does not exist"
        "netlist_inputs_negative": ("inputs: -1\n"
                                    "gates: [{name: g, inputs: [10k], threshold: [10k]}]\n"
                                    "wires: [{from: in1, to: g.1}]\noutputs: [g.CA]\n",
                                    ("truth", "--netlist", "{file}"),
                                    "inputs: expected an integer >= 0, got -1"),
        "gate_file_inf": ("input_memristances_ohm: [.inf]\n"
                          "threshold_memristances_ohm: [10k]\n",
                          ("truth", "--gate-file", "{file}"), "input_memristances_ohm[0]"),
        "weights_overflow": (None, ("eval", "--weights", "1k,1e400;1k", "--input", "11"),
                             "'1e400' at position 3"),
        "n_negative": (None, ("synth", "--target", "AND", "--n", "-1"), "n in 1..10"),
        "n_11": (None, ("synth", "--target", "AND", "--n", "11"), "n in 1..10"),
        "n_20": (None, ("synth", "--target", "AND", "--n", "20"), "n in 1..10"),
        "r_max_inf": ("device: {r_max_ohm: .inf}\n", PROGRAM_WITH_CONFIG,
                      "device.r_max_ohm: expected a number, got inf"),
        "period_inf": ("clock: {period_s: .inf}\n", WAVE_WITH_CONFIG,
                       "clock.period_s: expected a number, got inf"),
        "tau_inf": ("transient: {tau_s: .inf}\n", EVAL_WITH_CONFIG,
                    "transient.tau_s: expected a number, got inf"),
        "noise_nan": ("device: {noise_sigma_rel: .nan}\n", PROGRAM_WITH_CONFIG,
                      "device.noise_sigma_rel: expected a number, got nan"),
        "clock_duty_eval": ("clock: {duty_eq: 1.5}\n", EVAL_WITH_CONFIG,
                            "clock: duty_eq must be in (0, 1)"),
        "res_0": (None, (*BOUNDARY, "--res", "0"), "resolution must be >= 2, got 0"),
        "res_1": (None, (*BOUNDARY, "--res", "1"), "resolution must be >= 2, got 1"),
        "margin_nan": (None, (*SYNTH_AND, "--margin", "nan"), "min_margin_rel must be >= 0"),
        "margin_negative": (None, (*SYNTH_AND, "--margin", "-1"),
                            "min_margin_rel must be >= 0"),
        "margin_inf": (None, (*SYNTH_AND, "--margin", "inf"),
                       "min_margin_rel must be >= 0 and finite, got inf"),
        # once exit 3 from NumPy with noise, and taken silently without it
        "seed_negative": ("device: {seed: -1, noise_sigma_rel: 0.01}\n", PROGRAM_WITH_CONFIG,
                          "device.seed: expected an integer >= 0, got -1"),
        "seed_negative_noiseless": ("device: {seed: -1, noise_sigma_rel: 0}\n",
                                    PROGRAM_WITH_CONFIG,
                                    "device.seed: expected an integer >= 0, got -1"),
        "tie_rule_flag": (None, ("eval", "--weights", "10k;20k", "--input", "1",
                                 "--tie-rule", "bogus"),
                          "tie_rule must be 'input_wins' or 'threshold_wins', got 'bogus'"),
        "tie_rule_yaml": ("tie_rule: x\n", EVAL_WITH_CONFIG,
                          "tie_rule must be 'input_wins' or 'threshold_wins', got 'x'"),
        "netlist_gate_unnamed": ("inputs: 1\ngates: [{inputs: [10k], threshold: [10k]}]\n",
                                 NETLIST_ARGV, "gates[0]: gate needs a name"),
        "netlist_gate_duplicate": ("inputs: 1\ngates:\n"
                                   "  - {name: g, inputs: [10k], threshold: [10k]}\n"
                                   "  - {name: g, inputs: [20k], threshold: [10k]}\n",
                                   NETLIST_ARGV, "gates[1]: duplicate gate name 'g'"),
        "netlist_output_bad": (one_input_netlist("{from: in1, to: g.1}", outputs="g.XX"),
                               NETLIST_ARGV,
                               "outputs[0]: output must be '<gate>.<CA|CO>', got 'g.XX'"),
        "input_not_binary": (None, ("eval", "--weights", "10k,10k,10k;20k", "--input", "012"),
                             "input must be a 0/1 string, got '012'"),
        "named_target_without_n": (None, ("synth", "--target", "AND"),
                                   "named targets need --n"),
        "maj_rank_4_of_3": (None, ("synth", "--target", "MAJ:4", "--n", "3"),
                            "MAJ rank must be in 1..3, got 4"),
        "dict_0_of_3": (None, ("synth", "--target", "DICT:0", "--n", "3"),
                        "dictator index must be in 1..3, got 0"),
        "bits_8": ("device: {bits: 8}\n", PROGRAM_WITH_CONFIG,
                   "device: bits must be in 1..7, got 8"),
        "r_min_at_r_max": ("device: {r_min_ohm: 50000, r_max_ohm: 50000}\n",
                           PROGRAM_WITH_CONFIG, "device: require 0 < r_min < r_max"),
        "step_fraction_1": ("device: {step_fraction: 1}\n", PROGRAM_WITH_CONFIG,
                            "device: step_fraction must be in (0, 1)"),
        "noise_negative": ("device: {noise_sigma_rel: -1}\n", PROGRAM_WITH_CONFIG,
                           "device: noise_sigma_rel must be >= 0"),
        "period_0": ("clock: {period_s: 0}\n", WAVE_WITH_CONFIG, "clock: period must be > 0"),
        "tau_0": ("transient: {tau_s: 0}\n", WAVE_WITH_CONFIG,
                  "transient: all transient parameters must be > 0"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit_2_with_error_line(self, capsys, tmp_path, name):
        text, argv, expected = self.CASES[name]
        path = tmp_path / "input.yaml"
        if text is not None:
            path.write_text(text)
        code, out, err = run(capsys, *(a.replace("{file}", str(path)) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert expected in err


class TestNetlistDiagnostics:
    """Netlists that parse but fail validation: exit 3 with the diagnostic."""

    CASES = {
        "wire_to_unknown_gate": (
            one_input_netlist("{from: in1, to: g.1}, {from: in1, to: ghost.1}"),
            "wire targets unknown gate 'ghost'"),
        "bad_slot": (one_input_netlist("{from: in1, to: g.1}, {from: in1, to: g.2}"),
                     "gate 'g' has no input slot 2 (fan-in 1)"),
        "unknown_input": (one_input_netlist("{from: in2, to: g.1}"),
                          "primary input in2 does not exist"),
        "output_on_unknown_gate": (one_input_netlist("{from: in1, to: g.1}", outputs="ghost.CA"),
                                   "output taps unknown gate 'ghost'"),
        "slot_driven_twice": (
            one_input_netlist("{from: in1, to: g.1}, {from: in1, to: h.1}, {from: g.CA, to: h.1}",
                              outputs="h.CA", gates=("g", "h")),
            "gate 'h' input slot 1 driven by in1, g.CA"),
        "over_16_inputs": (one_input_netlist("{from: in1, to: g.1}", inputs=17),
                           "17 primary inputs > 16"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit_3_with_diagnostic(self, capsys, tmp_path, name):
        text, expected = self.CASES[name]
        path = tmp_path / "net.yaml"
        path.write_text(text)
        code, out, err = run(capsys, "truth", "--netlist", str(path))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and expected in err


class TestGoldenCsv:
    """SHA-256 of the stdout of fixed wave and boundary runs, recorded before
    the sampler and the CSV writers worked on arrays; the two 4096-row cases
    were recorded while one shared writer still joined each row on its own."""

    CASES = {
        "wave_n1": (["wave", "--weights", "50k;60k", "--inputs", "1,0,1,1,0"],
                    "429867df6f7c3cef93e8469818b05aa70e09e370317d1584f0a571a36a00cb7d"),
        "wave_n3": (["wave", "--weights", "60k,45k,30k;40k",
                     "--inputs", "000,001,010,011,100,101,110,111"],
                    "2262b3310bae206d5a0b636d592467fcad778608f56b81ee34e0e650418f6e58"),
        "wave_n4": (["wave", "--weights", "100k,50k,33k,25k;20k",
                     "--tie-rule", "threshold_wins",
                     "--inputs", "0000,1111,0101,1010,0011,1100"],
                    "a36875ff431fa51a8d890c55ad6888dde75a8bc5797394b190bcbffb499bd5ef"),
        "wave_slow_latch": (["wave", "--config", "{config}",
                             "--weights", "60.5k,60k;33k", "--inputs", "00,01,10,11"],
                            "0d8c5692f2f516d36b5d0607294a5829dad2b747e683d9f4c587a830b7280447"),
        "wave_tie": (["wave", "--weights", "3M,3M;3M", "--inputs", "10,11,00,01"],
                     "cce6276a4cbd3b656c0a272bf3ae54f163f5b4df7d932e12e8c55b035359a3fe"),
        "boundary_n2_res2": (["boundary", "--weights", "3M,3M;2.5M", "--res", "2"],
                             "82699a0fd47f301da63481f106f12e46ffbc45e1b06dafcffda01f38965f91b2"),
        "boundary_n2_res201": (["boundary", "--weights", "3M,3M;4M",
                                "--tie-rule", "threshold_wins", "--res", "201"],
                               "a140002f2050727941e9f71b9bfbe32633cc6a950e53313e2b13fcae3ef7f5ef"),
        "boundary_n3_res41": (["boundary", "--weights", "60k,45k,30k;40k", "--res", "41"],
                              "50b5a44f24c376c5f01030aa1595d178861da7d721838140ab8f002833e9725a"),
        # 64 x 64 = 4096 rows: recorded as exactly one full 4096-row block
        "boundary_n2_res64": (["boundary", "--weights", "3M,3M;4M", "--res", "64"],
                              "e74675ce0b5df9fb0d96daa680dd9eed66dbcf0625110da47efa5cb552ecc841"),
        # 21 cycles x 200 samples = 4200 rows: crosses one block edge
        "wave_n2_21_cycles": (["wave", "--weights", "60.5k,60k;33k",
                               "--inputs", ",".join(["00", "01", "10", "11"] * 5 + ["01"])],
                              "66777ccddf5354d1bd2076e293800888965bb48e9958e1075ac97affdfbb2c94"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_digest(self, capsys, tmp_path, name):
        argv, digest = self.CASES[name]
        config = tmp_path / "slow_latch.yaml"
        config.write_text("transient: {tau_s: 2e-5}\n")
        code, out, err = run(capsys, *(a.replace("{config}", str(config)) for a in argv))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


TWO_GATE_NETLIST = """\
inputs: 3
gates:
  - name: and1
    inputs: [60.5k, 60k]
    threshold: [33k]
  - name: or2
    inputs: [33.8k, 18.3k]
    threshold: [41.6k]
wires:
  - {from: in1, to: and1.1}
  - {from: in2, to: and1.2}
  - {from: and1.CO, to: or2.1}
  - {from: in3, to: or2.2}
outputs: [or2.CA, and1.CO]
"""

# integer weights 1,2,3 (x4) against 6 + 3 = 9, in units of 1/60k: every row
# whose weights add to exactly 9 is a tie
TIES_N12 = ",".join(["60k", "30k", "20k"] * 4) + ";10k,20k"


class TestGoldenTruth:
    """Exit code and SHA-256 of the stdout of fixed truth runs, recorded while
    TruthTable still converted and checked its outputs one row at a time."""

    CASES = {
        "gate_n3": (["truth", "--weights", "60k,45k,30k;40k"],
                    "f9b9d1d7c6f279f6e1c09e541e5908fc951658a6f273fea1b9367e556079335e"),
        "ties_n12_input_wins": (
            ["truth", "--weights", TIES_N12, "--tie-rule", "input_wins"],
            "7932b5c8c903004512d65f0c51582776c454547e8e14833ec4721c3a9570183f"),
        "ties_n12_threshold_wins": (
            ["truth", "--weights", TIES_N12, "--tie-rule", "threshold_wins"],
            "24e6b8574b89b1743480f6ed59818c94e8a805018344da0e795a125599b4d86f"),
        "netlist_co_tap": (["truth", "--netlist", "{netlist}"],
                           "b29ec11e1d93326437fa5def434a98d6a00b96d15e8db7476a0d66ac30f1dadb"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_digest(self, capsys, tmp_path, name):
        argv, digest = self.CASES[name]
        netlist = tmp_path / "two_gate.yaml"
        netlist.write_text(TWO_GATE_NETLIST)
        code, out, err = run(capsys, *(a.replace("{netlist}", str(netlist)) for a in argv))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestGoldenEval:
    """Exit code and SHA-256 of the stdout of fixed eval runs, recorded while
    eval summed the branch currents a second time to print them."""

    CASES = {
        "and_11": (["eval", "--weights", "60.5k,60k;33k", "--input", "11"], 0,
                   "0e88bed4d93049286ff6d0fdeb3365953f47c6fa32e55a600b3693d419b1c33c"),
        "zero_input": (["eval", "--weights", "10k;99k", "--input", "0"], 0,
                       "e8eae77f5152e5fd0260b0a83f4d7f8816913da3029016d5317b05d6cfb8950c"),
        # x3, x6 and x9 weigh 3 + 3 + 3 = 9: exactly the threshold
        "ties_n12_input_wins": (
            ["eval", "--weights", TIES_N12, "--tie-rule", "input_wins",
             "--input", "001001001000"], 0,
            "71ba33bb8d0204d414ce2b38d02922128e9b0f47fce0518ceea3be45903ef10c"),
        "ties_n12_threshold_wins": (
            ["eval", "--weights", TIES_N12, "--tie-rule", "threshold_wins",
             "--input", "001001001000"], 0,
            "6ad4b2475245d5b0b2482689d9a87dfdb8665afaedccee5c62cac7beb9f49ce9"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_digest(self, capsys, name):
        argv, code, digest = self.CASES[name]
        got, out, err = run(capsys, *argv)
        assert got == code and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestArgparseExits:
    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), (["eval", "--help"], 0),
        ([], 2), (["bogus"], 2), (["eval", "--weights", "10k;20k"], 2),
        (["eval", "--input", "1"], 2),
        (["program", "--target", "33k", "--max-pulses", "many"], 2),
    ])
    def test_main_returns_argparse_exit_code(self, capsys, argv, code):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out.startswith("usage: mtlg") if code == 0 else err.startswith("usage: mtlg")


class TestOneReadingPerInput:
    """Command lines of which only a part was read: the input that lost an
    unwritten precedence, or that its command never looked at, was dropped
    and the command exited 0. Each is refused with exit 2 now."""

    GATE = "input_memristances_ohm: [60500, 60000]\nthreshold_memristances_ohm: [33000]\n"
    CASES = {
        "gate_file_and_weights": (("eval", "--gate-file", "{gate}", "--weights", "garbage",
                                   "--input", "11"),
                                  "usage: mtlg eval", "not allowed with argument"),
        "netlist_weights_and_gate_file": (("truth", "--netlist", "{net}", "--weights",
                                           "garbage", "--gate-file", "{missing}"),
                                          "usage: mtlg truth", "not allowed with argument"),
        "netlist_and_gate_file": (("truth", "--netlist", "{net}", "--gate-file", "{gate}"),
                                  "usage: mtlg truth", "not allowed with argument"),
        "program_tie_rule": (("program", "--target", "33k", "--tie-rule", "bogus"),
                             "usage: mtlg", "unrecognized arguments: --tie-rule bogus"),
        "quantized_without_out": (("synth", "--target", "AND", "--n", "2", "--quantized"),
                                  "error: --quantized needs --out", ""),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_exit_2(self, capsys, tmp_path, name):
        argv, err_start, err_part = self.CASES[name]
        (tmp_path / "gate.yaml").write_text(self.GATE)
        (tmp_path / "net.yaml").write_text(XOR_NETLIST)
        paths = {"gate": tmp_path / "gate.yaml", "net": tmp_path / "net.yaml",
                 "missing": tmp_path / "missing.yaml"}
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith(err_start) and err_part in err

    def test_program_takes_no_tie_rule(self, capsys):
        assert main(["program", "--help"]) == 0
        assert "--tie-rule" not in capsys.readouterr().out


def _subparsers():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _exclusive_with(sp, option):
    """The options that `option` may not share a command line with, itself too."""
    for group in sp._mutually_exclusive_groups:
        names = {a.option_strings[0] for a in group._group_actions}
        if option in names:
            return names
    return set()


VALID = {
    "eval": {"--weights": "60.5k,60k;33k", "--input": "11"},
    "truth": {"--weights": "60.5k,60k;33k"},
    "boundary": {"--weights": "60.5k,60k;33k", "--res": "3"},
    "wave": {"--weights": "60.5k,60k;33k", "--inputs": "01"},
    "synth": {"--target": "AND", "--n": "2"},
    "program": {"--target": "33k"},
}


class TestEveryOptionIsRead:
    """An invalid value for any option that takes one, on an otherwise valid
    command line, ends in exit 2 or 3. An option that nothing reads, or whose
    value is dropped when empty, would exit 0."""

    OPTIONS = [(name, a.option_strings[0]) for name, sp in _subparsers().items()
               for a in sp._actions if a.option_strings and a.nargs != 0]

    def test_every_command_has_a_valid_line(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert set(VALID) == set(_subparsers())
        for command, options in VALID.items():
            assert main([command, *itertools.chain(*options.items())]) == 0, command

    @pytest.mark.parametrize("value", ["", "{tmp}/missing/x"])
    @pytest.mark.parametrize("command, option", OPTIONS)
    def test_invalid_value_refused(self, capsys, tmp_path, command, option, value):
        rivals = _exclusive_with(_subparsers()[command], option)
        options = {k: v for k, v in VALID[command].items() if k not in rivals}
        options[option] = value.format(tmp=tmp_path)
        code = main([command, *itertools.chain(*options.items())])
        assert code in (2, 3), (command, option, value)
        assert "error: " in capsys.readouterr().err


class TestProjectConfigLoadedOnce:
    @pytest.mark.parametrize("command", sorted(VALID))
    def test_one_load_per_main_call(self, capsys, tmp_path, monkeypatch, command):
        cfg = tmp_path / "project.yaml"
        cfg.write_text("tie_rule: threshold_wins\n")
        calls = []
        real = files.load_project_config
        monkeypatch.setattr(files, "load_project_config",
                            lambda path: calls.append(path) or real(path))
        argv = [command, *itertools.chain(*VALID[command].items())]
        assert main(argv) == 0 and calls == []
        for n in (1, 2):
            assert main([*argv, "--config", str(cfg)]) == 0
            assert calls == [str(cfg)] * n


def _readme_examples():
    """(argv, expected exit, documented stdout lines) for every `mtlg` line of
    README's "Command line" block. A trailing `# exit N` names the exit code;
    comment lines right below a command are its output."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    examples = []
    for i, line in enumerate(lines):
        if line.startswith("mtlg "):
            code = re.search(r"# exit (\d)", line)
            doc = itertools.takewhile(lambda x: x.startswith("# "), lines[i + 1:])
            examples.append((shlex.split(line, comments=True)[1:],
                             int(code.group(1)) if code else 0, [d[2:] for d in doc]))
    return examples


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:

    def test_block_found(self):
        assert len(README_EXAMPLES) >= 8
        assert (["eval", "--weights", "60.5k,60k;33k", "--input", "11"], 0,
                ["CA=1 CO=0 Iin=2.1577e-05 Ith=1.9697e-05"]) in README_EXAMPLES
        assert sum(code == 3 for _, code, _ in README_EXAMPLES) == 1

    @pytest.mark.parametrize("argv, code, doc", README_EXAMPLES,
                             ids=[" ".join(argv) for argv, _, _ in README_EXAMPLES])
    def test_runs_as_documented(self, capsys, tmp_path, monkeypatch, argv, code, doc):
        monkeypatch.chdir(tmp_path)
        got, out, err = run(capsys, *argv)
        assert got == code, err
        if doc:
            assert out.splitlines() == doc


class TestScipyLoadedOnFirstSynthesis:
    """Only the synthesis LP needs SciPy, and importing it takes most of the
    start-up time of a command: it stays unloaded until the first LP solve."""

    SCRIPT = textwrap.dedent("""\
        import contextlib, io, sys
        import mtlg
        from mtlg import cli
        commands = [
            ["eval", "--weights", "60.5k,60k;33k", "--input", "11"],
            ["truth", "--weights", "31.5k,30k,28.2k;68.2k"],
            ["boundary", "--weights", "3M,3M;2.5M", "--res", "11"],
            ["wave", "--weights", "60.5k,60k;33k", "--inputs", "00,11"],
            ["program", "--target", "33k"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in commands]
        assert codes == [0] * 5, codes
        assert "scipy" not in sys.modules, "scipy loaded before any synthesis"
        from mtlg.synth import check_separability, named_truth_table
        feasible, _ = check_separability(named_truth_table("AND", 2)[0])
        assert feasible
        assert "scipy.optimize" in sys.modules
        print("ok")
        """)

    def test_commands_without_synthesis_leave_scipy_unloaded(self):
        src = str(Path(mtlg.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path},
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"
