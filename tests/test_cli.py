import hashlib

import pytest

from mtlg.cli import main

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

    def test_quantized_output_flag(self, capsys, tmp_path):
        gate_file = tmp_path / "gate.yaml"
        code, out, _ = run(capsys, "synth", "--target", "MAJ:2", "--n", "3",
                           "--out", str(gate_file), "--quantized")
        assert code == 0 and "(verified)" in out


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

    def test_tie_rule_flag(self, capsys):
        code, out, _ = run(capsys, "eval", "--weights", "2M;2M", "--input", "1",
                           "--tie-rule", "threshold_wins")
        assert code == 0 and "CA=0" in out
        code, out, _ = run(capsys, "eval", "--weights", "2M;2M", "--input", "1")
        assert code == 0 and "CA=1" in out


class TestGoldenCsv:
    """SHA-256 of the stdout of fixed wave and boundary runs, recorded before
    the sampler and the CSV writers worked on arrays."""

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
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_stdout_digest(self, capsys, tmp_path, name):
        argv, digest = self.CASES[name]
        config = tmp_path / "slow_latch.yaml"
        config.write_text("transient: {tau_s: 2e-5}\n")
        code, out, err = run(capsys, *(a.replace("{config}", str(config)) for a in argv))
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest
