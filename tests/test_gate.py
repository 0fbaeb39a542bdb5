import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mtlg import gate as gate_mod
from mtlg.gate import (
    DimensionMismatchError,
    FanInError,
    GateConfig,
    GateKind,
    TieRule,
    TruthTable,
    VoltageLevels,
    bits_of_index,
    boundary_grid,
    branch_currents,
    classify,
    decide,
    decision_hyperplane,
    evaluate,
    input_columns,
    truth_table,
)
from oracles import exact_branch_currents, exact_ca, exact_truth_table

AND_HW = GateConfig((60.5e3, 60e3), (33e3,))
OR_HW = GateConfig((33.8e3, 18.3e3), (41.6e3,))
OR3_HW = GateConfig((31.5e3, 30e3, 28.2e3), (68.2e3,))


class TestBranchCurrents:
    def test_and_config_both_active(self):
        bc = branch_currents(AND_HW, (1, 1))
        i_in, i_th = exact_branch_currents((60.5e3, 60e3), (33e3,), (1, 1), 0.65)
        assert bc.i_in == pytest.approx(float(i_in), rel=1e-12)
        assert bc.i_th == pytest.approx(float(i_th), rel=1e-12)
        # the numbers themselves
        assert bc.i_in == pytest.approx(21.577e-6, rel=1e-4)
        assert bc.i_th == pytest.approx(19.697e-6, rel=1e-4)

    def test_all_zero_input_draws_nothing(self):
        assert branch_currents(OR3_HW, (0, 0, 0)).i_in == 0.0

    def test_or_config_single_input(self):
        bc = branch_currents(OR_HW, (0, 1))
        assert bc.i_in == pytest.approx(35.52e-6, rel=1e-3)
        assert bc.i_th == pytest.approx(15.63e-6, rel=1e-3)
        assert bc.i_in > bc.i_th

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            branch_currents(AND_HW, (1, 0, 1))


class TestEvaluate:
    def test_and_corners(self):
        cas = [evaluate(AND_HW, b).ca for b in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert cas == [0, 0, 0, 1]

    def test_or_corners(self):
        cas = [evaluate(OR_HW, b).ca for b in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert cas == [0, 1, 1, 1]

    def test_complementarity(self):
        for k in range(8):
            out = evaluate(OR3_HW, bits_of_index(k, 3))
            assert out.co == 1 - out.ca

    def test_mega_ohm_dictator(self):
        cfg = GateConfig((8e6, 2e6, 4e6), (2e6,))
        for k in range(8):
            bits = bits_of_index(k, 3)
            assert evaluate(cfg, bits).ca == bits[1]  # f = x2

    def test_one_vector_types_and_column_checks(self):
        out, bc = evaluate(OR3_HW, (1, 0, 1)), branch_currents(OR3_HW, (1, 0, 1))
        assert type(out.ca) is int and type(out.co) is int
        assert type(bc.i_in) is float and type(bc.i_th) is float
        assert type(out.i_in) is float and type(out.i_th) is float
        cols = input_columns(3)
        with pytest.raises(DimensionMismatchError):
            evaluate(OR3_HW, cols[:2])
        with pytest.raises(ValueError, match="0/1"):
            evaluate(OR3_HW, [cols[0], cols[1], np.full(8, 2, np.int8)])


class TestTruthTable:
    def test_and_table(self):
        assert truth_table(AND_HW).outputs == (0, 0, 0, 1)

    def test_or3_table(self):
        assert truth_table(OR3_HW).outputs == (0, 1, 1, 1, 1, 1, 1, 1)

    def test_mega_ohm_or(self):
        cfg = GateConfig((3e6, 3e6), (5e6,))
        assert truth_table(cfg).outputs == (0, 1, 1, 1)

    def test_tie_majority(self):
        cfg = GateConfig((2e6, 2e6, 2e6), (1e6,))
        tt = truth_table(cfg)
        want = tuple(1 if sum(bits_of_index(k, 3)) >= 2 else 0 for k in range(8))
        assert tt.outputs == want

    def test_tie_rule_flips_tie_rows(self):
        iw = GateConfig((2e6, 2e6, 2e6), (1e6,), tie_rule=TieRule.INPUT_WINS)
        tw = GateConfig((2e6, 2e6, 2e6), (1e6,), tie_rule=TieRule.THRESHOLD_WINS)
        want_tw = tuple(1 if sum(bits_of_index(k, 3)) >= 3 else 0 for k in range(8))
        assert truth_table(tw).outputs == want_tw
        assert truth_table(iw).outputs != truth_table(tw).outputs

    def test_matches_exact_oracle(self):
        for cfg in (AND_HW, OR_HW, OR3_HW):
            assert truth_table(cfg).outputs == exact_truth_table(
                cfg.input_memristances, cfg.threshold_memristances
            )

    def test_bitstring_roundtrip(self):
        tt = TruthTable.from_bitstring("1000")
        assert tt.outputs == (0, 0, 0, 1)
        assert tt.to_bitstring() == "1000"

    def test_wrong_length_rejected(self):
        for outs in ((0, 1, 1), (0, 1, 1, 0, 1), [[0, 1], [1, 0]]):
            with pytest.raises(ValueError, match="expected 4 outputs"):
                TruthTable(2, outs)

    @pytest.mark.parametrize("bad", [2, -1, 0.7, None])
    def test_non_binary_output_rejected(self, bad):
        with pytest.raises(ValueError, match="outputs must be 0/1"):
            TruthTable(2, (0, 1, bad, 1))
        for outs in ([bad] * 4, bad):
            with pytest.raises(ValueError):
                TruthTable(2, outs)

    @pytest.mark.parametrize("text", ["0110", b"0110", ["0", "1", "1", "0"]])
    def test_text_rejected_with_its_own_message(self, text):
        with pytest.raises(ValueError, match="not text"):
            TruthTable(2, text)

    def test_input_types_give_equal_tables(self):
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        want = TruthTable(3, tuple(bits))
        for outs in (bits, np.array(bits, dtype=bool), np.array(bits, dtype=np.int8),
                     np.array(bits, dtype=np.int64), np.array(bits, dtype=float)):
            tt = TruthTable(3, outs)
            assert tt == want and hash(tt) == hash(want)
            assert all(type(o) is int for o in tt.outputs)
        assert repr(want) == "TruthTable(n=3, outputs=(0, 1, 1, 0, 1, 0, 0, 1))"

    def test_producers_store_python_ints(self):
        tts = [truth_table(OR3_HW), truth_table(OR3_HW).complement(),
               TruthTable.from_bitstring("0110")]
        assert all(type(o) is int for tt in tts for o in tt.outputs)
        assert repr(tts[1]) == "TruthTable(n=3, outputs=(1, 0, 0, 0, 0, 0, 0, 0))"

    @pytest.mark.parametrize("rule", list(TieRule))
    def test_n16_integer_weights_with_exact_ties(self, rule):
        # 100800 ohm is divisible by 1..9: weight w draws w / 100800 siemens,
        # so a row ties exactly when sum(w * x) equals the threshold weight
        rng = np.random.default_rng(16)
        w = rng.integers(1, 4, size=16)
        t = int(w[[2, 7, 11]].sum())
        cfg = GateConfig(tuple(100800 // w), (100800 // t,), tie_rule=rule)
        got = np.array(truth_table(cfg).outputs)
        k = np.arange(2 ** 16)
        cols = [(k >> (15 - i)) & 1 for i in range(16)]
        weight = sum(int(wi) * col for wi, col in zip(w, cols))
        ties = np.flatnonzero(weight == t)
        assert len(ties) > 0
        clear = weight != t
        assert np.array_equal(got[clear], (weight[clear] > t).astype(int))
        wins = rule is TieRule.INPUT_WINS
        for row in ties:
            want = exact_ca(cfg.input_memristances, cfg.threshold_memristances,
                            bits_of_index(int(row), 16), input_wins=wins)
            assert got[row] == want == int(wins)

    def test_rows_one_ulp_from_the_tie_band_edge(self):
        # Pick the threshold so that moving the all-ones row's input current by
        # one ulp flips its decision: the table then agrees with evaluate only
        # if it sums the conductances in the same order, bit for bit.
        rng = np.random.default_rng(6)
        ones, edges = (1,) * 6, 0
        for _ in range(40):
            ms = tuple(10e3 * 10 ** rng.random(6))
            i_in = branch_currents(GateConfig(ms, (1e4,)), ones).i_in
            m_t = 0.65 / (i_in * (1 + 1e-9))
            for _ in range(16):
                cfg = GateConfig(ms, (m_t,))
                i_th = branch_currents(cfg, ones).i_th
                near = {int(decide(x, i_th, cfg.tie_rule))
                        for x in (np.nextafter(i_in, 0.0), i_in, np.nextafter(i_in, 1.0))}
                if len(near) == 2:
                    edges += 1
                    ca = evaluate(cfg, ones).ca
                    assert truth_table(cfg).outputs[-1] == ca
                    assert evaluate(cfg, [np.ones(1, np.int8)] * 6).ca[0] == ca
                    break
                m_t = np.nextafter(m_t, 0.0)
        assert edges >= 30

    def test_fan_in_guard(self):
        with pytest.raises(FanInError):
            GateConfig(tuple([10e3] * 17), (10e3,))


class TestClassify:
    def test_named_two_input(self):
        assert classify(TruthTable(2, (0, 0, 0, 1))).kind is GateKind.AND
        assert classify(TruthTable(2, (0, 1, 1, 1))).kind is GateKind.OR
        assert classify(TruthTable(2, (1, 1, 1, 0))).kind is GateKind.NAND
        assert classify(TruthTable(2, (1, 0, 0, 0))).kind is GateKind.NOR
        assert classify(TruthTable(2, (0, 1, 1, 0))).kind is GateKind.NON_MONOTONE

    def test_constants(self):
        assert classify(TruthTable(2, (0, 0, 0, 0))).kind is GateKind.CONSTANT_ZERO
        assert classify(TruthTable(2, (1, 1, 1, 1))).kind is GateKind.CONSTANT_ONE

    def test_majority(self):
        maj2 = tuple(1 if sum(bits_of_index(k, 3)) >= 2 else 0 for k in range(8))
        c = classify(TruthTable(3, maj2))
        assert c.kind is GateKind.MAJORITY and c.k == 2

    def test_dictator(self):
        d = tuple(bits_of_index(k, 3)[1] for k in range(8))
        c = classify(TruthTable(3, d))
        assert c.kind is GateKind.DICTATOR and c.index == 1
        assert c.label() == "dictator(x2)"

    def test_monotone_non_symmetric(self):
        # x2 or x3
        f = tuple(
            1 if (bits_of_index(k, 3)[1] or bits_of_index(k, 3)[2]) else 0
            for k in range(8)
        )
        assert classify(TruthTable(3, f)).kind is GateKind.OTHER_THRESHOLD

    @pytest.mark.parametrize("f, label", [
        (lambda x: 1 - all(x), "NAND"),
        (lambda x: 1 - any(x), "NOR"),
        (lambda x: x[4], "dictator(x5)"),
        (lambda x: int(sum(x) >= 12), "AND (MAJ-12)"),
        (lambda x: int(sum(x) >= 1), "OR (MAJ-1)"),
        (lambda x: int(sum(x) >= 7), "MAJ-7"),
        (lambda x: int(3 * x[0] + 2 * x[1] + sum(x[2:]) >= 6), "threshold"),
        (lambda x: sum(x) % 2, "non-monotone"),
        (lambda x: int(sum(x) == 6), "non-monotone"),
    ])
    def test_labels_at_n12(self, f, label):
        tt = TruthTable(12, tuple(f(bits_of_index(k, 12)) for k in range(2 ** 12)))
        assert classify(tt).label() == label


class TestDecide:
    def test_scalar_and_array_agree(self):
        i_in = np.array([1.0, 1.0 + 0.5e-9, 1.0 - 2e-9, 2.0, 0.5, 0.0])
        for rule in TieRule:
            arr = decide(i_in, 1.0, rule)
            assert arr.dtype == np.int8
            assert arr.tolist() == [int(decide(float(x), 1.0, rule)) for x in i_in]
        assert decide(i_in, 1.0, TieRule.INPUT_WINS).tolist() == [1, 1, 0, 1, 0, 0]
        assert decide(i_in, 1.0, TieRule.THRESHOLD_WINS).tolist() == [0, 0, 0, 1, 0, 0]


class TestBoundary:
    def test_hyperplane_12(self):
        bm = boundary_grid(GateConfig((3e6, 3e6), (2.5e6,)), 101)
        # line a1 + a2 = 1.2, i.e. a1/3 + a2/3 = 1/2.5 in micro-siemens
        g, g_t = bm.conductances, bm.g_threshold
        assert (g_t / g[0]) == pytest.approx(1.2, rel=1e-12)
        a = np.linspace(0, 1, 101)
        for i, a1 in enumerate(a):
            col = bm.grid[i]
            ones = np.nonzero(col)[0]
            want = 1.2 - a1
            if want > 1.0:
                assert len(ones) == 0
            else:
                a2_first = a[ones[0]]
                assert abs(a2_first - want) <= 0.01 + 1e-9

    def test_equal_weights_line_through_corners(self):
        bm = boundary_grid(GateConfig((3e6, 3e6), (3e6,)), 11)
        # corners (1,0) and (0,1) lie on the line; tie -> input wins -> class 1
        assert bm.grid[10, 0] == 1
        assert bm.grid[0, 10] == 1
        assert bm.grid[0, 0] == 0
        assert bm.grid[10, 10] == 1

    def test_scale_invariance(self):
        base = GateConfig((3e6, 3e6), (2.5e6,))
        a = boundary_grid(base, 51)
        b = boundary_grid(base.scaled(4.0), 51)
        assert np.array_equal(a.grid, b.grid)

    def test_grid_guards(self):
        with pytest.raises(FanInError):
            boundary_grid(GateConfig((1e6,) * 4, (1e6,)), 11)
        with pytest.raises(ValueError):
            boundary_grid(GateConfig((3e6, 3e6), (2.5e6,)), 1)

    @pytest.mark.parametrize("n, res", [(2, 3163), (3, 216)])
    def test_grid_over_max_points_refused_before_allocating(self, n, res):
        # 3163^2 and 216^3 are the least grids over 10^7 points; at 3000^3 numpy
        # once failed to allocate 201 GiB
        config = GateConfig((3e6,) * n, (2.5e6,))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"grid of {res}\\^{n} points exceeds"):
                boundary_grid(config, res)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("n, res", [(2, 3162), (3, 215)])
    def test_grid_at_max_points_passes_the_guard(self, monkeypatch, n, res):
        class Reached(Exception):
            pass

        def stop(config):
            raise Reached

        monkeypatch.setattr(gate_mod, "decision_hyperplane", stop)
        with pytest.raises(Reached):
            boundary_grid(GateConfig((3e6,) * n, (2.5e6,)), res)

    def test_hyperplane_only_for_high_fan_in(self):
        g, g_t = decision_hyperplane(GateConfig((1e6,) * 5, (2e6,)))
        assert len(g) == 5
        assert g_t == pytest.approx(0.5e-6, rel=1e-12)


class TestIndexing:
    def test_bits_roundtrip(self):
        for n in (1, 2, 3, 4):
            for k in range(2 ** n):
                assert int("".join(map(str, bits_of_index(k, n))), 2) == k

    def test_x1_is_msb(self):
        assert bits_of_index(4, 3) == (1, 0, 0)


class TestVoltageLevels:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            VoltageLevels(v_dd=1.0, v_high=0.9)
