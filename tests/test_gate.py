import copy
import dataclasses
import hashlib
import itertools
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mtlg import files
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
from mtlg.synth import target_table
from oracles import (exact_branch_currents, exact_ca, exact_truth_table,
                     reference_classify, reference_decide_points)

AND_HW = GateConfig((60.5e3, 60e3), (33e3,))
OR_HW = GateConfig((33.8e3, 18.3e3), (41.6e3,))
OR3_HW = GateConfig((31.5e3, 30e3, 28.2e3), (68.2e3,))


class TestBranchCurrents:
    def test_and_config_both_active(self):
        i_in, i_th = branch_currents(AND_HW, (1, 1))
        want_in, want_th = exact_branch_currents((60.5e3, 60e3), (33e3,), (1, 1), 0.65)
        assert i_in == pytest.approx(float(want_in), rel=1e-12)
        assert i_th == pytest.approx(float(want_th), rel=1e-12)
        # the numbers themselves
        assert i_in == pytest.approx(21.577e-6, rel=1e-4)
        assert i_th == pytest.approx(19.697e-6, rel=1e-4)

    def test_all_zero_input_draws_nothing(self):
        assert branch_currents(OR3_HW, (0, 0, 0))[0] == 0.0

    def test_or_config_single_input(self):
        i_in, i_th = branch_currents(OR_HW, (0, 1))
        assert i_in == pytest.approx(35.52e-6, rel=1e-3)
        assert i_th == pytest.approx(15.63e-6, rel=1e-3)
        assert i_in > i_th

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
        out, currents = evaluate(OR3_HW, (1, 0, 1)), branch_currents(OR3_HW, (1, 0, 1))
        assert type(out.ca) is int and type(out.co) is int
        assert type(currents) is tuple and [type(i) for i in currents] == [float, float]
        assert type(out.i_in) is float and type(out.i_th) is float
        cols = input_columns(3)
        i_in, i_th = branch_currents(OR3_HW, cols)
        assert i_in.shape == (8,) and i_in.tobytes() == evaluate(OR3_HW, cols).i_in.tobytes()
        assert i_th == currents[1]
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
        tt, _ = target_table("1000")
        assert tt.outputs == (0, 0, 0, 1)
        assert "".join(str(b) for b in reversed(tt.outputs)) == "1000"

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

    @pytest.mark.parametrize("n, outs", [(2.0, (0, 1, 1, 1)), (-1, (0,)), (True, (0, 1)),
                                         (False, (1,)), ("2", (0, 1, 1, 1)), (None, (0,))])
    def test_n_must_be_a_count(self, n, outs):
        with pytest.raises(ValueError, match="n must be a count of inputs"):
            TruthTable(n, outs)

    @pytest.mark.parametrize("n", [np.int64(2), np.int32(3), np.uint8(5)])
    def test_numpy_integer_n_is_a_count(self, n):
        outs = (np.bitwise_count(np.arange(2 ** int(n))) >= 2).astype(int)  # MAJ-2
        tt = TruthTable(n, outs)
        assert tt == TruthTable(int(n), outs)
        assert repr(classify(tt)) == repr(reference_classify(tt)) == repr(
            classify(TruthTable(int(n), outs)))

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
            assert tt == want and hash(tt) == hash(want) == hash((3, tuple(bits)))
            assert all(type(o) is int for o in tt.outputs)
        assert repr(want) == "TruthTable(n=3, outputs=(0, 1, 1, 0, 1, 0, 0, 1))"
        # the int8 bytes a table keeps are no field: only n and outputs show
        assert [f.name for f in dataclasses.fields(want)] == ["n", "outputs"]
        assert dataclasses.asdict(want) == {"n": 3, "outputs": tuple(bits)}
        assert want != TruthTable(3, bits[::-1])

    def test_producers_store_python_ints(self):
        tts = [truth_table(OR3_HW), TruthTable(3, 1 - truth_table(OR3_HW).array),
               target_table("0110")[0]]
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

    @pytest.mark.parametrize("n, min_edges", [(6, 30), (12, 20), (16, 20)])
    def test_rows_one_ulp_from_the_tie_band_edge(self, n, min_edges):
        # Pick the threshold so that moving the all-ones row's input current by
        # one ulp flips its decision: the table then agrees with evaluate only
        # if it sums the conductances in the same order, bit for bit. Wide
        # tables check the kernel's long levels too.
        rng = np.random.default_rng(6)
        ones, edges = (1,) * n, 0
        for _ in range(40):
            ms = tuple(10e3 * 10 ** rng.random(n))
            i_in = branch_currents(GateConfig(ms, (1e4,)), ones)[0]
            m_t = 0.65 / (i_in * (1 + 1e-9))
            for _ in range(16):
                cfg = GateConfig(ms, (m_t,))
                i_th = branch_currents(cfg, ones)[1]
                near = {int(decide(x, i_th, cfg.tie_rule))
                        for x in (np.nextafter(i_in, 0.0), i_in, np.nextafter(i_in, 1.0))}
                if len(near) == 2:
                    edges += 1
                    ca = evaluate(cfg, ones).ca
                    assert truth_table(cfg).outputs[-1] == ca
                    assert evaluate(cfg, [np.ones(1, np.int8)] * n).ca[0] == ca
                    break
                m_t = np.nextafter(m_t, 0.0)
        assert edges >= min_edges

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

    def test_every_table_up_to_n4_keeps_its_class(self):
        # digest of the classes given when MAJ-k, NAND and NOR were found by
        # counting the 1-rows at each popcount: one "kind,k,index;" per table,
        # n = 1..4, table t in order with bit r of t as the output of row r
        h = hashlib.sha256()
        for n in range(1, 5):
            rows = np.arange(2 ** n)
            for t in range(2 ** 2 ** n):
                c = classify(TruthTable(n, (t >> rows) & 1))
                h.update(f"{c.kind.value},{c.k},{c.index};".encode())
        assert h.hexdigest() == (
            "cff9fceb0479e3853a9e6040c685f7769bb0953ee69bcb71aa6be412be1cf537")


def _wide_gates(seed, fan_ins=range(12, 17)):
    """Gates of fan-in 12-16 (or fan_ins) drawn as the gate_tables benchmark draws them:
    integer weights 1..3 on 100800 ohm with a threshold that some rows tie
    exactly, and log-uniform 10k-100k ohm inputs with a threshold at a third
    of their summed conductance, each under both tie rules."""
    rng = random.Random(seed)
    for n in fan_ins:
        w = [rng.randint(1, 3) for _ in range(n)]
        t = max(1, round(sum(w) / 3))
        parts = -(-t // 9)  # at most weight 9 on one threshold memristor
        integer = ([100800 // x for x in w],
                   [100800 // (t // parts + (i < t % parts)) for i in range(parts)])
        r_in = [10e3 * 10 ** rng.random() for _ in range(n)]
        g_t = sum(1.0 / r for r in r_in) / 3
        k = rng.randint(1, 2)  # threshold memristors of the float gate
        for r_in, r_th in (integer, (r_in, [k / g_t] * k)):
            for rule in TieRule:
                yield GateConfig(r_in, r_th, tie_rule=rule)


class TestGoldenGateTables:
    # digests recorded before the corner sums were filled column by column and
    # before TruthTable kept its int8 bytes: the benchmark's path must not move
    @pytest.mark.parametrize("seed, digest", [
        (1, "b46ed4b5bfa127442f08dcb36c3d622565d03d1acbe98dc27b3e3a34a8280580"),
        (2, "5110ab5fd0184f0d94d50b2f744e56d11742d7c97981e9d712939df9f03e57ed"),
    ])
    def test_tables_classes_and_hyperplanes(self, seed, digest):
        h = hashlib.sha256()
        for cfg in _wide_gates(seed):
            tt = truth_table(cfg)
            for t in (tt, TruthTable(tt.n, 1 - tt.array)):
                h.update(bytes(t.outputs) + f"{classify(t).label()};".encode())
            h.update(f"{decision_hyperplane(cfg)!r};".encode())
        assert h.hexdigest() == digest


def _threshold_table(n, rng):
    """[sum(w x) >= t] for random weights 1..3 and a random reachable t."""
    w = [rng.randint(1, 3) for _ in range(n)]
    weight = sum(wi * col.astype(int) for wi, col in zip(w, input_columns(n)))
    return (weight >= rng.randint(1, sum(w))).astype(np.int8)


def _assert_classified_as_reference(tables, n):
    for outs in tables:
        tt = TruthTable(n, outs)  # repr, so that a NumPy integer in k or index shows
        assert repr(classify(tt)) == repr(reference_classify(tt)), np.flatnonzero(outs)[:8]


class TestClassifyReference:
    """classify against the halves-copying classifier of tests/oracles.py."""

    @pytest.mark.parametrize("n", range(5, 17))
    def test_benchmark_style_gates(self, n):
        for cfg in _wide_gates(100 + n, fan_ins=(n,)):
            tt = truth_table(cfg)
            for t in (tt, TruthTable(tt.n, 1 - tt.array)):
                assert repr(classify(t)) == repr(reference_classify(t))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_named_tables_and_their_complements(self, n):
        popcount = np.bitwise_count(np.arange(2 ** n))
        maj = [popcount >= k for k in range(1, n + 1)]
        tables = maj + input_columns(n) + [popcount < n, popcount == 0]  # then NAND, NOR
        _assert_classified_as_reference(tables + [1 - t for t in tables], n)
        kinds = {reference_classify(TruthTable(n, t)).kind for t in tables}
        assert GateKind.DICTATOR in kinds
        assert n < 2 or {GateKind.AND, GateKind.OR, GateKind.NAND, GateKind.NOR} <= kinds

    @pytest.mark.parametrize("n", range(1, 17))
    def test_one_flipped_row_at_every_partner_distance(self, n):
        rng = random.Random(n)
        rows = np.arange(2 ** n)
        bases = [_threshold_table(n, rng) for _ in range(3)]
        for b in (2 ** j for j in range(n)):
            low = rows[(rows & b) == 0]  # rows r whose partner across distance b is r + b
            # the only violation is (0, b): the other inputs' OR with row 0 on, or
            # (ones - b, ones): the other inputs' AND with the all-ones row off
            only_up = ((rows & ~b) != 0).astype(np.int8)
            only_up[0] = 1
            only_down = ((rows | b) == rows[-1]).astype(np.int8)
            only_down[-1] = 0
            flipped = [only_up, only_down]
            for base in bases:  # one pair (r, r + b) of equal outputs made (1, 0)
                same = low[base[low] == base[low + b]]
                if len(same):
                    r = rng.choice(same.tolist())
                    t = base.copy()
                    t[r if t[r] == 0 else r + b] ^= 1
                    flipped.append(t)
            for t in flipped:
                assert reference_classify(TruthTable(n, t)).kind is GateKind.NON_MONOTONE
            _assert_classified_as_reference(flipped, n)
        _assert_classified_as_reference(bases, n)

    @pytest.mark.parametrize("n", range(2, 17))
    def test_maj_counts_and_half_on_tables_of_other_classes(self, n):
        rng = random.Random(1000 + n)
        popcount = np.bitwise_count(np.arange(2 ** n))

        def swap_one(t, on, off):  # one row in `on` turned off, one in `off` turned on
            t = t.copy()
            t[[rng.choice(on.tolist()), rng.choice(off.tolist())]] ^= 1
            return t

        maj = [(popcount >= k).astype(np.int8) for k in range(1, n + 1)]
        # as many 1-rows as MAJ-k, but not MAJ-k
        not_maj = [swap_one(t, np.flatnonzero(popcount == k), np.flatnonzero(popcount == k - 1))
                   for k, t in enumerate(maj, start=1)]
        # half the rows on, but no dictator from n = 3 on
        not_dict = [swap_one(c, np.flatnonzero(c), np.flatnonzero(1 - c)) for c in input_columns(n)]
        shuffled = [np.array(rng.sample(t.tolist(), len(t))) for t in maj + input_columns(n)]
        for t in not_maj:
            assert reference_classify(TruthTable(n, t)).kind not in (
                GateKind.MAJORITY, GateKind.AND, GateKind.OR)
        for t in not_dict if n >= 3 else ():
            assert reference_classify(TruthTable(n, t)).kind is not GateKind.DICTATOR
        _assert_classified_as_reference(not_maj + not_dict + shuffled + [popcount % 2], n)


class TestTruthTableContract:
    # repr, hash and pickle digests recorded before classify was reworked:
    # copies and pickles must not change
    BITS = (0, 1, 1, 0, 1, 0, 0, 1)
    REPR = "TruthTable(n=3, outputs=(0, 1, 1, 0, 1, 0, 0, 1))"

    @pytest.mark.parametrize("make, digest", [
        (lambda: TruthTable(3, TestTruthTableContract.BITS),
         "cdff3d8701428ae090b5f75860a12af9805287d58b6fe0cfabd9303dd781bb69"),
        (lambda: truth_table(AND_HW),
         "75160d42dd53b95d54d70f98dcc4bb17b9257a6c29ff499b0210515b8f98b9ad"),
    ])
    def test_pickles_of_every_protocol_keep_their_bytes(self, make, digest):
        tt, h = make(), hashlib.sha256()
        for protocol in range(6):
            data = pickle.dumps(tt, protocol=protocol)
            h.update(data)
            back = pickle.loads(data)
            assert back == tt and classify(back) == classify(tt)
        assert h.hexdigest() == digest

    def test_copies_replace_asdict_repr_eq_and_hash(self):
        tt = TruthTable(3, self.BITS)
        for c in (tt, copy.copy(tt), copy.deepcopy(tt), dataclasses.replace(tt),
                  pickle.loads(pickle.dumps(TruthTable(3, self.BITS)))):
            assert repr(c) == self.REPR
            assert c == tt and hash(c) == -8052843231440671901
            assert dataclasses.asdict(c) == {"n": 3, "outputs": self.BITS}
            assert all(type(o) is int for o in c.outputs)
            assert TruthTable(c.n, 1 - c.array) == TruthTable(3, [1 - b for b in self.BITS])
        assert repr(dataclasses.replace(tt, outputs=[1 - b for b in self.BITS])) == (
            "TruthTable(n=3, outputs=(1, 0, 0, 1, 0, 1, 1, 0))")
        assert tt != TruthTable(3, self.BITS[::-1]) and tt != TruthTable(2, self.BITS[:4])

    def test_unknown_attributes_raise_attribute_error(self):
        tt = TruthTable(3, self.BITS)
        for name in ("output", "_outputs", "__setstate__"):
            assert not hasattr(tt, name)
            with pytest.raises(AttributeError, match=name):
                getattr(tt, name)

    def test_array_is_a_read_only_view_of_the_outputs(self):
        for tt in (TruthTable(3, self.BITS), truth_table(OR3_HW)):
            assert tt.array.dtype == np.int8 and not tt.array.flags.writeable
            assert tt.array.tolist() == list(tt.outputs)


# exact ties: at n = 2 the rows (0, 1) and (1, 0) draw the threshold current,
# at n = 3 every row with two inputs on, and so do grid points between them
TIE_GATES = [GateConfig(r_in, r_th, tie_rule=rule) for rule in TieRule
             for r_in, r_th in (((3e6, 3e6), (3e6,)), ((2e6, 2e6, 2e6), (1e6,)))]


class TestKernelReference:
    @staticmethod
    def _gates(n, count):
        rng = random.Random(n)
        for rule in TieRule:
            for _ in range(count):
                r_in = [10e3 * 10 ** rng.random() for _ in range(n)]
                g_t = sum(1.0 / r for r in r_in) * rng.uniform(0.1, 0.9)
                yield GateConfig(r_in, (1.0 / g_t,), tie_rule=rule)

    @staticmethod
    def _edge_gates(point, count):
        """Per tie rule, count gates whose tie band edge lies just below the input
        current at point, summed x_n first (one ulp less flips the point), and
        count whose edge lies just above it (one ulp more flips it). They are
        found by stepping the threshold memristance, as in
        test_rows_one_ulp_from_the_tie_band_edge, over fresh input draws: a step
        can move the threshold current by two ulps and skip an edge. With three
        nonzero terms at the point, a sum in another order that rounds to
        another float decides the point the other way on one of these gates;
        thresholds far from the point cannot tell the order."""
        n = len(point)
        rng = np.random.default_rng(n)
        for rule in TieRule:
            band = 1e-9 if rule is TieRule.INPUT_WINS else -1e-9
            need = {"below": count, "above": count}
            for _ in range(20 * count):
                ms = tuple(10e3 * 10 ** rng.random(n))
                s = 0.0
                for gi, a in zip(reversed(decision_hyperplane(GateConfig(ms, (1e4,)))[0]),
                                 reversed(point)):
                    s += gi * a
                i_in = 0.65 * s
                m_t = 0.65 / (i_in * (1 + band)) * (1 + 2 ** -48)  # a few ulps short
                for _ in range(64):
                    cfg = GateConfig(ms, (m_t,), tie_rule=rule)
                    i_th = 0.65 * decision_hyperplane(cfg)[1]
                    lo, mid, hi = (int(decide(x, i_th, rule)) for x in
                                   (np.nextafter(i_in, 0.0), i_in, np.nextafter(i_in, 1.0)))
                    for side, flips in (("below", lo != mid), ("above", mid != hi)):
                        if flips and need[side]:
                            need[side] -= 1
                            yield cfg
                    m_t = np.nextafter(m_t, 0.0)
                if not any(need.values()):
                    break

    @pytest.mark.parametrize("res", range(2, 8))
    def test_grid_sums_points_in_kernel_order(self, res):
        axis = np.linspace(0.0, 1.0, res)
        edge = list(self._edge_gates(tuple(axis[[-1, 1, max(res - 2, 1)]]), 3))
        assert len(edge) == 12
        cfgs = TIE_GATES + [c for n in (2, 3) for c in self._gates(n, 4)] + edge
        for cfg in cfgs:
            want = reference_decide_points(cfg, itertools.product(axis, repeat=cfg.n))
            assert boundary_grid(cfg, res).grid.ravel().tolist() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 14, 16])
    def test_table_sums_corners_in_kernel_order(self, n):
        cfgs = [c for c in TIE_GATES if c.n == n] + list(self._gates(n, 1))
        if n >= 3:  # the all-ones row one ulp from the band edge
            edge = list(self._edge_gates((1.0,) * n, 1))
            assert len(edge) == 4
            cfgs += edge
        if n == 16:  # integer weights that tie exactly, as the benchmark draws them
            cfgs += [c for c in _wide_gates(3) if c.n == 16]
        for cfg in cfgs:
            want = reference_decide_points(cfg, itertools.product((0.0, 1.0), repeat=n))
            assert list(truth_table(cfg).outputs) == want

    def test_tie_gates_reach_the_tie_band(self):
        for iw, tw in zip(TIE_GATES[:2], TIE_GATES[2:]):
            assert truth_table(iw) != truth_table(tw)
            assert (boundary_grid(iw, 5).grid != boundary_grid(tw, 5).grid).any()


class TestDecide:
    def test_scalar_and_array_agree(self):
        i_in = np.array([1.0, 1.0 + 0.5e-9, 1.0 - 2e-9, 2.0, 0.5, 0.0])
        for rule in TieRule:
            arr = decide(i_in, 1.0, rule)
            assert arr.dtype == np.int8
            assert arr.tolist() == [int(decide(float(x), 1.0, rule)) for x in i_in]
        assert decide(i_in, 1.0, TieRule.INPUT_WINS).tolist() == [1, 1, 0, 1, 0, 0]
        assert decide(i_in, 1.0, TieRule.THRESHOLD_WINS).tolist() == [0, 0, 0, 1, 0, 0]

    def test_one_tie_band(self):
        # the float band is the integer band's reciprocal, the very float 1e-9
        assert gate_mod.TIE_BAND == 10**9
        assert gate_mod.TIE_EPS_REL.hex() == (1e-9).hex() == "0x1.12e0be826d695p-30"


class TestBoundary:
    def test_hyperplane_12(self):
        cfg = GateConfig((3e6, 3e6), (2.5e6,))
        bm = boundary_grid(cfg, 101)
        # line a1 + a2 = 1.2, i.e. a1/3 + a2/3 = 1/2.5 in micro-siemens
        g, g_t = decision_hyperplane(cfg)
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
        b = boundary_grid(GateConfig((4.0 * 3e6,) * 2, (4.0 * 2.5e6,)), 51)
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

        def stop(*args):
            raise Reached

        monkeypatch.setattr(gate_mod, "_decide_grid", stop)  # the kernel, past the guard
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


class TestGateConfig:
    @pytest.mark.parametrize("inputs, thresholds, message", [
        ((), (10e3,), "need at least one input"),
        ((10e3,), (), "need at least one input"),
        ((10e3, 0.0), (10e3,), "memristance must be positive, got 0.0"),
        ((10e3,), (-1.0,), "memristance must be positive, got -1.0"),
        ((float("nan"),), (10e3,), "memristance must be positive, got nan"),
    ])
    def test_empty_or_non_positive_memristances_rejected(self, inputs, thresholds, message):
        with pytest.raises(ValueError, match=message):
            GateConfig(inputs, thresholds)

    @pytest.mark.parametrize("inputs, thresholds, levels", [
        ((1e-320, 1e3), (1e3,), VoltageLevels()),  # 1 / m overflows
        ((1e-308, 1e-308), (1e3,), VoltageLevels()),  # each 1 / m is finite, the sum is not
        ((1e-3,), (1e-3,), VoltageLevels(v_dd=1e306, v_high=1e307)),  # v_dd * sum is not
        # both currents near 1e-320, subnormal: they rounded to one value and
        # row 1 read as a tie, where the exact currents differ by 1e-7
        ((100e3,), (100.00001e3,), VoltageLevels(v_dd=1e-315)),
        ((100e3,), (100e3,), VoltageLevels(v_dd=1e-310)),  # 1e-315: subnormal too
        ((10e3,), (10e3,), VoltageLevels(v_dd=0.0, v_low=-1.0)),  # every current is 0
        ((10e3,), (20e3,), VoltageLevels(v_dd=-0.5, v_low=-1.0)),  # signed currents flip ">"
    ])
    def test_currents_outside_normal_floats_rejected(self, inputs, thresholds, levels):
        # the float path once decided rows there against the exact oracle
        with pytest.raises(ValueError, match="leave the normal float range"):
            GateConfig(inputs, thresholds, levels)

    def test_least_normal_current_accepted(self):
        v = sys.float_info.min * 2**13  # exactly the least normal float over 2^13 ohm
        th = (2**13 * (1 - 1e-8),)
        cfg = GateConfig((2**13,), th, VoltageLevels(v_dd=v))
        assert branch_currents(cfg, (1,))[0] == sys.float_info.min
        assert truth_table(cfg).outputs == exact_truth_table((2**13,), th) == (0, 0)
        with pytest.raises(ValueError, match="leave the normal float range"):
            GateConfig((2**13,), th, VoltageLevels(v_dd=v / 2))

    def test_largest_finite_currents_accepted(self):
        cfg = GateConfig((1e-308, 1e3), (1e3,))
        assert truth_table(cfg).outputs == (0, 1, 1, 1)


def _hex_pair(g, g_t):
    return [x.hex() for x in g], g_t.hex()


class TestGateConfigContract:
    # a gate's conductances are computed once, when it is built: every way of
    # making one must still give the pair that decision_hyperplane computed on
    # each call before, and the pair must stay out of the dataclass fields
    LEVELS = VoltageLevels(v_dd=0.6)
    BASE = GateConfig((60.5e3, 60e3, 33.8e3), (41.6e3, 1e6), LEVELS, TieRule.THRESHOLD_WINS)
    REPR = ("GateConfig(input_memristances=(60500.0, 60000.0, 33800.0), "
            "threshold_memristances=(41600.0, 1000000.0), "
            "levels=VoltageLevels(v_dd=0.6, v_high=0.9, v_low=0.0), "
            "tie_rule=<TieRule.THRESHOLD_WINS: 'threshold_wins'>)")
    # BASE pickled at protocol 4 before GateConfig kept its conductances
    OLD_PICKLE = (
        b"\x80\x04\x95\t\x01\x00\x00\x00\x00\x00\x00\x8c\tmtlg.gate\x94\x8c\nGateConfig\x94"
        b"\x93\x94)\x81\x94}\x94(\x8c\x12input_memristances\x94G@\xed\x8a\x80\x00\x00\x00\x00"
        b"G@\xedL\x00\x00\x00\x00\x00G@\xe0\x81\x00\x00\x00\x00\x00\x87\x94"
        b"\x8c\x16threshold_memristances\x94G@\xe4P\x00\x00\x00\x00\x00"
        b"GA.\x84\x80\x00\x00\x00\x00\x86\x94\x8c\x06levels\x94h\x00\x8c\rVoltageLevels\x94"
        b"\x93\x94)\x81\x94}\x94(\x8c\x04v_dd\x94G?\xe3333333\x8c\x06v_high\x94"
        b"G?\xec\xcc\xcc\xcc\xcc\xcc\xcd\x8c\x05v_low\x94G\x00\x00\x00\x00\x00\x00\x00\x00ub"
        b"\x8c\x08tie_rule\x94h\x00\x8c\x07TieRule\x94\x93\x94\x8c\x0ethreshold_wins\x94"
        b"\x85\x94R\x94ub.")

    @staticmethod
    def _built_pair(cfg):
        """The pair as decision_hyperplane computed it on every call."""
        g = tuple(1.0 / m for m in cfg.input_memristances)
        return _hex_pair(g, sum(1.0 / m for m in cfg.threshold_memristances))

    def _configs(self, tmp_path):
        base = self.BASE
        gate_file, net_file = tmp_path / "gate.yaml", tmp_path / "net.yaml"
        gate_file.write_text("input_memristances_ohm: [60.5k, 60k, 33.8k]\n"
                             "threshold_memristances_ohm: [41.6k, 1M]\n"
                             "tie_rule: threshold_wins\n")
        net_file.write_text("inputs: 3\n"
                            "tie_rule: threshold_wins\n"
                            "gates:\n"
                            "  - {name: a, inputs: [60.5k, 60k, 33.8k], threshold: [41.6k, 1M]}\n"
                            "  - {name: b, inputs: [12.3k, 45.6k], threshold: [7.89k]}\n"
                            "wires:\n"
                            "  - {from: in1, to: a.1}\n"
                            "  - {from: in2, to: a.2}\n"
                            "  - {from: in3, to: a.3}\n"
                            "  - {from: a.CA, to: b.1}\n"
                            "  - {from: in1, to: b.2}\n"
                            "outputs: [b.CA]\n")
        net = files.parse_netlist_file(net_file, self.LEVELS)
        yield "constructor", base
        yield "replace inputs", dataclasses.replace(base, input_memristances=(11e3, 22e3, 33e3))
        yield "replace thresholds", dataclasses.replace(base, threshold_memristances=(5e3,))
        yield "replace levels", dataclasses.replace(base, levels=VoltageLevels())
        for lam in (4.0, 0.3):
            yield f"scaled {lam}", dataclasses.replace(
                base,
                input_memristances=tuple(lam * m for m in base.input_memristances),
                threshold_memristances=tuple(lam * m for m in base.threshold_memristances),
            )
        yield "copy", copy.copy(base)
        yield "deepcopy", copy.deepcopy(base)
        for protocol in range(6):
            yield f"pickle {protocol}", pickle.loads(pickle.dumps(base, protocol=protocol))
        yield "gate file", files.load_gate_config(gate_file, self.LEVELS)
        yield "netlist a", net.gates["a"]
        yield "netlist b", net.gates["b"]

    def test_every_config_reads_the_pair_it_was_built_with(self, tmp_path):
        pairs = {}
        for how, cfg in self._configs(tmp_path):
            got = _hex_pair(*decision_hyperplane(cfg))
            assert got == self._built_pair(cfg), how
            pairs[how] = got
        base = pairs["constructor"]
        for how in ("copy", "deepcopy", "gate file", "netlist a",
                    *(f"pickle {p}" for p in range(6))):
            assert pairs[how] == base, how
        for how in ("replace inputs", "replace thresholds", "scaled 4.0", "scaled 0.3"):
            assert pairs[how] != base, how
        assert pairs["replace levels"] == base  # v_dd enters the currents, not the pair

    def test_the_pair_is_computed_when_the_gate_is_built(self):
        cfg = GateConfig((1e4, 2e4), (3e4,))
        assert "_hyperplane" in vars(cfg)
        assert decision_hyperplane(cfg) is decision_hyperplane(cfg)

    def test_repr_eq_hash_and_asdict_see_only_the_fields(self, tmp_path):
        names = [f.name for f in dataclasses.fields(GateConfig)]
        assert names == ["input_memristances", "threshold_memristances", "levels", "tie_rule"]
        for how, cfg in self._configs(tmp_path):
            values = tuple(getattr(cfg, name) for name in names)
            assert hash(cfg) == hash(values), how
            assert tuple(dataclasses.asdict(cfg)) == tuple(names), how
            assert "_hyperplane" not in repr(cfg), how
            assert cfg == dataclasses.replace(cfg), how
        for cfg in (self.BASE, copy.deepcopy(self.BASE), pickle.loads(self.OLD_PICKLE)):
            assert repr(cfg) == self.REPR and cfg == self.BASE and hash(cfg) == hash(self.BASE)
        assert dataclasses.asdict(self.BASE) == {
            "input_memristances": (60.5e3, 60e3, 33.8e3),
            "threshold_memristances": (41.6e3, 1e6),
            "levels": {"v_dd": 0.6, "v_high": 0.9, "v_low": 0.0},
            "tie_rule": TieRule.THRESHOLD_WINS,
        }

    def test_a_pickle_from_before_the_pair_was_kept_loads(self):
        old = pickle.loads(self.OLD_PICKLE)
        assert "_hyperplane" not in vars(old)  # computed on its first read
        fresh = GateConfig((60.5e3, 60e3, 33.8e3), (41.6e3, 1e6), self.LEVELS,
                           TieRule.THRESHOLD_WINS)
        assert truth_table(old) == truth_table(fresh) == TruthTable(3, (0, 1, 0, 1, 0, 1, 1, 1))
        assert _hex_pair(*decision_hyperplane(old)) == _hex_pair(*decision_hyperplane(fresh))
        assert evaluate(old, (1, 0, 1)).ca == evaluate(fresh, (1, 0, 1)).ca == 1
        assert np.array_equal(boundary_grid(old, 9).grid, boundary_grid(fresh, 9).grid)
