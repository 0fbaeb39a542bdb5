import functools
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from mtlg import cli, synth
from mtlg.device import DeviceModel
from mtlg.gate import (
    GateConfig,
    GateKind,
    TieRule,
    TruthTable,
    bits_of_index,
    classify,
    truth_table,
)
from mtlg.synth import (
    DeviceRangeError,
    SolverError,
    SynthesisSpec,
    check_separability,
    named_truth_table,
    synthesize,
    verify_config,
)
from oracles import (
    exact_truth_table,
    grid_reach,
    input_permutation_classes,
    monotone_functions,
    reference_verify_config,
    reference_witness,
)

AND2 = TruthTable(2, (0, 0, 0, 1))
OR2 = TruthTable(2, (0, 1, 1, 1))
XOR2 = TruthTable(2, (0, 1, 1, 0))


class TestCheckSeparability:
    def test_xor_infeasible_with_witness(self):
        feasible, witness = check_separability(XOR2)
        assert not feasible
        low, high = witness
        assert all(a <= b for a, b in zip(low, high))
        k_low = int("".join(map(str, low)), 2)
        k_high = int("".join(map(str, high)), 2)
        assert XOR2.outputs[k_low] == 1 and XOR2.outputs[k_high] == 0

    def test_and_feasible_with_certificate(self):
        feasible, cert = check_separability(AND2)
        assert feasible
        *g, g_t = cert
        assert all(gi > 0 for gi in g) and g_t > 0
        assert g[0] + g[1] >= g_t
        assert g[0] < g_t and g[1] < g_t

    def test_constant_one_infeasible(self):
        feasible, witness = check_separability(TruthTable(2, (1, 1, 1, 1)))
        assert not feasible
        assert witness == ((0, 0),)

    def test_witness_matches_loop_reference(self):
        rng = random.Random(5)
        tables = [TruthTable(3, bits) for bits in itertools.product((0, 1), repeat=8)]
        for _ in range(200):
            # a threshold function with one row flipped: often monotone
            n = rng.randint(1, 10)
            w = [rng.randint(1, 4) for _ in range(n)]
            t = rng.randint(1, sum(w))
            outs = [int(sum(wi for wi, b in zip(w, bits_of_index(k, n)) if b) >= t)
                    for k in range(2 ** n)]
            outs[rng.randrange(2 ** n)] ^= 1
            tables.append(TruthTable(n, outs))
        for tt in tables:
            assert synth._witness(tt) == reference_witness(tt)

    def test_fan_in_guard(self):
        with pytest.raises(ValueError):
            check_separability(TruthTable(11, (0,) * 2 ** 11))


class TestSynthesize:
    def test_and2_satisfies_weight_inequalities(self):
        res = synthesize(SynthesisSpec(AND2))
        m1, m2 = res.memristances
        th = res.threshold_memristance
        assert m1 > th and m2 > th
        assert (m1 * m2) / (m1 + m2) < th
        assert truth_table(
            GateConfig(res.memristances, (th,))
        ).outputs == AND2.outputs
        assert res.achieved_margin >= 0.05
        assert res.quantized_ok

    def test_maj2_of_3_verified_over_all_rows(self):
        maj2, _ = named_truth_table("MAJ:2", 3)
        res = synthesize(SynthesisSpec(maj2))
        assert res.feasible
        assert verify_config(GateConfig(res.memristances, (res.threshold_memristance,)),
                             maj2).ok
        assert exact_truth_table(
            res.memristances, (res.threshold_memristance,)
        ) == maj2.outputs

    def test_xor_returns_infeasible(self):
        res = synthesize(SynthesisSpec(XOR2))
        assert not res.feasible
        assert res.infeasibility_witness is not None

    def test_margin_beyond_device_ratio_rejected(self):
        # a 2:1 resistance range cannot support AND at a huge margin
        narrow = DeviceModel(r_min=50e3, r_max=100e3)
        with pytest.raises(DeviceRangeError):
            synthesize(SynthesisSpec(AND2, device=narrow, min_margin_rel=0.45))

    def test_fan_in_guard(self):
        with pytest.raises(ValueError, match="synthesis limited to n <= 10, got 11"):
            synthesize(SynthesisSpec(TruthTable(11, (0,) * 2 ** 11)))

    def test_threshold_wins_tie_rule_accepted(self):
        res = synthesize(SynthesisSpec(OR2, tie_rule=TieRule.THRESHOLD_WINS))
        assert res.feasible
        assert truth_table(res.quantized_config).outputs == OR2.outputs


class TestCompletenessN2:
    FEASIBLE = {
        (0, 0, 0, 0),  # constant 0
        (0, 0, 1, 1),  # x1
        (0, 1, 0, 1),  # x2
        (0, 1, 1, 1),  # OR
        (0, 0, 0, 1),  # AND
    }

    def test_exactly_five_feasible(self):
        got = set()
        for bits in itertools.product((0, 1), repeat=4):
            tt = TruthTable(2, bits)
            feasible, _ = check_separability(tt)
            if feasible:
                got.add(bits)
        assert got == self.FEASIBLE


@functools.cache
def _monotone_census(n):
    """Each monotone table of n inputs with check_separability's verdict."""
    tables = [TruthTable(n, f) for f in monotone_functions(n)]
    return [(tt, check_separability(tt)[0]) for tt in tables]


@functools.cache
def _class_census(n):
    """Each input-permutation class of the monotone tables of n inputs: its
    tables, and check_separability's verdict on its first one, which holds for
    the class, since permuting the inputs permutes a separating weight vector."""
    classes = input_permutation_classes(monotone_functions(n), n)
    return [(tables, check_separability(TruthTable(n, tables[0]))[0])
            for tables in classes.values()]


class TestMonotoneCensus:
    # the Dedekind numbers, and the positive threshold functions (OEIS A000617)
    # without the constant 1, which the zero-vector witness refuses
    @pytest.mark.parametrize("n, monotone, separable", [(1, 3, 2), (2, 6, 5), (3, 20, 19),
                                                        (4, 168, 149)])
    def test_every_monotone_table(self, n, monotone, separable):
        census = _monotone_census(n)
        assert len(census) == monotone
        assert len(set(tt.outputs for tt, _ in census)) == monotone
        assert sum(ok for _, ok in census) == separable

    # up to input permutation (ROADMAP item 12); the separable classes hold
    # A000617 minus the constant 1 tables between them
    @pytest.mark.parametrize("n, monotone, classes, separable, separable_tables",
                             [(4, 168, 30, 26, 149), (5, 7581, 210, 118, 3286)])
    def test_every_monotone_class(self, n, monotone, classes, separable, separable_tables):
        census = _class_census(n)
        assert sum(len(tables) for tables, _ in census) == monotone
        assert len(census) == classes
        assert sum(ok for _, ok in census) == separable
        assert sum(len(tables) for tables, ok in census if ok) == separable_tables

    def test_classes_match_every_input_permutation_of_every_table(self):
        n = 3  # all 256 tables: their least packed image under each of the 6 permutations
        tables = [tuple(t >> r & 1 for r in range(2 ** n)) for t in range(2 ** 2 ** n)]
        classes = input_permutation_classes(tables, n)
        assert len(classes) == 80
        for key, members in classes.items():
            for t in members:
                images = [sum(t[int("".join(str(bits_of_index(r, n)[i]) for i in p), 2)] << r
                              for r in range(2 ** n))
                          for p in itertools.permutations(range(n))]
                assert min(images) == key

    @pytest.mark.xfail(strict=True, reason="classify calls every monotone table "
                       "threshold (ROADMAP item 2)")
    def test_no_unseparable_table_is_called_threshold(self):
        wrong = ["".join(map(str, reversed(tt.outputs))) for tt, ok in _monotone_census(4)
                 if not ok and classify(tt).kind is GateKind.OTHER_THRESHOLD]
        # at n = 5 through the classes: no input permutation changes classify's kind
        wrong += ["".join(map(str, tables[0][::-1])) for tables, ok in _class_census(5)
                  if not ok and classify(TruthTable(5, tables[0])).kind is GateKind.OTHER_THRESHOLD]
        assert wrong == []


def _separable_packed(n):
    """The separable monotone tables of n inputs (n = 4 or 5), row r as bit r."""
    if n == 4:
        tables = [tt.outputs for tt, ok in _monotone_census(4) if ok]
    else:
        tables = [t for ts, ok in _class_census(n) if ok for t in ts]
    return {sum(o << r for r, o in enumerate(t)) for t in tables}


class TestGridReach:
    """What one gate reaches on the level grid of a b-bit device (ROADMAP item 12)."""

    @pytest.mark.parametrize("n, bits, reached", [(4, 2, 93), (4, 3, 149), (4, 4, 149),
                                                  (5, 2, 500), (5, 3, 3106), (5, 4, 3286)])
    def test_reach_counts(self, n, bits, reached):
        reach = grid_reach(n, bits)
        assert len(reach) == reached
        assert reach <= _separable_packed(n)

    @pytest.mark.parametrize("n, bits", [(1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2)])
    def test_every_level_tuple(self, n, bits):
        # every ordered tuple of input levels and every threshold level, row by row
        levels = [(2 ** bits - 1) + 9 * k for k in range(2 ** bits)]
        rows = [bits_of_index(r, n) for r in range(2 ** n)]
        want = {sum(1 << r for r, row in enumerate(rows)
                    if sum(lv for lv, b in zip(ls, row) if b) >= t)
                for ls in itertools.product(levels, repeat=n) for t in levels}
        assert grid_reach(n, bits) == want


class TestVerify:
    def test_hardware_and_config_margin(self):
        report = verify_config(GateConfig((60.5e3, 60e3), (33e3,)), AND2)
        assert report.ok
        assert report.worst_margin == pytest.approx(0.0954, rel=1e-2)

    def test_or_config(self):
        report = verify_config(GateConfig((33.8e3, 18.3e3), (41.6e3,)), OR2)
        assert report.ok

    def test_failure_row_reported(self):
        report = verify_config(GateConfig((60.5e3, 60e3), (33e3,)), OR2)
        assert not report.ok
        assert report.first_failure_row == 1  # input (0,1) should be 1 for OR

    def test_verify_config_rejects_mismatched_target(self):
        with pytest.raises(ValueError, match="config has 3 inputs, target has 2"):
            verify_config(GateConfig((1e4, 2e4, 3e4), (1e4,)), XOR2)


class TestSingleLp:
    """synthesize solves the ratio-bounded LP and the unbounded one only when
    the bounded margin leaves separability open."""

    @pytest.fixture
    def lp_ratios(self, monkeypatch):
        ratios = []
        margin_lp = synth._margin_lp

        def counted(tt, ratio):
            ratios.append(ratio)
            return margin_lp(tt, ratio)

        monkeypatch.setattr(synth, "_margin_lp", counted)
        return ratios

    @pytest.mark.parametrize("name,n", [("MAJ:3", 5), ("AND", 4), ("OR", 4),
                                        ("DICT:2", 3)])
    def test_feasible_target_solves_one_lp(self, lp_ratios, name, n):
        tt, _ = named_truth_table(name, n)
        assert synthesize(SynthesisSpec(tt)).feasible
        assert lp_ratios == [10.0]

    def test_monotone_unseparable_target_solves_both(self, lp_ratios):
        # x1x2 v x3x4: monotone, so no witness, but not a threshold function
        rows = [bits_of_index(k, 4) for k in range(16)]
        tt = TruthTable(4, [int(b[0] and b[1] or b[2] and b[3]) for b in rows])
        res = synthesize(SynthesisSpec(tt))
        assert not res.feasible and res.infeasibility_witness is None
        assert lp_ratios == [10.0, None]

    def test_witness_target_solves_none(self, lp_ratios):
        assert not synthesize(SynthesisSpec(XOR2)).feasible
        assert lp_ratios == []

    def test_device_range_error_solves_both(self, lp_ratios):
        narrow = DeviceModel(r_min=50e3, r_max=100e3)
        with pytest.raises(DeviceRangeError):
            synthesize(SynthesisSpec(AND2, device=narrow, min_margin_rel=0.45))
        assert lp_ratios == [2.0, None]


class TestLpFailure:
    """A margin LP that HiGHS reports as failed. The margin is a free variable,
    so the LP always has a solution, and only a solver failure ends here: it
    raises SolverError with HiGHS's status and message, and is never read as
    an unrealizable target."""

    MESSAGE = "margin LP failed: HiGHS status 4: numerical difficulties"

    @pytest.fixture(autouse=True)
    def failing_linprog(self, monkeypatch):
        monkeypatch.setattr("scipy.optimize.linprog", lambda *args, **kwargs: SimpleNamespace(
            success=False, status=4, message="numerical difficulties"))

    def test_check_separability_raises(self):
        with pytest.raises(SolverError, match=f"^{self.MESSAGE}$"):
            check_separability(AND2)

    def test_synthesize_raises(self):
        with pytest.raises(SolverError, match=f"^{self.MESSAGE}$"):
            synthesize(SynthesisSpec(AND2))

    def test_witness_targets_never_reach_the_lp(self):
        res = synthesize(SynthesisSpec(XOR2))
        assert not res.feasible and res.infeasibility_witness is not None

    def test_cli_exit_3_with_solver_message(self, capsys):
        code = cli.main(["synth", "--target", "AND", "--n", "2"])
        out = capsys.readouterr()
        assert code == 3 and out.out == ""
        assert out.err == f"error: {self.MESSAGE}\n"


def _report_fields(report):
    """Every VerifyReport field, floats by bit pattern (-0.0 apart from 0.0)."""
    return (report.ok, report.first_failure_row, report.worst_margin.hex(),
            [m.hex() for m in report.row_margins])


resistance = st.floats(min_value=1e3, max_value=1e7, allow_nan=False,
                       allow_infinity=False)


@st.composite
def verify_cases(draw):
    """(config, target, tie_rule override). The threshold conductance sits at an
    input subset's sum: on it, 1e-9 +- 1e-10 or 1e-9 off it, or far off it,
    then moved a few ulps; the target is the exact table with some rows
    flipped. verify_config reads the override as the config's own tie rule,
    the reference as its parameter."""
    n = draw(st.integers(min_value=1, max_value=10))
    ms = draw(st.tuples(*[resistance] * n))
    subset = set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)))
    g = sum(1 / Fraction(ms[i]) for i in subset)
    shift = draw(st.sampled_from((0.0, 1e-9, -1e-9, 1.1e-9, -1.1e-9, 0.9e-9,
                                  -0.9e-9, 0.25, -0.25)))
    th = float(1 / (g * (1 + Fraction(shift))))
    ulps = draw(st.integers(min_value=-4, max_value=4))
    for _ in range(abs(ulps)):
        th = math.nextafter(th, math.inf if ulps > 0 else 0.0)
    ths = draw(st.sampled_from(((th,), (2 * th, 2 * th))))
    tie = draw(st.sampled_from(list(TieRule)))
    override = draw(st.sampled_from((None, *TieRule)))
    rule = override or tie
    outs = list(exact_truth_table(ms, ths, rule is TieRule.INPUT_WINS))
    for k in draw(st.sets(st.integers(0, 2 ** n - 1), max_size=3)):
        outs[k] = 1 - outs[k]
    return GateConfig(ms, ths, tie_rule=tie), TruthTable(n, outs), override


class TestVerifyConfigExact:
    """verify_config in integers equals the row-by-row Fraction reference."""

    @given(verify_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_fraction_reference(self, case):
        config, target, override = case
        overridden = replace(config, tie_rule=override or config.tie_rule)
        assert _report_fields(verify_config(overridden, target)) == \
            _report_fields(reference_verify_config(config, target, override))

    @pytest.mark.parametrize("override", [None, *TieRule])
    @pytest.mark.parametrize("tie", list(TieRule))
    @pytest.mark.parametrize("ms,ths", [
        ((2e3, 2e3, 4e3, 4e3), (1e3,)),
        ((3e3, 6e3, 2e3), (4e3, 4e3)),
        ((12e3, 4e3, 6e3, 3e3, 12e3), (3e3,)),
        ((7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0), (1.0,)),
    ])
    def test_integer_ohms_with_exact_ties(self, ms, ths, tie, override):
        config = GateConfig(ms, ths, tie_rule=tie)
        rule = override or tie
        for outs in (exact_truth_table(ms, ths, True), exact_truth_table(ms, ths, False)):
            target = TruthTable(len(ms), outs)
            report = verify_config(replace(config, tie_rule=rule), target)
            assert 0.0 in report.row_margins  # an exact tie
            assert report.ok == (outs == exact_truth_table(
                ms, ths, rule is TieRule.INPUT_WINS))
            assert _report_fields(report) == \
                _report_fields(reference_verify_config(config, target, override))

    @pytest.mark.parametrize("tie", list(TieRule))
    @pytest.mark.parametrize("m_in,m_th", [(999_999_999.0, 1e9), (1e9, 999_999_999.0)])
    def test_row_exactly_on_band_edge(self, m_in, m_th, tie):
        # row 10 has 10**9 * |i_in - i_th| == max(i_in, i_th): the band holds
        # its edge, so the tie rule decides that row
        config = GateConfig((m_in, 3 * m_in), (m_th,), tie_rule=tie)
        target = TruthTable(2, (0, 0, int(tie is TieRule.INPUT_WINS), 1))
        report = verify_config(config, target)
        assert report.ok
        assert _report_fields(report) == _report_fields(reference_verify_config(config, target))


class TestNamedTargets:
    def test_nand_reads_from_co(self):
        tt, tap = named_truth_table("NAND", 2)
        assert tap == "CO"
        assert tt.outputs == AND2.outputs

    def test_maj_and_dict(self):
        tt, _ = named_truth_table("MAJ:1", 2)
        assert tt.outputs == OR2.outputs
        tt, _ = named_truth_table("DICT:2", 3)
        assert tt.outputs == tuple(bits_of_index(k, 3)[1] for k in range(8))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_truth_table("XYZZY", 2)

    @pytest.mark.parametrize("n", [0, -1, 11, 20])
    def test_input_count_out_of_range(self, n):
        with pytest.raises(ValueError, match="n in 1..10"):
            named_truth_table("AND", n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_tables_match_row_definitions(self, n):
        rows = [bits_of_index(k, n) for k in range(2 ** n)]
        want = {
            "AND": ([all(b) for b in rows], "CA"),
            "NAND": ([all(b) for b in rows], "CO"),
            "OR": ([any(b) for b in rows], "CA"),
            "NOR": ([any(b) for b in rows], "CO"),
            "XOR": ([sum(b) % 2 for b in rows], "CA"),
            "XNOR": ([1 - sum(b) % 2 for b in rows], "CA"),
            **{f"MAJ:{k}": ([sum(b) >= k for b in rows], "CA") for k in range(1, n + 1)},
            **{f"DICT:{i}": ([b[i - 1] for b in rows], "CA") for i in range(1, n + 1)},
        }
        for name, (outs, tap) in want.items():
            got = named_truth_table(f" {name.lower()}", n)
            assert got == (TruthTable(n, outs), tap)
            assert all(type(b) is int for b in got[0].outputs)
