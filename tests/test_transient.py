import io
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtlg.gate import (
    DimensionMismatchError,
    GateConfig,
    TieRule,
    VoltageLevels,
    branch_currents,
    evaluate,
)
from mtlg.transient import (
    ClockSpec,
    TransientParams,
    isolation_inverter,
    settle_time,
    simulate,
    write_csv,
    write_rows,
)
from oracles import reference_simulate

AND_HW = GateConfig((60.5e3, 60e3), (33e3,))
LEVELS = VoltageLevels()
PARAMS = TransientParams()


class TestSettleTime:
    def test_zero_imbalance_unresolved(self):
        assert settle_time(0.0, PARAMS, LEVELS) is None

    def test_below_metastability_floor(self):
        delta = 0.5 * PARAMS.v_meta_floor / PARAMS.r_sense
        assert settle_time(delta, PARAMS, LEVELS) is None

    def test_half_rail_imbalance_settles_instantly(self):
        delta = (LEVELS.v_dd / 2) / PARAMS.r_sense
        assert settle_time(delta, PARAMS, LEVELS) == 0.0

    def test_and_config_at_11(self):
        bc = branch_currents(AND_HW, (1, 1))
        t = settle_time(bc.i_in - bc.i_th, PARAMS, LEVELS)
        dv0 = abs(bc.i_in - bc.i_th) * PARAMS.r_sense
        assert dv0 == pytest.approx(18.80e-3, rel=1e-3)
        assert t == pytest.approx(PARAMS.tau * math.log(0.325 / dv0), rel=1e-12)
        assert t == pytest.approx(285e-9, rel=5e-3)

    def test_strictly_decreasing_in_imbalance(self):
        deltas = np.linspace(1e-9, 50e-6, 100)
        times = [settle_time(float(d), PARAMS, LEVELS) for d in deltas]
        resolved = [t for t in times if t is not None]
        for a, b in zip(resolved, resolved[1:]):
            if a > 0:  # both positive: strictly decreasing until the 0 floor
                assert b < a


class TestSimulate:
    def test_equalization_holds_mid_level(self):
        tr = simulate(AND_HW, [(1, 1)])
        eq = tr.clk == LEVELS.v_high
        assert eq.any()
        assert np.all(tr.ca[eq] == LEVELS.v_dd / 2)
        assert np.all(tr.co[eq] == LEVELS.v_dd / 2)

    def test_resolved_cycles_match_static_evaluation(self):
        seq = [(0, 0), (0, 1), (1, 0), (1, 1)]
        tr = simulate(AND_HW, seq)
        assert tr.cycle_resolved == (True, True, True, True)
        clock = ClockSpec()
        for c, vec in enumerate(seq):
            # last sample of the evaluation window is at rail
            k = int(round((c + 1) * clock.period / clock.sample_dt)) - 1
            want = evaluate(AND_HW, vec)
            if want.ca == 1:
                assert tr.ca[k] > 0.99 * LEVELS.v_dd
                assert tr.co[k] < 0.01 * LEVELS.v_dd
            else:
                assert tr.ca[k] < 0.01 * LEVELS.v_dd
                assert tr.co[k] > 0.99 * LEVELS.v_dd

    def test_tie_config_never_resolves(self):
        tie = GateConfig((3e6, 3e6), (3e6,))
        tr = simulate(tie, [(1, 0)])
        assert tr.cycle_resolved == (False,)
        assert np.all(tr.ca == LEVELS.v_dd / 2)
        assert np.all(tr.co == LEVELS.v_dd / 2)

    def test_input_polarity_is_active_low(self):
        tr = simulate(AND_HW, [(1, 0)])
        assert np.all(tr.inputs[0] == LEVELS.v_low)
        assert np.all(tr.inputs[1] == LEVELS.v_high)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one input vector"):
            simulate(AND_HW, [])

    @pytest.mark.parametrize("seq", [[(0.7, 1)], ["11"], [(1, 1), ("1", "0")]])
    def test_non_bit_values_rejected(self, seq):
        # the same 0/1 rule as evaluate: no value is rounded or parsed into a bit
        with pytest.raises(ValueError, match="0/1"):
            simulate(AND_HW, seq)

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatchError) as e:
            simulate(AND_HW, [(1, 1), (1, 0, 1)])
        assert str(e.value) == "input has 3 bits, gate expects 2"

    def test_sample_count_bounded_before_allocation(self):
        # 2e9 samples: rejected from the clock alone, before any array is built
        with pytest.raises(ValueError, match="2e\\+09 samples"):
            simulate(AND_HW, [(1, 1)] * 2, ClockSpec(sample_dt=2e-12))

    def test_trace_is_deterministic(self):
        a = io.StringIO()
        b = io.StringIO()
        write_csv(simulate(AND_HW, [(1, 1), (0, 1)]), a)
        write_csv(simulate(AND_HW, [(1, 1), (0, 1)]), b)
        assert a.getvalue() == b.getvalue()

    def test_csv_header_and_time_order(self):
        buf = io.StringIO()
        write_csv(simulate(AND_HW, [(1, 1)]), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t_s,clk_v,in1_v,in2_v,ca_v,co_v,cabar_v,cobar_v,resolved"
        times = [float(l.split(",")[0]) for l in lines[1:]]
        assert times == sorted(times)
        assert len(set(times)) == len(times)


class TestReferenceSampler:
    """simulate equals the one-sample-at-a-time loop in oracles bit for bit."""

    FIELDS = ("time", "clk", "inputs", "ca", "co", "cabar", "cobar", "resolved")

    @classmethod
    def assert_same(cls, config, seq, clock=None, params=None):
        got = simulate(config, seq, clock, params)
        want = reference_simulate(config, seq, clock, params)
        for name in cls.FIELDS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.cycle_resolved == want.cycle_resolved
        return got

    @pytest.mark.parametrize("seed", range(40))
    def test_random_gates_clocks_and_latches(self, seed):
        # n = 1..5 under both tie rules: seeds 0..9 cover all ten pairs
        rng = np.random.default_rng(seed)
        n = 1 + seed % 5
        rule = (TieRule.INPUT_WINS, TieRule.THRESHOLD_WINS)[seed % 2]
        gate = GateConfig(tuple(rng.uniform(10e3, 200e3, n)),
                          tuple(rng.uniform(10e3, 200e3, rng.integers(1, 3))),
                          tie_rule=rule)
        cycles = int(rng.integers(1, 7))
        seq = [tuple(rng.integers(0, 2, n)) for _ in range(cycles)]
        period = rng.uniform(1e-4, 5e-3)
        clock = ClockSpec(period=period, duty_eq=rng.uniform(0.1, 0.9),
                          sample_dt=period / rng.uniform(20, 250))
        # tau up to 100 us keeps the ramp from underflowing to 0, so a decay
        # computed one ulp off shows in ca and co
        params = TransientParams(tau=10 ** rng.uniform(-7, -4),
                                 r_sense=10 ** rng.uniform(2, 4))
        self.assert_same(gate, seq, clock, params)

    @pytest.mark.parametrize("rule", list(TieRule))
    def test_tie_cycles_stay_unresolved(self, rule):
        gate = GateConfig((3e6, 3e6, 1.5e6), (1.5e6,), tie_rule=rule)
        seq = [(1, 1, 0), (1, 0, 0), (0, 0, 1), (1, 1, 1)]
        tr = self.assert_same(gate, seq, params=TransientParams(tau=5e-6))
        assert tr.cycle_resolved == (False, True, False, True)

    def test_slow_latch_misses_the_evaluation_window(self):
        # at 1 ohm transimpedance the 11 row settles in ~1.2 ms > t_eval = 1 ms
        params = TransientParams(tau=1e-4, r_sense=1.0)
        tr = self.assert_same(AND_HW, [(0, 0), (1, 1)], params=params)
        assert tr.cycle_resolved == (True, False)


def reference_rows(cols) -> str:
    """Every value formatted on its own, every row joined on its own."""
    return "".join(",".join(f"{float(v):.9g}" for v in row) + "\n" for row in zip(*cols))


# bit patterns that print alike or apart for reasons other than their value:
# signed zeros and infinities, NaNs of both signs with different payloads,
# the smallest subnormals and the largest finite values
SPECIAL_BITS = np.array([
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF80000DEADBEEF,
    0x0000000000000001, 0x8000000000000001, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
], dtype=np.uint64).view(np.int64)


class TestWriteRows:
    def test_matches_per_value_formatting_across_blocks(self):
        rng = np.random.default_rng(3)
        rows = 10_000
        cols = [
            rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, rows),
            np.tile([0.0, -0.0, 1e-300, np.inf, np.nan], rows // 5),
            rng.integers(0, 2, rows).astype(np.int8),
        ]
        buf = io.StringIO()
        write_rows(buf, cols)
        assert buf.getvalue() == reference_rows(cols)

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193])
    def test_block_edges(self, rows):
        cols = [np.arange(rows) * 1e-5, np.arange(rows) % 7 - 3.5,
                np.arange(rows) % 3 == 0]
        buf = io.StringIO()
        write_rows(buf, cols)
        assert buf.getvalue() == reference_rows(cols)

    def test_single_column_ends_each_row(self):
        buf = io.StringIO()
        write_rows(buf, [np.array([1.5, -0.0, 1.5, 2e-7])])
        assert buf.getvalue() == "1.5\n-0\n1.5\n2e-07\n"

    def test_int8_and_bool_columns(self):
        buf = io.StringIO()
        write_rows(buf, [np.array([1, 0, 1], np.int8), np.array([True, False, False])])
        assert buf.getvalue() == "1,1\n0,0\n1,0\n"

    def test_nan_bit_patterns_print_alike(self):
        nans = SPECIAL_BITS[[4, 5, 6, 7]].view(float)
        assert len(np.unique(nans.view(np.int64))) == 4
        buf = io.StringIO()
        write_rows(buf, [nans, nans[::-1]])
        assert buf.getvalue() == "nan,nan\n" * 4

    @given(st.integers(1, 3 * 4096), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_for_any_shape(self, rows, n_cols, seed):
        # each column draws from a small pool of bit patterns, so values
        # repeat within a block, or from all of them, so nearly none repeat
        rng = np.random.default_rng(seed)
        pool = np.concatenate([SPECIAL_BITS, rng.integers(-2**63, 2**63, 20, np.int64)])
        cols = [rng.choice(pool, rows) if rng.random() < 0.5
                else rng.integers(-2**63, 2**63, rows, np.int64)
                for _ in range(n_cols)]
        cols = [c.view(float) for c in cols]
        buf = io.StringIO()
        write_rows(buf, cols)
        assert buf.getvalue() == reference_rows(cols)

    def test_no_rows_writes_nothing(self):
        buf = io.StringIO()
        write_rows(buf, [np.empty(0), np.empty(0)])
        assert buf.getvalue() == ""


class TestIsolationInverter:
    def test_accepts_arrays(self):
        v = np.array([0.0, LEVELS.v_dd / 4, LEVELS.v_dd / 2, -1e-3])
        out = isolation_inverter(v, LEVELS)
        assert np.array_equal(out, [LEVELS.v_high, 0.0, 0.0, LEVELS.v_high])

    def test_mid_level_reads_low(self):
        assert isolation_inverter(LEVELS.v_dd / 2, LEVELS) == 0.0

    def test_low_input_swings_to_logic_high(self):
        assert isolation_inverter(0.0, LEVELS) == LEVELS.v_high

    def test_high_input_reads_low(self):
        assert isolation_inverter(LEVELS.v_dd, LEVELS) == 0.0


class TestClockSpec:
    def test_sample_rate_guard(self):
        with pytest.raises(ValueError):
            ClockSpec(period=1e-3, sample_dt=1e-4)

    def test_duty_bounds(self):
        with pytest.raises(ValueError):
            ClockSpec(duty_eq=1.0)
