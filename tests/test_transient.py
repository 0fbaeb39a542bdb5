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
    WaveformTrace,
    isolation_inverter,
    settle_time,
    simulate,
    write_csv,
)
from oracles import assert_same_text, reference_rows, reference_simulate

AND_HW = GateConfig((60.5e3, 60e3), (33e3,))
LEVELS = VoltageLevels()
PARAMS = TransientParams()


class TestSettleTime:
    def test_zero_imbalance_unresolved(self):
        assert settle_time(0.0, PARAMS, LEVELS) is None

    def test_below_metastability_floor(self):
        delta = 0.5 * PARAMS.v_meta_floor / PARAMS.r_sense
        assert settle_time(delta, PARAMS, LEVELS) is None

    def test_overflowing_imbalance_settles_instantly(self):
        # |delta_i| * r_sense is inf here; the log of 0 once raised a domain error
        assert settle_time(1e305, PARAMS, LEVELS) == 0.0
        assert settle_time(-1e305, PARAMS, LEVELS) == 0.0

    def test_half_rail_imbalance_settles_instantly(self):
        delta = (LEVELS.v_dd / 2) / PARAMS.r_sense
        assert settle_time(delta, PARAMS, LEVELS) == 0.0

    def test_and_config_at_11(self):
        i_in, i_th = branch_currents(AND_HW, (1, 1))
        t = settle_time(i_in - i_th, PARAMS, LEVELS)
        dv0 = abs(i_in - i_th) * PARAMS.r_sense
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

    @pytest.mark.parametrize("seq", [[(0.7, 1)], ["11"], [(1, 1), ("1", "0")],
                                     [(1, 1), (0.7, 1), (0, 0)], [(0, 1), "11"]])
    def test_non_bit_values_rejected(self, seq):
        # the same 0/1 rule as evaluate: no value is rounded or parsed into a bit
        with pytest.raises(ValueError) as e:
            simulate(AND_HW, seq)
        assert type(e.value) is ValueError and str(e.value) == "input bits must be 0/1"

    def test_bit_values_checked_before_the_sample_count(self):
        # 2e9 samples and a non-bit value: the value is reported, as it was
        # while simulate checked the values itself before counting samples
        with pytest.raises(ValueError) as e:
            simulate(AND_HW, [(1, 1), (0.7, 1)], ClockSpec(sample_dt=1e-12))
        assert type(e.value) is ValueError and str(e.value) == "input bits must be 0/1"
        with pytest.raises(ValueError, match="trace of 4e\\+09 samples exceeds"):
            simulate(AND_HW, [(1, 1), (0, 1)], ClockSpec(sample_dt=1e-12))

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatchError) as e:
            simulate(AND_HW, [(1, 1), (1, 0, 1)])
        assert str(e.value) == "input has 3 bits, gate expects 2"

    @pytest.mark.parametrize("seq, bits", [([(1, 1, 1), (1, 1), (0, 0)], 3),
                                           ([(1, 1), (0, 1, 1, 1), (1,)], 4)])
    def test_first_wrong_length_reported(self, seq, bits):
        # lengths are checked vector by vector before any value is read
        with pytest.raises(DimensionMismatchError) as e:
            simulate(AND_HW, seq)
        assert str(e.value) == f"input has {bits} bits, gate expects 2"

    @pytest.mark.parametrize("seq", [
        [(True, False), (False, False), (True, True)],
        np.array([[1, 0], [0, 0], [1, 1]]),
        np.array([[1, 0], [0, 0], [1, 1]], np.int8),
        (v for v in [(1, 0), (0, 0), (1, 1)]),
        [[1, 0], (0.0, 0), (1.0, True)],
    ], ids=["bools", "array", "int8_array", "generator", "mixed"])
    def test_other_bit_containers_give_the_same_trace(self, seq):
        got = simulate(AND_HW, seq)
        want = simulate(AND_HW, [(1, 0), (0, 0), (1, 1)])
        for name in TestReferenceSampler.FIELDS + ("cycle_resolved",):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

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

    def test_ramp_through_the_underflow_edge(self):
        # one sample dt into evaluation the exponent is -dt / tau: it steps
        # from -708 through the subnormal results of math.exp down to -747,
        # past the last nonzero one near -745.13. A supply of 1e300 V keeps
        # v_dd / 2 times a subnormal decay nonzero, so a misplaced cutoff shows
        gate = GateConfig((60.5e3, 60e3), (33e3,), VoltageLevels(v_dd=1e300, v_high=2e300))
        clock = ClockSpec(period=4e-5, sample_dt=1e-6)
        tiny = 0
        for x in [*range(708, 745), *(745 + 0.01 * k for k in range(200))]:
            tr = self.assert_same(gate, [(1, 1), (0, 0)], clock, TransientParams(tau=1e-6 / x))
            if x >= 745:  # the losing node of a smallest subnormal decay
                lose = np.minimum(tr.ca, tr.co)
                tiny += np.count_nonzero((lose > 0) & (lose < 1e-7))
        assert tiny > 0

    def test_slow_latch_misses_the_evaluation_window(self):
        # at 1 ohm transimpedance the 11 row settles in ~1.2 ms > t_eval = 1 ms
        params = TransientParams(tau=1e-4, r_sense=1.0)
        tr = self.assert_same(AND_HW, [(0, 0), (1, 1)], params=params)
        assert tr.cycle_resolved == (True, False)


def wave_csv(cols) -> str:
    """write_csv of a trace built from at least 7 columns: time, clock, the
    inputs, ca, co, cabar, cobar, resolved."""
    n = len(cols) - 7
    trace = WaveformTrace(cols[0], cols[1], np.array(cols[2:2 + n]).reshape(n, len(cols[0])),
                          *cols[2 + n:], cycle_resolved=())
    buf = io.StringIO()
    write_csv(trace, buf)
    return buf.getvalue()


def assert_wave_csv_matches(cols):
    """wave_csv of the columns is its header and reference_rows."""
    header = ",".join(["t_s", "clk_v", *(f"in{i + 1}_v" for i in range(len(cols) - 7)),
                       "ca_v", "co_v", "cabar_v", "cobar_v", "resolved"])
    assert_same_text(wave_csv(cols), header + "\n" + reference_rows(cols))


# bit patterns that print alike or apart for reasons other than their value:
# signed zeros and infinities, NaNs of both signs with different payloads,
# the smallest subnormals and the largest finite values
SPECIAL_BITS = np.array([
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF80000DEADBEEF,
    0x0000000000000001, 0x8000000000000001, 0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
], dtype=np.uint64).view(np.int64)


class TestWriteCsvRows:
    def test_matches_per_value_formatting_across_blocks(self):
        rng = np.random.default_rng(3)
        rows = 10_000
        cols = [
            rng.normal(size=rows) * 10.0 ** rng.integers(-30, 30, rows),
            np.tile([0.0, -0.0, 1e-300, np.inf, np.nan], rows // 5),
            rng.integers(0, 2, rows).astype(np.int8),
        ]
        assert_wave_csv_matches((cols * 3)[:7])

    @pytest.mark.parametrize("rows", [1, 4095, 4096, 4097, 8193, 32767, 32768, 32769, 65537])
    def test_block_edges(self, rows):
        # the first columns change on every row; the rest hold still over runs
        # that end on one column alone, some runs across a block edge, and at
        # row 25 (and every 50 rows on) on the sign of a zero alone
        k = np.arange(rows)
        cols = [k * 1e-5, k % 7 - 3.5, k % 3 == 0, k // 10 % 2, k // 50 * 0.5,
                np.where(k // 25 % 2, 0.0, -0.0), np.full(rows, -np.inf), k // 4090 * 1.0,
                (k // 7 % 3).astype(np.int8)]
        assert_wave_csv_matches(cols)
        assert_wave_csv_matches([cols[0], *cols[3:]])

    def test_int8_and_bool_columns(self):
        cols = [np.array([1, 0, 1], np.int8), np.array([True, False, False])] * 4
        rows = wave_csv(cols).split("\n", 1)[1]
        assert rows == "1,1,1,1,1,1,1,1\n0,0,0,0,0,0,0,0\n1,0,1,0,1,0,1,0\n"

    def test_nan_bit_patterns_print_alike(self):
        nans = SPECIAL_BITS[[4, 5, 6, 7]].view(float)
        assert len(np.unique(nans.view(np.int64))) == 4
        rows = wave_csv([nans, nans[::-1]] * 4).split("\n", 1)[1]
        assert rows == (",".join(["nan"] * 8) + "\n") * 4

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
        if rng.random() < 0.5:  # repeat whole rows, so runs of equal rows form
            repeat = np.sort(rng.integers(0, rows, rows))
            cols = [c[repeat] for c in cols]
        # a trace has at least 7 columns: fewer drawn ones are repeated
        assert_wave_csv_matches((cols * 7)[:max(7, n_cols)])

    def test_no_rows_writes_the_header_only(self):
        assert wave_csv([np.empty(0)] * 7) == "t_s,clk_v,ca_v,co_v,cabar_v,cobar_v,resolved\n"


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
