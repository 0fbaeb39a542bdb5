"""Property-based invariants over random gate configurations and devices."""

import math
import struct
import sys
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from mtlg.device import DeviceModel, MemristorState, apply_pulse, quantize
from mtlg.gate import (
    GateConfig,
    TieRule,
    VoltageLevels,
    bits_of_index,
    boundary_grid,
    branch_currents,
    evaluate,
    input_columns,
    truth_table,
)
from mtlg.transient import TransientParams, settle_time
from oracles import exact_truth_table

resistance = st.floats(min_value=1e3, max_value=1e7, allow_nan=False,
                       allow_infinity=False)
# 2^e for e uniform from the smallest subnormal to the largest finite float
log_uniform = st.floats(-1074, 1024, exclude_max=True).map(lambda e: 2.0 ** e)


@st.composite
def gate_configs(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    ms = draw(st.tuples(*[resistance] * n))
    n_th = draw(st.integers(min_value=1, max_value=2))
    ths = draw(st.tuples(*[resistance] * n_th))
    tie = draw(st.sampled_from(list(TieRule)))
    return GateConfig(ms, ths, tie_rule=tie)


@st.composite
def near_tie_configs(draw, max_n=8, min_n=1):
    """Threshold conductance at an input subset's sum, moved to within a few
    ulps of the tie-band edge, where the summation order decides rows."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    ms = draw(st.tuples(*[resistance] * n))
    subset = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    g_t = sum(1.0 / ms[i] for i in set(subset))
    shift = (draw(st.sampled_from((-1e-9, 1e-9)))
             + draw(st.floats(min_value=-1e-15, max_value=1e-15)))
    tie = draw(st.sampled_from(list(TieRule)))
    return GateConfig(ms, (1.0 / (g_t * (1.0 + shift)),), tie_rule=tie)


@st.composite
def config_and_bits(draw):
    cfg = draw(gate_configs())
    bits = draw(st.tuples(*[st.integers(0, 1)] * cfg.n))
    return cfg, bits


class TestGateInvariants:
    @given(config_and_bits())
    def test_outputs_complementary(self, cb):
        cfg, bits = cb
        out = evaluate(cfg, bits)
        assert out.co == 1 - out.ca

    @given(gate_configs())
    def test_all_zero_input_gives_zero(self, cfg):
        assert evaluate(cfg, (0,) * cfg.n).ca == 0

    @given(config_and_bits(), st.integers(0, 3))
    def test_monotone_in_inputs(self, cb, pos):
        cfg, bits = cb
        pos %= cfg.n
        raised = tuple(1 if i == pos else b for i, b in enumerate(bits))
        assert evaluate(cfg, raised).ca >= evaluate(cfg, bits).ca

    # a power of two scales every conductance and current exactly; a general
    # lambda rounds, and can move a row across the tie band edge (test below)
    @given(config_and_bits(), st.integers(-6, 6).map(lambda k: 2.0 ** k))
    def test_scale_invariance(self, cb, lam):
        cfg, bits = cb
        scaled = GateConfig(tuple(lam * m for m in cfg.input_memristances),
                            tuple(lam * m for m in cfg.threshold_memristances),
                            cfg.levels, cfg.tie_rule)
        got, want = evaluate(scaled, bits), evaluate(cfg, bits)
        assert (got.i_in, got.i_th) == (want.i_in / lam, want.i_th / lam)
        assert got.ca == want.ca

    def test_general_scale_can_flip_a_row_at_the_band_edge(self):
        ms, ths = (13625.870092613488, 70377.48403545546), (11415.668623078414,)
        lam = 7.661368727868479
        assert truth_table(GateConfig(ms, ths)).outputs == (0, 0, 0, 0)
        scaled = GateConfig(tuple(lam * m for m in ms), tuple(lam * t for t in ths))
        assert truth_table(scaled).outputs == (0, 0, 0, 1)

    @given(config_and_bits(), st.floats(min_value=1.001, max_value=10.0))
    def test_monotone_in_threshold_resistance(self, cb, factor):
        cfg, bits = cb
        weaker = GateConfig(
            cfg.input_memristances,
            tuple(t * factor for t in cfg.threshold_memristances),
            tie_rule=cfg.tie_rule,
        )
        assert evaluate(weaker, bits).ca >= evaluate(cfg, bits).ca

    @given(gate_configs(max_n=3))
    @settings(max_examples=50)
    def test_float_path_matches_exact_oracle(self, cfg):
        got = truth_table(cfg).outputs
        want = exact_truth_table(
            cfg.input_memristances,
            cfg.threshold_memristances,
            input_wins=cfg.tie_rule is TieRule.INPUT_WINS,
        )
        assert got == want

    @given(st.lists(log_uniform, min_size=1, max_size=4),
           st.lists(log_uniform, min_size=1, max_size=2),
           st.sampled_from(list(TieRule)),
           st.one_of(log_uniform, log_uniform.map(lambda v: -v), st.just(0.0)))
    @settings(max_examples=400)
    def test_any_positive_memristances_refused_or_exact(self, ms, ths, tie, v_dd):
        # memristances below about 1e-308 ohm once overflowed a conductance or
        # a row sum, and a tiny supply rounded distinct currents to one
        # subnormal; either way rows were decided against the exact oracle
        levels = VoltageLevels(v_dd=v_dd, v_high=math.inf, v_low=-math.inf)
        try:
            cfg = GateConfig(ms, ths, levels, tie)
        except ValueError:
            # refused only where an exact current falls below the normal floats
            # or a conductance sum or current exceeds the largest one
            g = [1 / Fraction(m) for m in ms] + [sum(1 / Fraction(m) for m in ths)]
            v = Fraction(v_dd)
            assert (v * min(g) < sys.float_info.min
                    or max(sum(g), v * sum(g)) > sys.float_info.max)
            return
        want = exact_truth_table(ms, ths, input_wins=tie is TieRule.INPUT_WINS)
        assert truth_table(cfg).outputs == want

    @given(st.one_of(gate_configs(max_n=8), near_tie_configs()))
    def test_truth_table_agrees_with_rowwise_evaluate(self, cfg):
        tt = truth_table(cfg)
        columns = input_columns(cfg.n)
        out = evaluate(cfg, columns)
        i_in = branch_currents(cfg, columns)[0]
        assert out.i_in.tobytes() == i_in.tobytes()  # the currents it decided from
        i_in = i_in.tolist()
        for k in range(2 ** cfg.n):
            bits = bits_of_index(k, cfg.n)
            row = evaluate(cfg, bits)
            assert tt.outputs[k] == out.ca[k] == row.ca
            want = struct.pack("<d", branch_currents(cfg, bits)[0])
            assert struct.pack("<d", i_in[k]) == want == struct.pack("<d", row.i_in)

    @given(near_tie_configs(max_n=3, min_n=2), st.integers(2, 9))
    @settings(max_examples=300)
    def test_boundary_corners_are_the_truth_table(self, cfg, res):
        # at the tie-band edge the grid once compared conductances, not
        # currents, and some corners disagreed with the gate's own table
        corners = boundary_grid(cfg, res).grid[(slice(None, None, res - 1),) * cfg.n]
        rows = [evaluate(cfg, bits_of_index(k, cfg.n)).ca for k in range(2 ** cfg.n)]
        assert corners.ravel().tolist() == list(truth_table(cfg).outputs) == rows


class TestDeviceInvariants:
    @given(st.floats(min_value=10e3, max_value=100e3),
           st.floats(min_value=1.0, max_value=5.0),
           st.booleans())
    def test_pulse_moves_toward_correct_rail(self, r, amp, set_dir):
        model = DeviceModel()
        state = MemristorState(resistance=r, model=model)
        after = apply_pulse(state, amp if set_dir else -amp)
        assert model.r_min <= after.resistance <= model.r_max
        if amp < model.v_prog_threshold:
            assert after.resistance == r
        elif set_dir:
            assert after.resistance <= r
        else:
            assert after.resistance >= r

    @given(st.floats(min_value=10e3, max_value=100e3))
    def test_quantize_is_a_projection(self, r):
        model = DeviceModel()
        level, level_r = quantize(r, model)
        assert 0 <= level < 2 ** model.bits
        again, again_r = quantize(level_r, model)
        assert (again, again_r) == (level, level_r)

    @given(st.floats(min_value=10e3, max_value=100e3),
           st.floats(min_value=10e3, max_value=100e3))
    def test_quantize_monotone_in_conductance(self, r1, r2):
        model = DeviceModel()
        if r1 < r2:
            r1, r2 = r2, r1
        # r1 >= r2 means conductance(r1) <= conductance(r2)
        assert quantize(r1, model)[0] <= quantize(r2, model)[0]


class TestTransientInvariants:
    @given(st.floats(min_value=1e-9, max_value=1e-3),
           st.floats(min_value=1.001, max_value=10.0))
    def test_settle_time_decreases_with_margin(self, di, factor):
        params, levels = TransientParams(), VoltageLevels()
        t1 = settle_time(di, params, levels)
        t2 = settle_time(di * factor, params, levels)
        if t1 is not None and t2 is not None:
            assert t2 <= t1

    @given(st.floats(min_value=1e-12, max_value=1e-3))
    def test_settle_time_nonnegative_or_unresolved(self, di):
        t = settle_time(di, TransientParams(), VoltageLevels())
        assert t is None or (t >= 0 and math.isfinite(t))
