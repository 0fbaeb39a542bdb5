"""End-to-end acceptance checks. Each test prints one pass/fail line."""

import functools
import io
import itertools
import struct
import time

import numpy as np
import pytest

from mtlg.device import (
    DeviceModel,
    MemristorState,
    conductance_levels,
    program_to_target,
    read_current,
)
from mtlg.gate import (
    GateConfig,
    GateKind,
    TieRule,
    TruthTable,
    bits_of_index,
    boundary_grid,
    branch_currents,
    classify,
    decision_hyperplane,
    evaluate,
    input_columns,
    truth_table,
)
from mtlg.netlist import Netlist, Source, Wire, network_truth_table, validate
from mtlg.synth import SynthesisSpec, check_separability, synthesize
from mtlg.transient import ClockSpec, TransientParams, settle_time, simulate, write_csv
from mtlg.cli import main as cli_main
from oracles import exact_truth_table

AND_HW = (60.5e3, 60e3), (33e3,)
OR_HW = (33.8e3, 18.3e3), (41.6e3,)
OR_HW_ALT = (33e3, 18.3e3), (41.7e3,)
OR3_HW = (31.5e3, 30e3, 28.2e3), (68.2e3,)


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num} ({title}): FAIL")
                raise
            print(f"criterion {num} ({title}): PASS")
        return inner
    return wrap


@criterion(1, "two-input AND hardware config")
def test_criterion_1_and_gate():
    t0 = time.perf_counter()
    cfg = GateConfig(*AND_HW)
    tt = truth_table(cfg)
    assert tt.outputs == (0, 0, 0, 1)
    assert TruthTable(tt.n, 1 - tt.array).outputs == (1, 1, 1, 0)
    m1, m2 = AND_HW[0]
    th = AND_HW[1][0]
    assert m1 > th and m2 > th
    parallel = (m1 * m2) / (m1 + m2)
    assert parallel == pytest.approx(30124.5, abs=0.05)
    assert parallel < th
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "two-input OR hardware config, both reference variants")
def test_criterion_2_or_gate():
    assert truth_table(GateConfig(*OR_HW)).outputs == (0, 1, 1, 1)
    assert truth_table(GateConfig(*OR_HW_ALT)).outputs == (0, 1, 1, 1)


@criterion(3, "three-input OR hardware config")
def test_criterion_3_or3_gate():
    tt = truth_table(GateConfig(*OR3_HW))
    assert tt.outputs == (0,) + (1,) * 7


@criterion(4, "megohm-sweep decision boundaries and class flip")
def test_criterion_4_boundary_sweep(capsys, tmp_path):
    res = 101
    h = 1.0 / (res - 1)
    expected_class = {
        2e6: ("AND", "AND"),
        2.5e6: ("AND", "AND"),
        3e6: ("OR", "AND"),  # on-boundary corner, tie rule decides
        4e6: ("OR", "OR"),
        5e6: ("OR", "OR"),
        8e6: ("OR", "OR"),
    }
    for th in (2e6, 2.5e6, 3e6, 4e6, 5e6, 8e6):
        line = 3e6 / th  # a1 + a2 at the boundary
        for rule in (TieRule.INPUT_WINS, TieRule.THRESHOLD_WINS):
            cfg = GateConfig((3e6, 3e6), (th,), tie_rule=rule)
            g, g_t = decision_hyperplane(cfg)
            assert g_t / g[0] == pytest.approx(line, rel=1e-12)
            bm = boundary_grid(cfg, res)
            a1 = bm.axes[0]
            a2 = bm.axes[1]
            for i, j in np.ndindex(bm.grid.shape):
                s = a1[i] + a2[j]
                if s > line + h:
                    assert bm.grid[i, j] == 1
                elif s < line - h:
                    assert bm.grid[i, j] == 0
            kind = classify(truth_table(cfg)).kind
            want = expected_class[th][0 if rule is TieRule.INPUT_WINS else 1]
            assert kind is getattr(GateKind, want)
    # the emitted grid file carries a note explaining the class flip
    out = tmp_path / "grid.csv"
    code = cli_main(["boundary", "--weights", "3M,3M;3M", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    text = out.read_text()
    assert "# note:" in text and "flips" in text


@criterion(5, "three-input megohm emulator tables under both tie rules")
def test_criterion_5_three_input_tables():
    cases = [
        # weights, thresholds, expected under InputWins, under ThresholdWins
        ((2e6, 2e6, 2e6), (1e6,),
         (0, 0, 0, 1, 0, 1, 1, 1),   # majority of two
         (0, 0, 0, 0, 0, 0, 0, 1)),  # three-input AND
        ((2e6, 2e6, 2e6), (2.5e6,),
         (0, 1, 1, 1, 1, 1, 1, 1),   # three-input OR
         (0, 1, 1, 1, 1, 1, 1, 1)),
        ((8e6, 2e6, 4e6), (2e6,),
         (0, 0, 1, 1, 0, 0, 1, 1),   # dictator x2
         (0, 0, 0, 1, 0, 0, 1, 1)),  # x2 AND (x1 OR x3)
        ((8e6, 2e6, 4e6), (4e6,),
         (0, 1, 1, 1, 0, 1, 1, 1),   # x2 OR x3
         (0, 0, 1, 1, 0, 1, 1, 1)),  # x2 OR (x1 AND x3)
    ]
    for ms, ths, want_input, want_threshold in cases:
        got = truth_table(GateConfig(ms, ths, tie_rule=TieRule.INPUT_WINS))
        assert got.outputs == want_input, (ms, ths, "input_wins")
        got = truth_table(GateConfig(ms, ths, tie_rule=TieRule.THRESHOLD_WINS))
        assert got.outputs == want_threshold, (ms, ths, "threshold_wins")


@criterion(6, "two-input synthesis completeness with quantized re-verify")
def test_criterion_6_completeness():
    t0 = time.perf_counter()
    feasible_set = set()
    witnesses = {}
    for bits in itertools.product((0, 1), repeat=4):
        tt = TruthTable(2, bits)
        ok, info = check_separability(tt)
        if ok:
            feasible_set.add(bits)
        else:
            witnesses[bits] = info
    assert feasible_set == {
        (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1), (0, 0, 0, 1),
    }
    for xor_like in ((0, 1, 1, 0), (1, 0, 0, 1)):
        assert witnesses[xor_like] is not None
    device = DeviceModel(r_min=10e3, r_max=100e3, bits=5)
    for bits in feasible_set - {(0, 0, 0, 0)}:  # constant 0 needs no weights
        tt = TruthTable(2, bits)
        result = synthesize(SynthesisSpec(tt, device=device))
        assert result.feasible and result.quantized_ok
        q = result.quantized_config
        assert all(device.r_min <= m <= device.r_max
                   for m in q.input_memristances + q.threshold_memristances)
        assert truth_table(q).outputs == bits
    assert time.perf_counter() - t0 < 1.0


@criterion(7, "randomized invariants against the exact-arithmetic oracle")
def test_criterion_7_random_properties():
    rng = np.random.default_rng(20260823)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 5))
        ms = tuple(float(r) for r in rng.uniform(1e3, 1e7, size=n))
        ths = tuple(float(r) for r in rng.uniform(1e3, 1e7, size=int(rng.integers(1, 3))))
        rule = TieRule.INPUT_WINS if rng.integers(2) else TieRule.THRESHOLD_WINS
        cfg = GateConfig(ms, ths, tie_rule=rule)
        tt = truth_table(cfg)
        # brute-force equivalence with the exact oracle
        assert tt.outputs == exact_truth_table(
            ms, ths, input_wins=rule is TieRule.INPUT_WINS)
        # scale invariance, exact for a power of two: every current divides by lam
        lam = 2.0 ** int(rng.integers(-6, 7))
        scaled = GateConfig(
            tuple(lam * m for m in ms), tuple(lam * t for t in ths), tie_rule=rule)
        got, want = evaluate(scaled, input_columns(n)), evaluate(cfg, input_columns(n))
        assert np.array_equal(got.i_in, want.i_in / lam) and got.i_th == want.i_th / lam
        assert truth_table(scaled).outputs == tt.outputs
        weaker = GateConfig(ms, tuple(t * 1.5 for t in ths), tie_rule=rule)
        weaker_tt = truth_table(weaker)
        for k in range(2 ** n):
            bits = bits_of_index(k, n)
            out = evaluate(cfg, bits)
            assert out.co == 1 - out.ca  # complementarity
            assert weaker_tt.outputs[k] >= tt.outputs[k]  # threshold monotonicity
            for i in range(n):  # input monotonicity
                raised = tuple(1 if j == i else b for j, b in enumerate(bits))
                assert tt.outputs[tt_index(raised)] >= tt.outputs[k]
        checked += 1
    assert checked >= 1000


def tt_index(bits):
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    return idx


@criterion(8, "transient equalization, resolution and CSV stability")
def test_criterion_8_transient():
    cfg = GateConfig(*AND_HW)
    seq = [(0, 0), (0, 1), (1, 0), (1, 1)]
    clock = ClockSpec()
    params = TransientParams()
    trace = simulate(cfg, seq, clock, params)
    v_mid = cfg.levels.v_dd / 2.0
    t_eq = clock.duty_eq * clock.period
    for k, t in enumerate(trace.time):
        if (t % clock.period) < t_eq:
            assert trace.ca[k] == v_mid and trace.co[k] == v_mid
    # resolved cycles reach the rail that the static evaluation predicts
    assert all(trace.cycle_resolved)
    last_sample = {c: None for c in range(4)}
    for k, t in enumerate(trace.time):
        last_sample[min(int(t / clock.period), 3)] = k
    for c, vec in enumerate(seq):
        out = evaluate(cfg, vec)
        k = last_sample[c]
        assert (trace.ca[k] > v_mid) == (out.ca == 1)
        assert (trace.co[k] > v_mid) == (out.co == 1)
    # an exact current tie cannot resolve
    tie_cfg = GateConfig((2e6,), (2e6,))
    i_in, i_th = branch_currents(tie_cfg, (1,))
    assert i_in == i_th
    tie_trace = simulate(tie_cfg, [(1,)], ClockSpec(), params)
    assert tie_trace.cycle_resolved == (False,)
    # settle time strictly decreases as the current imbalance grows
    # keep the initial imbalance below half rail so the clamp at zero stays out
    sweep = np.logspace(-9, np.log10(3e-5), 100)
    times = [settle_time(di, params, cfg.levels) for di in sweep]
    assert all(t is not None for t in times)
    assert all(b < a for a, b in zip(times, times[1:]))
    # repeated runs emit byte-identical CSV
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_csv(simulate(cfg, seq, clock, params), buf)
        bufs.append(buf.getvalue().encode())
    assert bufs[0] == bufs[1]


@criterion(9, "closed-loop programming of all 5-bit levels; reads are inert")
def test_criterion_9_device():
    model = DeviceModel(r_min=10e3, r_max=100e3, bits=5, step_fraction=0.1)
    for g in conductance_levels(model):
        target = 1.0 / g
        state = MemristorState(resistance=model.r_max, model=model)
        result = program_to_target(state, target, tol_rel=0.01, max_pulses=200)
        assert result.pulses <= 200
        assert abs(result.state.resistance - target) <= 0.01 * target
    state = MemristorState(resistance=33e3, model=model)
    before = struct.pack("<d", state.resistance)
    for _ in range(10 ** 4):
        read_current(state, 0.5 * model.v_prog_threshold)
    assert struct.pack("<d", state.resistance) == before


@criterion(10, "exclusive-OR from a cascade of the hardware AND and OR gates")
def test_criterion_10_xor_network():
    or_cfg = GateConfig(*OR_HW)
    and_cfg = GateConfig(*AND_HW)
    net = Netlist(
        gates={"or1": or_cfg, "and1": and_cfg, "out": and_cfg},
        wires=(
            Wire(Source.primary(0), "or1", 0),
            Wire(Source.primary(1), "or1", 1),
            Wire(Source.primary(0), "and1", 0),
            Wire(Source.primary(1), "and1", 1),
            Wire(Source.gate_tap("or1", "CA"), "out", 0),
            Wire(Source.gate_tap("and1", "CO"), "out", 1),
        ),
        primary_inputs=2,
        primary_outputs=(("out", "CA"),),
    )
    assert validate(net) == []
    assert network_truth_table(net)[0].outputs == (0, 1, 1, 0)
