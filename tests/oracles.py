"""Reference implementations used to cross-check the package.

The exact-rational ones check the float evaluation path. They deliberately
avoid the package's gate internals: everything is recomputed from first
principles with Fractions.

``reference_simulate`` checks the array sampler in ``mtlg.transient``. It takes
the per-cycle decisions from the package and fills every sample in a plain
loop, one sample at a time.
"""

import math
from fractions import Fraction

import numpy as np

from mtlg.gate import GateConfig, VoltageLevels, branch_currents, evaluate
from mtlg.transient import ClockSpec, TransientParams, WaveformTrace, settle_time

TIE_EPS = Fraction(1, 10 ** 9)


def exact_branch_currents(input_ms, th_ms, bits, v_dd):
    v = Fraction(v_dd)
    i_in = sum((v / Fraction(m) for m, b in zip(input_ms, bits) if b), Fraction(0))
    i_th = sum((v / Fraction(m) for m in th_ms), Fraction(0))
    return i_in, i_th


def exact_ca(input_ms, th_ms, bits, input_wins=True):
    """Comparison outcome with exact arithmetic and the documented tie band."""
    i_in, i_th = exact_branch_currents(input_ms, th_ms, bits, 1)
    if abs(i_in - i_th) <= TIE_EPS * max(i_in, i_th):
        return 1 if input_wins else 0
    return 1 if i_in > i_th else 0


def exact_truth_table(input_ms, th_ms, input_wins=True):
    n = len(input_ms)
    outs = []
    for k in range(2 ** n):
        bits = [(k >> (n - 1 - i)) & 1 for i in range(n)]
        outs.append(exact_ca(input_ms, th_ms, bits, input_wins))
    return tuple(outs)


def reference_inverter(v_in: float, levels: VoltageLevels) -> float:
    """transient.isolation_inverter on one voltage. Output-restoring inverter;
    its switching point sits below v_dd / 2 so the equalization mid level reads
    as a quiet low output."""
    v_il = levels.v_dd / 4.0
    return levels.v_high if v_in < v_il else 0.0


def reference_simulate(
    config: GateConfig,
    input_sequence,
    clock: ClockSpec | None = None,
    params: TransientParams | None = None,
) -> WaveformTrace:
    """transient.simulate, one sample at a time: run one input vector per
    clock cycle and sample all node voltages."""
    clock = clock or ClockSpec(n_cycles=len(input_sequence))
    params = params or TransientParams()
    input_sequence = [tuple(int(b) for b in v) for v in input_sequence]
    if len(input_sequence) != clock.n_cycles:
        raise ValueError(
            f"{len(input_sequence)} input vectors for {clock.n_cycles} cycles"
        )
    lv = config.levels
    v_mid = lv.v_dd / 2.0
    t_eq = clock.duty_eq * clock.period
    t_eval = clock.period - t_eq

    # per-cycle steady-state decision and settling
    decisions = []
    for vec in input_sequence:
        bc = branch_currents(config, vec)
        out = evaluate(config, vec)
        ts = settle_time(bc.i_in - bc.i_th, params, lv)
        resolved = ts is not None and ts <= t_eval
        decisions.append((out, resolved))

    n_samples = int(round(clock.n_cycles * clock.period / clock.sample_dt))
    time = np.arange(n_samples) * clock.sample_dt
    n = config.n
    clk = np.empty(n_samples)
    inputs = np.empty((n, n_samples))
    ca = np.empty(n_samples)
    co = np.empty(n_samples)
    resolved_col = np.empty(n_samples, dtype=np.int8)
    cycle_flags = tuple(r for _, r in decisions)

    for k in range(n_samples):
        t = time[k]
        c = min(int(t / clock.period), clock.n_cycles - 1)
        offset = t - c * clock.period
        vec = input_sequence[c]
        out, resolved = decisions[c]
        for i in range(n):
            inputs[i, k] = lv.v_low if vec[i] else lv.v_high  # active low
        resolved_col[k] = 1 if resolved else 0
        if offset < t_eq:  # equalization: nodes shunted together
            clk[k] = lv.v_high
            ca[k] = v_mid
            co[k] = v_mid
        else:
            clk[k] = lv.v_low
            te = offset - t_eq
            if not resolved:
                ca[k] = v_mid
                co[k] = v_mid
            else:
                swing = v_mid * math.exp(-te / params.tau)
                win = lv.v_dd - swing
                lose = swing
                if out.ca == 1:
                    ca[k], co[k] = win, lose
                else:
                    ca[k], co[k] = lose, win

    cabar = np.array([reference_inverter(v, lv) for v in ca])
    cobar = np.array([reference_inverter(v, lv) for v in co])
    return WaveformTrace(
        time=time,
        clk=clk,
        inputs=inputs,
        ca=ca,
        co=co,
        cabar=cabar,
        cobar=cobar,
        resolved=resolved_col,
        cycle_resolved=cycle_flags,
    )
