"""Reference implementations used to cross-check the package.

The exact-rational ones check the float evaluation path. They deliberately
avoid the package's gate internals: everything is recomputed from first
principles with Fractions.

``reference_simulate`` checks the array sampler in ``mtlg.transient``. It takes
the per-cycle decisions from the package and fills every sample in a plain
loop, one sample at a time.

``reference_verify_config`` checks the integer ``mtlg.synth.verify_config``. It
adds the conductances of each row as Fractions, one row at a time.
``reference_witness`` checks the array search for an infeasibility witness in
``mtlg.synth`` with a loop over rows and bits.

``reference_program_to_target`` is ``mtlg.device.program_to_target`` as it was
before the planner skipped schedules it can rule out: it replans by trying every
schedule length from 1 up and builds each schedule's full digit list.
"""

import math
from fractions import Fraction

import numpy as np

from mtlg.device import (
    MemristorState,
    ProgramResult,
    ProgramTimeoutError,
    apply_pulse,
    read_current,
)
from mtlg.gate import (
    GateConfig,
    TieRule,
    TruthTable,
    VoltageLevels,
    bits_of_index,
    branch_currents,
    evaluate,
)
from mtlg.synth import VerifyReport
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
    clock = clock or ClockSpec()
    params = params or TransientParams()
    input_sequence = [tuple(int(b) for b in v) for v in input_sequence]
    n_cycles = len(input_sequence)
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

    n_samples = int(round(n_cycles * clock.period / clock.sample_dt))
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
        c = min(int(t / clock.period), n_cycles - 1)
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


def reference_verify_config(
    config: GateConfig, target: TruthTable, tie_rule: TieRule | None = None
) -> VerifyReport:
    """synth.verify_config with Fraction sums, one row at a time: exact-rational
    re-evaluation of a config against a target table, using the same relative
    tie band."""
    if config.n != target.n:
        raise ValueError(f"config has {config.n} inputs, target has {target.n}")
    rule = tie_rule or config.tie_rule
    eps = Fraction(1, 10 ** 9)
    g = [1 / Fraction(m) for m in config.input_memristances]
    g_t = sum(1 / Fraction(m) for m in config.threshold_memristances)
    margins = []
    first_fail = None
    ok = True
    for k in range(2 ** target.n):
        bits = bits_of_index(k, target.n)
        s = sum(gi for gi, b in zip(g, bits) if b)
        tie = abs(s - g_t) <= eps * max(s, g_t)
        if tie:
            ca = 1 if rule is TieRule.INPUT_WINS else 0
        else:
            ca = 1 if s > g_t else 0
        margins.append(float((s - g_t) / g_t))
        if ca != target.outputs[k]:
            ok = False
            if first_fail is None:
                first_fail = k
    worst = min(abs(m) for m in margins)
    return VerifyReport(
        ok=ok,
        row_margins=tuple(margins),
        worst_margin=worst,
        first_failure_row=first_fail,
    )


def reference_witness(tt: TruthTable):
    """The witness check_separability returns before its LP: the zero input
    vector if f(0...0) = 1, else the first pair (x, y) with x <= y bitwise,
    f(x) = 1 and f(y) = 0, else None."""
    n = tt.n
    if tt.outputs[0] == 1:
        return (bits_of_index(0, n),)
    for k in range(2 ** n):
        if tt.outputs[k] != 0:
            continue
        for i in range(n):
            mask = 1 << i
            if not (k & mask):
                continue
            low = k & ~mask
            if tt.outputs[low] == 1:
                return (bits_of_index(low, n), bits_of_index(k, n))
    return None


def reference_plan_error(g0: float, gt: float, big_g: float, sf: float, k: int) -> tuple[list[int], float]:
    """Pulse schedule of length k driving gap g0 (above r_min) toward gt.

    Each pulse multiplies the gap by q = 1 - sf; a reset pulse additionally adds
    sf * big_g. The schedule is the digit vector d (1 = reset, 0 = set), chosen
    greedily from the heaviest digit (the last pulse) down. Returns (digits,
    absolute gap error).
    """
    q = 1.0 - sf
    need = (gt - q ** k * g0) / (sf * big_g)
    digits = [0] * k
    if need < 0:
        # even an all-set schedule overshoots; error is what remains
        return digits, abs(gt - q ** k * g0)
    for j in range(k, 0, -1):  # digit weight q^(k-j): last pulse weighs most
        w = q ** (k - j)
        if need >= w:
            digits[j - 1] = 1
            need -= w
    return digits, sf * big_g * need


def reference_plan(state: MemristorState, target: float, tol_abs: float, budget: int):
    """Shortest schedule within the pulse budget whose predicted error fits tol."""
    m = state.model
    g0 = state.resistance - m.r_min
    gt = target - m.r_min
    big_g = m.r_max - m.r_min
    best = None
    for k in range(1, budget + 1):
        digits, err = reference_plan_error(g0, gt, big_g, m.step_fraction, k)
        if err <= tol_abs:
            return digits
        if best is None or err < best[1]:
            best = (digits, err)
    return best[0] if best else None


def reference_program_to_target(
    state: MemristorState,
    target: float,
    tol_rel: float = 0.01,
    max_pulses: int = 200,
    rng: np.random.Generator | None = None,
) -> ProgramResult:
    """Closed-loop pulse-and-verify programming toward a target resistance.

    Every iteration verifies with a safe read, replans the remaining pulse
    schedule from the measured state, and applies the next pulse. Raises
    ProgramTimeoutError if the tolerance band is not reached in max_pulses.
    """
    m = state.model
    if not (m.r_min <= target <= m.r_max):
        raise ValueError(
            f"target {target:.6g} outside [{m.r_min:.6g}, {m.r_max:.6g}]"
        )
    if not (tol_rel > 0):
        raise ValueError("tol_rel must be > 0")
    v_read = 0.5 * m.v_prog_threshold
    set_pulse = 2.0
    reset_pulse = -2.0
    tol_abs = tol_rel * target
    pulses = 0
    while True:
        measured = v_read / read_current(state, v_read)
        if abs(measured - target) <= tol_abs:
            return ProgramResult(state=state, pulses=pulses)
        if pulses >= max_pulses:
            raise ProgramTimeoutError(target, state.resistance, pulses)
        schedule = reference_plan(state, target, tol_abs, max_pulses - pulses)
        pulse = reset_pulse if schedule and schedule[0] else set_pulse
        state = apply_pulse(state, pulse, rng)
        pulses += 1
