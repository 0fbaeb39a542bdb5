"""Two-phase clocked behavioral simulation of the gate's latch.

During equalization (clock high) the latch nodes are shunted to v_dd / 2.
During evaluation the differential current imbalance, converted to an initial
voltage imbalance by a transimpedance, diverges under single-pole positive
feedback. If the imbalance cannot reach rail within the evaluation window the
cycle is flagged unresolved and both nodes hold the mid level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gate import GateConfig, VoltageLevels, branch_currents, evaluate

MAX_SAMPLES = 10**7  # longest trace simulate builds, 80 MB per column


@dataclass(frozen=True)
class ClockSpec:
    period: float = 2e-3
    duty_eq: float = 0.5  # fraction of the period spent in equalization
    sample_dt: float = 1e-5

    def __post_init__(self):
        if not (self.period > 0):
            raise ValueError("period must be > 0")
        if not (0 < self.duty_eq < 1):
            raise ValueError("duty_eq must be in (0, 1)")
        if not (0 < self.sample_dt <= self.period / 20):
            raise ValueError("sample_dt must be positive and <= period / 20")


@dataclass(frozen=True)
class TransientParams:
    tau: float = 100e-9  # latch positive-feedback time constant
    r_sense: float = 10e3  # transimpedance: delta-I -> initial imbalance
    v_meta_floor: float = 1e-6  # smallest resolvable initial imbalance

    def __post_init__(self):
        if not (self.tau > 0 and self.r_sense > 0 and self.v_meta_floor > 0):
            raise ValueError("all transient parameters must be > 0")


@dataclass(frozen=True)
class WaveformTrace:
    """Uniformly sampled electrical traces. Input columns use the active-low
    electrical convention: logical 1 maps to v_low, logical 0 to v_high."""

    time: np.ndarray
    clk: np.ndarray
    inputs: np.ndarray  # shape (n, samples)
    ca: np.ndarray
    co: np.ndarray
    cabar: np.ndarray
    cobar: np.ndarray
    resolved: np.ndarray  # per-sample 0/1, constant within a cycle
    cycle_resolved: tuple[bool, ...]


def settle_time(
    delta_i: float, params: TransientParams, levels: VoltageLevels
) -> float | None:
    """Time for the latch to reach rail from the initial current imbalance.

    Returns None (unresolved) when the initial imbalance is below the
    metastability floor.
    """
    dv0 = abs(delta_i) * params.r_sense
    if dv0 < params.v_meta_floor:
        return None
    if dv0 >= levels.v_dd / 2.0:  # already at rail, also when dv0 overflowed
        return 0.0
    return params.tau * math.log(levels.v_dd / (2.0 * dv0))


def isolation_inverter(v_in, levels: VoltageLevels):
    """Output-restoring inverter, on one voltage or an array of them; its
    switching point sits below v_dd / 2 so the equalization mid level reads as
    a quiet low output."""
    # [()] turns the 0-d result for a single voltage into a scalar
    return np.where(v_in < levels.v_dd / 4.0, levels.v_high, 0.0)[()]


def simulate(
    config: GateConfig,
    input_sequence,
    clock: ClockSpec | None = None,
    params: TransientParams | None = None,
) -> WaveformTrace:
    """Run one input vector per clock cycle and sample all node voltages; the
    number of cycles is the number of input vectors. Each vector's length is
    checked in order, then every value in one pass. math.exp runs only inside
    the ramp's window, 0 < te <= 800 tau; outside it the decay is exactly 1 or 0."""
    clock = clock or ClockSpec()
    params = params or TransientParams()
    vectors = list(input_sequence)
    if not vectors:
        raise ValueError("need at least one input vector")
    for v in vectors:
        if len(v) != config.n:
            branch_currents(config, v)  # raises the length error for this vector
    bits = np.array(list(zip(*vectors)))  # (n, cycles); lengths checked, so zip cut nothing
    out = evaluate(config, bits)  # every cycle's decision at once; checks every value
    n_samples = bits.shape[1] * clock.period / clock.sample_dt
    if not n_samples <= MAX_SAMPLES:
        raise ValueError(f"trace of {n_samples:.4g} samples exceeds {MAX_SAMPLES}")
    lv = config.levels
    v_mid = lv.v_dd / 2.0
    t_eq = clock.duty_eq * clock.period
    t_eval = clock.period - t_eq

    # settling per cycle, since the scalar math.log of settle_time fixes its last bit
    cycle_flags = []
    for delta_i in (out.i_in - out.i_th).tolist():
        ts = settle_time(delta_i, params, lv)
        cycle_flags.append(ts is not None and ts <= t_eval)

    # every sample at once: its cycle c and its offset into that cycle
    n_samples = int(round(n_samples))
    time = np.arange(n_samples) * clock.sample_dt
    # below the cycle count, since every sample has t <= cycles * period - dt / 2
    c = (time / clock.period).astype(np.int64)
    offset = time - c * clock.period
    eq = offset < t_eq  # equalization: nodes shunted together
    resolved = np.array(cycle_flags)[c]
    # math.exp because np.exp can round the last bit differently; it is 0.0
    # below about -745.2, and te = 0 at every equalization sample
    te = np.maximum(offset - t_eq, 0.0)
    swing = np.where(te == 0, v_mid, 0.0)
    inside = (te > 0) & (te <= 800 * params.tau)
    swing[inside] = v_mid * np.fromiter(map(math.exp, (-te[inside] / params.tau).tolist()), float)
    win = lv.v_dd - swing
    ramp = ~eq & resolved
    ca_high = (out.ca == 1)[c]  # gathered as bools, not as an int8 column
    ca = np.where(ramp, np.where(ca_high, win, swing), v_mid)
    co = np.where(ramp, np.where(ca_high, swing, win), v_mid)
    return WaveformTrace(
        time=time,
        clk=np.where(eq, lv.v_high, lv.v_low),
        inputs=np.where(bits, lv.v_low, lv.v_high)[:, c],  # active low
        ca=ca,
        co=co,
        cabar=isolation_inverter(ca, lv),
        cobar=isolation_inverter(co, lv),
        resolved=resolved.astype(np.int8),
        cycle_resolved=tuple(cycle_flags),
    )


_BLOCK_ROWS = 32768  # rows formatted and written per block


def _texts(col, end):
    """Every value of a float column as "%.9g" + end, each distinct bit pattern
    (so -0.0 and 0.0 stay apart) formatted once, as a list."""
    values, index = np.unique(col.view(np.int64), return_inverse=True)
    text = map(f"%.9g{end}".__mod__, values.view(float).tolist())
    return np.fromiter(text, object, len(values))[index].tolist()


def write_csv(trace: WaveformTrace, fh) -> None:
    """Stable CSV emission: fixed header, 9 significant digits, time-ordered.

    Only the time changes on every sample. Within each block of 32768 rows,
    a run starts at each row where some column after the time differs from
    the row before by bit pattern; the text after the time is joined once
    per run, and the block goes out as one format of each row's time and its
    run's text. Every value prints as its own "%.9g" would.
    """
    n = trace.inputs.shape[0]
    cols = ["t_s", "clk_v"]
    cols += [f"in{i + 1}_v" for i in range(n)]
    cols += ["ca_v", "co_v", "cabar_v", "cobar_v", "resolved"]
    fh.write(",".join(cols) + "\n")
    tail = [trace.clk, *trace.inputs, trace.ca, trace.co, trace.cabar, trace.cobar, trace.resolved]
    ends = [","] * (len(tail) - 1) + ["\n"]
    for start in range(0, len(trace.time), _BLOCK_ROWS):
        block = [np.asarray(col[start:start + _BLOCK_ROWS], float).view(np.int64) for col in tail]
        rows = len(block[0])
        new_run = np.ones(rows, bool)
        new_run[1:] = np.any([b[1:] != b[:-1] for b in block], axis=0)
        texts = [_texts(b[new_run].view(float), end) for b, end in zip(block, ends)]
        runs = np.fromiter(map("".join, zip(*texts)), object, len(texts[0]))
        args = [None] * (2 * rows)
        args[0::2] = trace.time[start:start + _BLOCK_ROWS].tolist()
        args[1::2] = runs[np.cumsum(new_run) - 1].tolist()
        fh.write(("%.9g,%s" * rows) % tuple(args))
