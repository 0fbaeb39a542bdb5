"""Behavioral multi-level memristor model and closed-loop programming emulator.

The pulse response is a bounded geometric approach: a programming pulse moves
the resistance a fixed fraction of the remaining distance toward the rail it
targets (set -> r_min, reset -> r_max). Reads below the programming threshold
never change state.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass, field, replace

import numpy as np


class ReadDisturbError(Exception):
    """Read voltage at or above the programming threshold would program the device."""


class ProgramTimeoutError(Exception):
    def __init__(self, target, resistance, pulses):
        super().__init__(
            f"did not reach {target:.6g} ohm within {pulses} pulses "
            f"(stuck at {resistance:.6g} ohm)"
        )


@dataclass(frozen=True)
class DeviceModel:
    r_min: float = 10e3
    r_max: float = 100e3
    bits: int = 5
    v_prog_threshold: float = 1.0
    step_fraction: float = 0.1
    noise_sigma_rel: float = 0.0

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max):
            raise ValueError(f"require 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if not (1 <= self.bits <= 7):
            raise ValueError(f"bits must be in 1..7, got {self.bits}")
        if not (0 < self.v_prog_threshold < np.inf):
            raise ValueError(
                f"require finite v_prog_threshold > 0, got {self.v_prog_threshold}")
        if not (0 < self.step_fraction < 1):
            raise ValueError("step_fraction must be in (0, 1)")
        if self.noise_sigma_rel < 0:
            raise ValueError("noise_sigma_rel must be >= 0")

    @property
    def n_levels(self) -> int:
        return 2 ** self.bits


@dataclass(frozen=True)
class MemristorState:
    resistance: float
    model: DeviceModel = field(default_factory=DeviceModel)

    def __post_init__(self):
        if not (self.model.r_min <= self.resistance <= self.model.r_max):
            raise ValueError(
                f"resistance {self.resistance:.6g} outside "
                f"[{self.model.r_min:.6g}, {self.model.r_max:.6g}]"
            )


def read_current(state: MemristorState, v: float) -> float:
    """Non-destructive read: returns v / R. Refuses voltages that would program."""
    if abs(v) >= state.model.v_prog_threshold:
        raise ReadDisturbError(
            f"|{v}| V >= programming threshold {state.model.v_prog_threshold} V"
        )
    return v / state.resistance


def apply_pulse(
    state: MemristorState, amplitude: float, rng: np.random.Generator | None = None
) -> MemristorState:
    """One programming pulse of signed amplitude (volts): positive sets toward
    r_min, negative resets toward r_max; below the threshold nothing changes."""
    m = state.model
    if abs(amplitude) < m.v_prog_threshold:
        return state
    r = state.resistance
    if amplitude > 0:
        r = r - m.step_fraction * (r - m.r_min)
    else:
        r = r + m.step_fraction * (m.r_max - r)
    if m.noise_sigma_rel > 0:
        if rng is None:
            rng = np.random.default_rng()
        r *= 1.0 + rng.normal(0.0, m.noise_sigma_rel)
    r = min(max(r, m.r_min), m.r_max)
    return replace(state, resistance=r)


def _level_grid(model: DeviceModel) -> tuple[float, float]:
    """(g_lo, dg): level k of the device grid has conductance g_lo + k * dg."""
    g_lo = 1.0 / model.r_max
    return g_lo, (1.0 / model.r_min - g_lo) / (model.n_levels - 1)


def conductance_levels(model: DeviceModel) -> np.ndarray:
    """Admissible conductance grid: 2^bits levels uniform between 1/r_max and
    1/r_min, each exactly the conductance quantize returns for its level."""
    g_lo, dg = _level_grid(model)
    return g_lo + np.arange(model.n_levels) * dg


def quantize(target: float, model: DeviceModel) -> tuple[int, float]:
    """Nearest admissible level to a target resistance; ties go to the lower index.

    Returns (level_index, level_resistance); level 0 is r_max (lowest conductance).
    """
    if not (model.r_min <= target <= model.r_max):
        raise ValueError(
            f"target {target:.6g} outside [{model.r_min:.6g}, {model.r_max:.6g}]"
        )
    g_lo, dg = _level_grid(model)
    lf = (1.0 / target - g_lo) / dg
    level = int(np.floor(lf))
    if lf - level > 0.5:
        level += 1
    level = min(max(level, 0), model.n_levels - 1)
    return level, 1.0 / (g_lo + level * dg)


@dataclass(frozen=True)
class ProgramResult:
    state: MemristorState
    pulses: int


def _plan_error(g0: float, gt: float, unit: float, qk: list[float], k: int):
    """First digit and absolute gap error of the length-k schedule driving gap g0
    (above r_min) toward gt.

    Each pulse multiplies the gap by q = 1 - sf (qk[i] is q ** i); a reset pulse
    also adds unit = sf * (r_max - r_min). The digits (1 = reset, 0 = set) are
    chosen greedily from the heaviest (the last pulse) down.
    """
    need = (gt - qk[k] * g0) / unit
    if need < 0:  # even an all-set schedule overshoots; error is what remains
        return False, abs(gt - qk[k] * g0)
    for w in qk[:k]:  # weights q^0 (last pulse) up to q^(k-1) (first pulse)
        first = need >= w
        if first:
            need -= w
    return first, unit * need


def _plan(state: MemristorState, target: float, tol_abs: float, budget: int,
          qk: list[float]):
    """First pulse of the shortest schedule within the pulse budget whose
    predicted error fits tol, else of the first one with the least error."""
    m = state.model
    g0, gt, q = state.resistance - m.r_min, target - m.r_min, 1.0 - m.step_fraction
    unit = m.step_fraction * (m.r_max - m.r_min)
    # all-set schedules overshooting by more than tol come first (the gap left
    # shrinks with k): start at the last of them, the least error among them.
    # Capping at sys.maxsize (bisect's longest range) moves no start: q ** k
    # is 0.0 there, so no all-set schedule that long overshoots
    start = bisect.bisect(range(1, min(budget, sys.maxsize) + 1), False, key=lambda k: not (
        (gt - q ** k * g0) / unit < 0 and abs(gt - q ** k * g0) > tol_abs))
    best = None
    for k in range(max(start, 1), budget + 1):
        qk.extend(q ** i for i in range(len(qk), k + 1))
        first, err = _plan_error(g0, gt, unit, qk, k)
        if err <= tol_abs:
            return first
        if best is None or err < best[1]:
            best = (first, err)
    return best[0]


def program_to_target(
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
        raise ValueError(f"target {target:.6g} outside [{m.r_min:.6g}, {m.r_max:.6g}]")
    if not (0 < tol_rel < np.inf and max_pulses >= 0):
        raise ValueError(f"require finite tol_rel > 0 and max_pulses >= 0, "
                         f"got {tol_rel}, {max_pulses}")
    v_prog = m.v_prog_threshold
    v_read = 0.5 * v_prog
    tol_abs = tol_rel * target
    pulses, qk = 0, []  # qk[i] is q ** i, grown as far as the planner looks
    while True:
        measured = v_read / read_current(state, v_read)
        if abs(measured - target) <= tol_abs:
            return ProgramResult(state=state, pulses=pulses)
        if pulses >= max_pulses:
            raise ProgramTimeoutError(target, state.resistance, pulses)
        reset = _plan(state, target, tol_abs, max_pulses - pulses, qk)
        # any amplitude at the threshold or past it moves one full step
        state = apply_pulse(state, -v_prog if reset else v_prog, rng)
        pulses += 1
