"""Steady-state evaluation of a memristive current-mode threshold logic gate.

A gate compares the current drawn through the active input memristors
against the current through the (always-active) threshold memristors.
All memristances are in ohms, voltages in volts, currents in amperes.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import accumulate

import numpy as np

# Currents within this relative band, 1 / TIE_BAND, count as a tie; the tie
# rule decides. synth.verify_config compares in integers against TIE_BAND itself
TIE_BAND = 10**9
TIE_EPS_REL = 1 / TIE_BAND

MAX_FAN_IN = 16
MAX_GRID_POINTS = 10**7  # largest boundary grid, as many as the longest trace

# classify packs 64 rows to a word: the row distances 2^j in a word, the rows r with bit j clear
_SHIFTS = 2 ** np.arange(6, dtype=np.uint64)
_MASKS = np.array([sum(1 << r for r in range(64) if not r >> j & 1) for j in range(6)], np.uint64)


class TieRule(Enum):
    INPUT_WINS = "input_wins"
    THRESHOLD_WINS = "threshold_wins"


class DimensionMismatchError(ValueError):
    pass


class FanInError(ValueError):
    pass


@dataclass(frozen=True)
class VoltageLevels:
    """Supply and logic levels. v_dd drives the differential branches and must
    stay below the device programming threshold so reads cannot program."""

    v_dd: float = 0.65
    v_high: float = 0.9
    v_low: float = 0.0

    def __post_init__(self):
        if not (self.v_low < self.v_dd < self.v_high):
            raise ValueError(
                f"require v_low < v_dd < v_high, got "
                f"{self.v_low}, {self.v_dd}, {self.v_high}"
            )


@dataclass(frozen=True)
class GateConfig:
    """One gate instance: input-branch and threshold-branch memristances."""

    input_memristances: tuple[float, ...]
    threshold_memristances: tuple[float, ...]
    levels: VoltageLevels = field(default_factory=VoltageLevels)
    tie_rule: TieRule = TieRule.INPUT_WINS

    def __post_init__(self):
        for name in ("input_memristances", "threshold_memristances"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        if len(self.input_memristances) < 1 or len(self.threshold_memristances) < 1:
            raise ValueError("need at least one input and one threshold memristance")
        if len(self.input_memristances) > MAX_FAN_IN:
            raise FanInError(f"fan-in {len(self.input_memristances)} > {MAX_FAN_IN}")
        for m in self.input_memristances + self.threshold_memristances:
            if not (m > 0):
                raise ValueError(f"memristance must be positive, got {m}")
        # every nonzero current the float path forms lies between v_dd times the
        # least conductance and v_dd times their sum; below the normal floats
        # the tie band loses its precision, past the largest they overflow
        (g, g_t), v = self._hyperplane, self.levels.v_dd
        if not (sys.float_info.min <= v * min(*g, g_t) and math.isfinite(v * (sum(g) + g_t))):
            raise ValueError(f"branch currents at v_dd {v:g} V leave the normal float range")

    @cached_property
    def _hyperplane(self) -> tuple[tuple[float, ...], float]:
        # not a field: computed on first read, which __post_init__ makes when a gate is built
        g = tuple(1.0 / m for m in self.input_memristances)
        return g, sum(1.0 / m for m in self.threshold_memristances)

    @property
    def n(self) -> int:
        return len(self.input_memristances)


@dataclass(frozen=True)
class GateOutput:
    ca: int | np.ndarray  # int8 arrays for columns of patterns
    co: int | np.ndarray
    i_in: float | np.ndarray  # the branch currents the decision compared
    i_th: float


@dataclass(frozen=True)
class TruthTable:
    """Outputs of an n-input Boolean function, indexed by the input vector read
    as a binary number with x1 as the most significant bit."""

    n: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 0:
            raise ValueError(f"n must be a count of inputs, got {self.n!r}")
        out = np.asarray(self.outputs)  # any sequence or array of 0/1 numbers
        if out.dtype.kind in "SU":  # np.asarray reads "0110" as one string
            raise ValueError("outputs must be 0/1 numbers, not text (see from_bitstring)")
        if out.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} outputs, got shape {out.shape}")
        if not ((out == 0) | (out == 1)).all():
            raise ValueError("outputs must be 0/1")
        object.__setattr__(self, "_bytes", out.astype(np.int8).tobytes())  # int8, not a field
        object.__setattr__(self, "outputs", tuple(self._bytes))

    @property
    def array(self) -> np.ndarray:
        """The outputs as a read-only int8 array over the table's own bytes."""
        return np.frombuffer(self._bytes, dtype=np.int8)

    @staticmethod
    def from_bitstring(s: str, n: int | None = None) -> "TruthTable":
        """Bitstring with the all-ones input first (descending index order)."""
        bits = [int(c) for c in s.strip()]
        if n is None:
            n = (len(bits) - 1).bit_length()
        if len(bits) != 2 ** n:
            raise ValueError(f"bitstring length {len(bits)} is not 2^{n}")
        return TruthTable(n, tuple(reversed(bits)))


def bits_of_index(k: int, n: int) -> tuple[int, ...]:
    """Input vector (x1..xn) for truth-table index k; x1 is the MSB of k."""
    return tuple((k >> (n - 1 - i)) & 1 for i in range(n))


class GateKind(Enum):
    CONSTANT_ZERO = "constant-0"
    CONSTANT_ONE = "constant-1"
    AND = "AND"
    OR = "OR"
    NAND = "NAND"
    NOR = "NOR"
    MAJORITY = "MAJ"
    DICTATOR = "dictator"
    OTHER_THRESHOLD = "threshold"
    NON_MONOTONE = "non-monotone"


@dataclass(frozen=True)
class GateClass:
    kind: GateKind
    k: int | None = None  # majority rank, when applicable
    index: int | None = None  # dictating input, 0-based

    def label(self) -> str:
        if self.kind is GateKind.AND:
            return f"AND (MAJ-{self.k})"
        if self.kind is GateKind.OR:
            return "OR (MAJ-1)"
        if self.kind is GateKind.MAJORITY:
            return f"MAJ-{self.k}"
        if self.kind is GateKind.DICTATOR:
            return f"dictator(x{self.index + 1})"
        return self.kind.value


def _check_bits(config: GateConfig, bits):
    """The bits unchanged, once they are config.n 0/1 values (one input
    vector) or config.n equal-length 0/1 columns (one pattern per row)."""
    if len(bits) != config.n:
        raise DimensionMismatchError(
            f"input has {len(bits)} bits, gate expects {config.n}"
        )
    b = np.asarray(bits)
    if not ((b == 0) | (b == 1)).all():
        raise ValueError("input bits must be 0/1")
    return bits


def input_columns(n: int) -> list[np.ndarray]:
    """The int8 column of each input x1..xn over all 2^n truth-table rows,
    x1 the most significant bit of the row index."""
    k = np.arange(2 ** n)
    return [((k >> (n - 1 - i)) & 1).astype(np.int8) for i in range(n)]


def decision_hyperplane(config: GateConfig) -> tuple[tuple[float, ...], float]:
    """Coefficients (g_1..g_n) and right-hand side g_T of the boundary: the
    conductances behind every float decision, computed when the gate is built."""
    return config._hyperplane


def branch_currents(config: GateConfig, bits) -> tuple[float | np.ndarray, float]:
    """(i_in, i_th): the currents drawn by the active input memristors and by the
    threshold bank, for one input vector (floats) or for columns of patterns
    (i_in an array). Terms add x_n first, as in _decide_grid; an inactive input
    adds an exact 0.0."""
    bits = _check_bits(config, bits)
    (g, g_t), v = config._hyperplane, config.levels.v_dd
    i_in = sum(gi * b for gi, b in zip(reversed(g), reversed(bits)))
    return v * i_in, v * g_t


def decide(i_in, i_th, tie_rule: TieRule):
    """CA (int8) for scalars or arrays alike: 1 where the input branch wins, the
    tie rule where the currents lie within the relative tie band, else 0. Both
    currents are >= 0: GateConfig refuses every gate whose v_dd * g is below
    the least normal float, and so any v_dd <= 0."""
    tie = np.abs(i_in - i_th) <= TIE_EPS_REL * np.maximum(i_in, i_th)
    if tie_rule is TieRule.INPUT_WINS:
        return ((i_in > i_th) | tie).astype(np.int8)
    return ((i_in > i_th) & ~tie).astype(np.int8)


def evaluate(config: GateConfig, bits) -> GateOutput:
    """CA and CO as ints for one input vector, as int8 arrays for columns,
    with the branch currents they were decided from."""
    i_in, i_th = branch_currents(config, bits)
    ca = decide(i_in, i_th, config.tie_rule)
    if ca.ndim == 0:
        ca = int(ca)
    return GateOutput(ca=ca, co=1 - ca, i_in=i_in, i_th=i_th)


def _decide_grid(config: GateConfig, axis: np.ndarray) -> np.ndarray:
    """CA at every point of axis^n, flat, x1 the slowest axis. Each input's
    terms go outermost, x_n first, so every point adds its terms in the order
    branch_currents does and the 0/1 corners compare its currents bit for bit."""
    (g, g_t), v = config._hyperplane, config.levels.v_dd
    s = np.zeros(1)
    for gi in reversed(g):
        s = (s + gi * axis[:, None]).ravel()
    s *= v  # in place: a second array of every point would cost time and memory
    return decide(s, v * g_t, config.tie_rule)


def truth_table(config: GateConfig) -> TruthTable:
    """Exhaustive evaluation over all 2^n input corners."""
    return TruthTable(config.n, _decide_grid(config, np.array([0.0, 1.0])))


def classify(tt: TruthTable) -> GateClass:
    n, outs = tt.n, tt.array
    ones = np.count_nonzero(outs)
    if ones == 0:
        return GateClass(GateKind.CONSTANT_ZERO)
    if ones == len(outs):
        return GateClass(GateKind.CONSTANT_ONE)

    if 2 * ones == len(outs):  # a dictator copies one input: half the rows are on
        for i in range(n):
            halves = outs.reshape(2 ** i, 2, -1)  # output with x_i = 0, with x_i = 1
            if not halves[:, 0].any() and halves[:, 1].all():
                return GateClass(GateKind.DICTATOR, index=i)

    # MAJ-k is [popcount >= k]: its 1-rows number sum(C(n, j) for j >= k),
    # which falls strictly with k, so the count names the only k to try
    tails = list(accumulate(math.comb(n, j) for j in range(n, 0, -1)))  # k = n..1
    k = len(tails) - tails.index(ones) if ones in tails else 0
    if k and (outs == (np.bitwise_count(np.arange(2 ** n)) >= k)).all():
        if n >= 2 and k in (1, n):
            return GateClass(GateKind.AND if k == n else GateKind.OR, k=k)
        return GateClass(GateKind.MAJORITY, k=k)
    if n >= 2 and ones == len(outs) - 1 and not outs[-1]:  # only the all-ones row is 0
        return GateClass(GateKind.NAND, k=n)
    if n >= 2 and ones == 1 and outs[0]:  # only the all-zeros row is 1
        return GateClass(GateKind.NOR, k=1)

    # flipping any input 0 -> 1 must never turn the output off. Row r is bit r % 64 of
    # word r // 64: its partner r + b is b bits up for b < 64, else the same bit of
    # word (r // 64) | (b // 64), which is the word itself when r has bit b set
    w = np.frombuffer(np.packbits(outs, bitorder="little").tobytes().ljust(8, b"\0"), "<u8")
    off, up = ~w, np.arange(len(w))[:, None] | 2 ** np.arange(max(n - 6, 0))
    if (np.count_nonzero(w[:, None] & (off[:, None] >> _SHIFTS[:n]) & _MASKS[:n])
            or np.count_nonzero(w[:, None] & off[up])):
        return GateClass(GateKind.NON_MONOTONE)
    return GateClass(GateKind.OTHER_THRESHOLD)


@dataclass(frozen=True)
class BoundaryMap:
    """Classification of the relaxed input cube [0,1]^n on a uniform grid; the
    separating hyperplane itself comes from decision_hyperplane."""

    axes: tuple[np.ndarray, ...]
    grid: np.ndarray  # shape (res,)*n, values 0/1; index order (a1, a2, ...)


def boundary_grid(config: GateConfig, resolution: int) -> BoundaryMap:
    """Map the decision boundary over relaxed activations in [0,1]^n. It compares
    currents as truth_table does, so the grid's corners are the truth table.
    Grid export is limited to n in {2, 3} and MAX_GRID_POINTS points; for
    higher fan-in use decision_hyperplane directly."""
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if config.n not in (2, 3):
        raise FanInError(f"grid export supports n in {{2, 3}}, got n={config.n}")
    if resolution ** config.n > MAX_GRID_POINTS:
        raise ValueError(f"grid of {resolution}^{config.n} points exceeds {MAX_GRID_POINTS}")
    axis = np.linspace(0.0, 1.0, resolution)
    grid = _decide_grid(config, axis).reshape((resolution,) * config.n)
    return BoundaryMap(axes=(axis,) * config.n, grid=grid)
