"""Steady-state evaluation of a memristive current-mode threshold logic gate.

A gate compares the current drawn through the active input memristors
against the current through the (always-active) threshold memristors.
All memristances are in ohms, voltages in volts, currents in amperes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Currents within this relative band count as a tie; the tie rule decides.
TIE_EPS_REL = 1e-9

MAX_FAN_IN = 16
MAX_GRID_POINTS = 10**7  # largest boundary grid, as many as the longest trace


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

    @property
    def n(self) -> int:
        return len(self.input_memristances)

    def scaled(self, lam: float) -> "GateConfig":
        """Every memristance multiplied by lam > 0 (truth table is invariant)."""
        return GateConfig(
            tuple(lam * m for m in self.input_memristances),
            tuple(lam * m for m in self.threshold_memristances),
            self.levels,
            self.tie_rule,
        )


@dataclass(frozen=True)
class BranchCurrents:
    i_in: float | np.ndarray  # an array for columns of patterns
    i_th: float


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
        out = np.asarray(self.outputs)  # any sequence or array of 0/1 numbers
        if out.dtype.kind in "SU":  # np.asarray reads "0110" as one string
            raise ValueError("outputs must be 0/1 numbers, not text (see from_bitstring)")
        if out.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} outputs, got shape {out.shape}")
        if not ((out == 0) | (out == 1)).all():
            raise ValueError("outputs must be 0/1")
        object.__setattr__(self, "outputs", tuple(out.astype(np.int8).tobytes()))

    @staticmethod
    def from_bitstring(s: str, n: int | None = None) -> "TruthTable":
        """Bitstring with the all-ones input first (descending index order)."""
        bits = [int(c) for c in s.strip()]
        if n is None:
            n = (len(bits) - 1).bit_length()
        if len(bits) != 2 ** n:
            raise ValueError(f"bitstring length {len(bits)} is not 2^{n}")
        return TruthTable(n, tuple(reversed(bits)))

    def to_bitstring(self) -> str:
        return "".join(str(b) for b in reversed(self.outputs))

    def complement(self) -> "TruthTable":
        return TruthTable(self.n, 1 - np.array(self.outputs, dtype=np.int8))


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
    conductances behind every decision of the float path."""
    g = tuple(1.0 / m for m in config.input_memristances)
    g_t = sum(1.0 / m for m in config.threshold_memristances)
    return g, g_t


_conductances = decision_hyperplane  # per-row name, not wrapped by perfbench/tracing.py


def branch_currents(config: GateConfig, bits) -> BranchCurrents:
    """Currents drawn by the active input memristors and by the threshold bank,
    for one input vector (floats) or for columns of patterns (arrays). The
    conductances add in slot order; an inactive input adds an exact 0.0."""
    bits = _check_bits(config, bits)
    g, g_t = _conductances(config)
    v = config.levels.v_dd
    return BranchCurrents(i_in=v * sum(gi * b for gi, b in zip(g, bits)), i_th=v * g_t)


def decide(i_in, i_th, tie_rule: TieRule):
    """CA (int8) for scalars or arrays alike: 1 where the input branch wins, the
    tie rule where the currents lie within the relative tie band, else 0."""
    tie = np.abs(i_in - i_th) <= TIE_EPS_REL * np.maximum(np.abs(i_in), np.abs(i_th))
    if tie_rule is TieRule.INPUT_WINS:
        return ((i_in > i_th) | tie).astype(np.int8)
    return ((i_in > i_th) & ~tie).astype(np.int8)


def evaluate(config: GateConfig, bits) -> GateOutput:
    """CA and CO as ints for one input vector, as int8 arrays for columns,
    with the branch currents they were decided from."""
    bc = branch_currents(config, bits)
    ca = decide(bc.i_in, bc.i_th, config.tie_rule)
    if ca.ndim == 0:
        ca = int(ca)
    return GateOutput(ca=ca, co=1 - ca, i_in=bc.i_in, i_th=bc.i_th)


def _corner_sums(terms) -> np.ndarray:
    """sum(t_i * x_i) at every input corner x, in truth-table order. Doubling
    over the terms in slot order adds each corner's active terms left to right,
    as Python's sum does, so float sums equal branch_currents' bit for bit."""
    s = np.array([0.0])
    for t in terms:
        s = (s[:, None] + [0.0, t]).ravel()
    return s


def truth_table(config: GateConfig) -> TruthTable:
    """Exhaustive evaluation over all 2^n input corners."""
    g, g_t = _conductances(config)
    v = config.levels.v_dd
    ca = decide(v * _corner_sums(g), v * g_t, config.tie_rule)
    return TruthTable(config.n, ca)


def classify(tt: TruthTable) -> GateClass:
    n, outs = tt.n, np.frombuffer(bytes(tt.outputs), dtype=np.int8)  # 0/1 fit bytes
    if not outs.any():
        return GateClass(GateKind.CONSTANT_ZERO)
    if outs.all():
        return GateClass(GateKind.CONSTANT_ONE)

    # (output with x_i = 0, output with x_i = 1) over the other inputs
    cube = outs.reshape((2,) * n)
    halves = [(np.take(cube, 0, axis=i), np.take(cube, 1, axis=i)) for i in range(n)]

    # dictator: output copies one input
    for i, (lo, hi) in enumerate(halves):
        if not lo.any() and hi.all():
            return GateClass(GateKind.DICTATOR, index=i)

    popcount = np.bitwise_count(np.arange(2 ** n))
    rows = np.bincount(popcount, minlength=n + 1)
    ones = np.bincount(popcount[outs == 1], minlength=n + 1)
    maj = _majority_rank(ones, rows)
    if maj is not None:
        if maj == n and n >= 2:
            return GateClass(GateKind.AND, k=maj)
        if maj == 1 and n >= 2:
            return GateClass(GateKind.OR, k=maj)
        return GateClass(GateKind.MAJORITY, k=maj)

    cmaj = _majority_rank(rows - ones, rows)
    if cmaj == n and n >= 2:
        return GateClass(GateKind.NAND, k=cmaj)
    if cmaj == 1 and n >= 2:
        return GateClass(GateKind.NOR, k=cmaj)

    # flipping any input 0 -> 1 must never turn the output off
    if all((lo <= hi).all() for lo, hi in halves):
        return GateClass(GateKind.OTHER_THRESHOLD)
    return GateClass(GateKind.NON_MONOTONE)


def _majority_rank(ones, rows) -> int | None:
    """k such that the table is [popcount >= k], or None, given its count of
    1-rows and of all rows at each popcount 0..n."""
    on = ones == rows
    k = len(rows) - int(on.sum())
    if ((ones == 0) | on).all() and 1 <= k < len(rows) and on[k:].all():
        return k
    return None


@dataclass(frozen=True)
class BoundaryMap:
    """Classification of the relaxed input cube [0,1]^n on a uniform grid,
    plus the separating hyperplane sum(a_i * g_i) = g_threshold."""

    axes: tuple[np.ndarray, ...]
    grid: np.ndarray  # shape (res,)*n, values 0/1; index order (a1, a2, ...)
    conductances: tuple[float, ...]
    g_threshold: float


def boundary_grid(config: GateConfig, resolution: int) -> BoundaryMap:
    """Map the decision boundary over relaxed activations in [0,1]^n.

    Grid export is limited to n in {2, 3} and MAX_GRID_POINTS points; for
    higher fan-in use decision_hyperplane directly.
    """
    if config.n not in (2, 3):
        raise FanInError(f"grid export supports n in {{2, 3}}, got n={config.n}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    if resolution ** config.n > MAX_GRID_POINTS:
        raise ValueError(f"grid of {resolution}^{config.n} points exceeds {MAX_GRID_POINTS}")
    g, g_t = decision_hyperplane(config)
    axes = tuple(np.linspace(0.0, 1.0, resolution) for _ in range(config.n))
    # sparse axes broadcast to the full grid in the sum, which adds the same
    # products in the same order as a dense mesh would
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    lhs = sum(gi * a for gi, a in zip(g, mesh))
    grid = decide(lhs, g_t, config.tie_rule)
    return BoundaryMap(axes=axes, grid=grid, conductances=g, g_threshold=g_t)
