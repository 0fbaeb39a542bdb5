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
        object.__setattr__(
            self, "input_memristances", tuple(float(m) for m in self.input_memristances)
        )
        object.__setattr__(
            self,
            "threshold_memristances",
            tuple(float(m) for m in self.threshold_memristances),
        )
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
    i_in: float
    i_th: float


@dataclass(frozen=True)
class GateOutput:
    ca: int
    co: int


@dataclass(frozen=True)
class TruthTable:
    """Outputs of an n-input Boolean function, indexed by the input vector read
    as a binary number with x1 as the most significant bit."""

    n: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "outputs", tuple(map(int, self.outputs)))
        if len(self.outputs) != 2 ** self.n:
            raise ValueError(f"expected {2 ** self.n} outputs, got {len(self.outputs)}")
        if not set(self.outputs) <= {0, 1}:
            raise ValueError("outputs must be 0/1")

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
        return TruthTable(self.n, tuple(1 - b for b in self.outputs))


def bits_of_index(k: int, n: int) -> tuple[int, ...]:
    """Input vector (x1..xn) for truth-table index k; x1 is the MSB of k."""
    return tuple((k >> (n - 1 - i)) & 1 for i in range(n))


def index_of_bits(bits) -> int:
    k = 0
    for b in bits:
        k = (k << 1) | int(b)
    return k


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


def _check_bits(config: GateConfig, bits) -> tuple[int, ...]:
    bits = tuple(int(b) for b in bits)
    if len(bits) != config.n:
        raise DimensionMismatchError(
            f"input has {len(bits)} bits, gate expects {config.n}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError("input bits must be 0/1")
    return bits


def _threshold_current(config: GateConfig) -> float:
    return config.levels.v_dd * sum(1.0 / m for m in config.threshold_memristances)


def branch_currents(config: GateConfig, bits) -> BranchCurrents:
    """Currents drawn by the active input memristors and by the threshold bank."""
    bits = _check_bits(config, bits)
    v = config.levels.v_dd
    i_in = v * sum(1.0 / m for m, b in zip(config.input_memristances, bits) if b)
    return BranchCurrents(i_in=i_in, i_th=_threshold_current(config))


def decide(i_in, i_th, tie_rule: TieRule):
    """CA (int8) for scalars or arrays alike: 1 where the input branch wins, the
    tie rule where the currents lie within the relative tie band, else 0."""
    tie = np.abs(i_in - i_th) <= TIE_EPS_REL * np.maximum(np.abs(i_in), np.abs(i_th))
    if tie_rule is TieRule.INPUT_WINS:
        return ((i_in > i_th) | tie).astype(np.int8)
    return ((i_in > i_th) & ~tie).astype(np.int8)


def evaluate(config: GateConfig, bits) -> GateOutput:
    bc = branch_currents(config, bits)
    ca = int(decide(bc.i_in, bc.i_th, config.tie_rule))
    return GateOutput(ca=ca, co=1 - ca)


def evaluate_patterns(config: GateConfig, columns) -> np.ndarray:
    """CA for many input patterns at once; columns[i] holds input i's 0/1 bit
    of every pattern. The active conductances add in slot order, as in
    branch_currents, so every decision equals evaluate's bit for bit."""
    s = sum(np.where(col, 1.0 / m, 0.0)
            for m, col in zip(config.input_memristances, columns))
    return decide(config.levels.v_dd * s, _threshold_current(config), config.tie_rule)


def _corner_sums(terms, zero=0.0) -> np.ndarray:
    """sum(t_i * x_i) at every input corner x, in truth-table order. Doubling
    over the terms in slot order adds each corner's active terms left to right,
    as Python's sum does, so float sums equal branch_currents' bit for bit."""
    s = np.array([zero])
    for t in terms:
        s = (s[:, None] + [zero, t]).ravel()
    return s


def truth_table(config: GateConfig) -> TruthTable:
    """Exhaustive evaluation over all 2^n input corners."""
    i_in = config.levels.v_dd * _corner_sums([1.0 / m for m in config.input_memristances])
    ca = decide(i_in, _threshold_current(config), config.tie_rule)
    return TruthTable(config.n, ca.tolist())


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

    popcount = _corner_sums([1] * n, zero=0)
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


def decision_hyperplane(config: GateConfig) -> tuple[tuple[float, ...], float]:
    """Coefficients (g_1..g_n) and right-hand side g_T of the boundary."""
    g = tuple(1.0 / m for m in config.input_memristances)
    g_t = sum(1.0 / m for m in config.threshold_memristances)
    return g, g_t


def boundary_grid(config: GateConfig, resolution: int) -> BoundaryMap:
    """Map the decision boundary over relaxed activations in [0,1]^n.

    Grid export is limited to n in {2, 3}; for higher fan-in use
    decision_hyperplane directly.
    """
    if config.n not in (2, 3):
        raise FanInError(f"grid export supports n in {{2, 3}}, got n={config.n}")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    g, g_t = decision_hyperplane(config)
    axes = tuple(np.linspace(0.0, 1.0, resolution) for _ in range(config.n))
    mesh = np.meshgrid(*axes, indexing="ij")
    lhs = sum(gi * a for gi, a in zip(g, mesh))
    grid = decide(lhs, g_t, config.tie_rule)
    return BoundaryMap(axes=axes, grid=grid, conductances=g, g_threshold=g_t)
