"""Weight synthesis for linearly separable Boolean targets.

Conductances are found by a single linear program: with the threshold
conductance normalized to 1, the minimum relative current margin over all
truth-table rows is a linear objective. A pair of auxiliary min/max variables
keeps the conductance spread inside the device's programmable ratio so the
normalized solution can always be rescaled onto the physical range.
`synthesize` solves that ratio-bounded program only, and solves the
unbounded one of `check_separability` as well only when the bounded margin
falls short of the requirement, to tell an unseparable target from a
device-range failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .device import DeviceModel, quantize
from .gate import (
    TIE_BAND,
    GateConfig,
    TieRule,
    TruthTable,
    bits_of_index,
    input_columns,
)

# strictness floor for rows that must hold with strict inequality
_STRICT_EPS = 1e-9
MAX_SYNTH_N = 10  # most inputs of a target that separability and synthesis take


class SolverError(Exception):
    """HiGHS failed on a margin LP, which always has a solution."""


class DeviceRangeError(Exception):
    """Target is separable but not at the required margin within the device's
    conductance ratio."""


@dataclass(frozen=True)
class SynthesisSpec:
    target: TruthTable
    device: DeviceModel = field(default_factory=DeviceModel)
    tie_rule: TieRule = TieRule.INPUT_WINS
    min_margin_rel: float = 0.05

    def __post_init__(self):
        if not (0 <= self.min_margin_rel < math.inf):
            raise ValueError(f"min_margin_rel must be >= 0 and finite, "
                             f"got {self.min_margin_rel}")


@dataclass(frozen=True)
class SynthesisResult:
    feasible: bool
    conductances: tuple[float, ...] | None = None
    g_threshold: float | None = None
    memristances: tuple[float, ...] | None = None
    threshold_memristance: float | None = None
    quantized_config: GateConfig | None = None
    quantized_ok: bool = False
    quantized_failure_row: int | None = None
    achieved_margin: float | None = None
    infeasibility_witness: tuple | None = None


def _witness(tt: TruthTable):
    """Inputs that no positive-weight gate can realize: the zero vector when
    f(0...0) = 1, else the first pair (x, y) with x <= y bitwise, f(x) = 1 and
    f(y) = 0 (y ascending, then the cleared bit from the LSB), else None."""
    n, outs = tt.n, tt.array
    if outs[0] == 1:
        return (bits_of_index(0, n),)
    low = np.arange(2 ** n)[:, None] & ~(1 << np.arange(n))  # y with bit i cleared
    viol = outs[:, None] < outs[low]
    if not viol.any():
        return None
    y, i = divmod(int(viol.argmax()), n)
    return (bits_of_index(y & ~(1 << i), n), bits_of_index(y, n))


def _margin_lp(tt: TruthTable, ratio: float | None):
    """Maximize the minimum relative margin with the threshold conductance at 1.

    Variables: g_1..g_n, margin m, spread-min, spread-max. When ratio is given,
    max(g, 1) <= ratio * min(g, 1) keeps the solution rescalable onto the
    device conductance box. Returns (margin, conductances); raises
    SolverError when HiGHS reports failure.
    """
    from scipy.optimize import linprog  # on first use: most of `import mtlg` time
    n = tt.n
    rows = 2 ** n
    i_m, i_mn, i_mx = n, n + 1, n + 2
    # one row per table row: sum(g) >= 1 + m for a 1 (-sum(g) + m <= -1),
    # sum(g) <= 1 - m for a 0 (sum(g) + m <= 1)
    sign = np.where(tt.array == 1, -1.0, 1.0)
    a_ub = np.zeros((rows + 2 * n + (ratio is not None), n + 3))
    a_ub[:rows, :n] = sign[:, None] * np.transpose(input_columns(n))
    a_ub[:rows, i_m] = 1.0
    i = np.arange(n)
    lo = rows + 2 * i  # then a row pair per g_i: mn <= g_i, g_i <= mx
    a_ub[lo, i], a_ub[lo, i_mn] = -1.0, 1.0
    a_ub[lo + 1, i], a_ub[lo + 1, i_mx] = 1.0, -1.0
    if ratio is not None:
        a_ub[-1, i_mx], a_ub[-1, i_mn] = 1.0, -ratio  # mx <= ratio * mn
    b_ub = np.zeros(len(a_ub))
    b_ub[:rows] = sign
    c = np.zeros(n + 3)
    c[i_m] = -1.0
    bounds = [(1e-12, None)] * n + [(None, None), (1e-12, 1.0), (1.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"margin LP failed: HiGHS status {res.status}: {res.message}")
    return float(res.x[i_m]), tuple(float(v) for v in res.x[:n])


def check_separability(tt: TruthTable):
    """Decide whether the table is realizable with positive weights.

    Returns (feasible, witness): when infeasible, the witness is the zero
    input vector (if f(0...0) = 1), a monotonicity-violating input pair, or
    None for the rare monotone-but-unseparable case; when feasible it is a
    separating conductance certificate (g_1..g_n, 1).
    """
    if tt.n > MAX_SYNTH_N:
        raise ValueError(f"separability check limited to n <= {MAX_SYNTH_N}, got {tt.n}")
    w = _witness(tt)
    if w is not None:
        return False, w
    margin, g = _margin_lp(tt, ratio=None)
    if margin <= _STRICT_EPS:
        return False, None
    return True, (*g, 1.0)


def synthesize(spec: SynthesisSpec) -> SynthesisResult:
    """Margin-maximizing synthesis plus quantization onto the device grid."""
    tt = spec.target
    if tt.n > MAX_SYNTH_N:
        raise ValueError(f"synthesis limited to n <= {MAX_SYNTH_N}, got {tt.n}")
    witness = _witness(tt)
    if witness is not None:
        return SynthesisResult(feasible=False, infeasibility_witness=witness)

    dev = spec.device
    ratio = dev.r_max / dev.r_min
    margin, g_norm = _margin_lp(tt, ratio=ratio)
    required = max(spec.min_margin_rel, _STRICT_EPS)
    # the ratio-bounded LP restricts the unbounded one, so a bounded margin at
    # the requirement and above _STRICT_EPS already proves separability
    if margin < required or margin <= _STRICT_EPS:
        feasible, witness = check_separability(tt)
        if not feasible:
            return SynthesisResult(feasible=False, infeasibility_witness=witness)
    if margin < required:
        raise DeviceRangeError(
            f"achievable margin {margin:.4g} below "
            f"required {spec.min_margin_rel:.4g} within conductance ratio {ratio:.4g}"
        )

    # rescale the normalized solution (threshold conductance 1) onto the box
    g_lo, g_hi = 1.0 / dev.r_max, 1.0 / dev.r_min
    all_g = list(g_norm) + [1.0]
    lam_lo = g_lo / min(all_g)
    lam_hi = g_hi / max(all_g)
    lam = float(np.sqrt(lam_lo * lam_hi))
    conductances = tuple(float(lam * gi) for gi in g_norm)
    g_t = float(lam)

    def clamp(r):
        # rounding can push a boundary value a few ulps past the box
        return min(dev.r_max, max(dev.r_min, r))

    memristances = tuple(clamp(1.0 / gi) for gi in conductances)
    th = clamp(1.0 / g_t)

    q_ms = tuple(quantize(m, dev)[1] for m in memristances)
    q_th = quantize(th, dev)[1]
    q_config = GateConfig(q_ms, (q_th,), tie_rule=spec.tie_rule)
    q_report = verify_config(q_config, tt)
    return SynthesisResult(
        feasible=True,
        conductances=conductances,
        g_threshold=g_t,
        memristances=memristances,
        threshold_memristance=th,
        quantized_config=q_config,
        quantized_ok=q_report.ok,
        quantized_failure_row=q_report.first_failure_row,
        achieved_margin=margin,
    )


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    row_margins: tuple[float, ...]  # signed relative margin (i_in - i_th) / i_th
    worst_margin: float  # min |margin| over rows
    first_failure_row: int | None


def verify_config(config: GateConfig, target: TruthTable) -> VerifyReport:
    """Exact re-evaluation of a config against a target table.

    Independent of the float evaluation path: every conductance is scaled
    exactly onto a common integer scale (the lcm of the memristances'
    numerators), so sums, the relative tie band and the comparisons are all
    integer arithmetic. Each margin is the correctly rounded quotient of two
    integers.
    """
    if config.n != target.n:
        raise ValueError(f"config has {config.n} inputs, target has {target.n}")
    ratios = [m.as_integer_ratio() for m in
              config.input_memristances + config.threshold_memristances]
    scale = math.lcm(*(num for num, _ in ratios))
    g = [scale // num * den for num, den in ratios]  # scale / m, exactly
    g_t = sum(g[config.n:])
    sums = [0]  # input conductance sum of every row, x1 the MSB of the index
    for gi in g[:config.n]:
        sums = [s + b for s in sums for b in (0, gi)]
    tie_ca = 1 if config.tie_rule is TieRule.INPUT_WINS else 0
    # relative tie band 1 / TIE_BAND: |s - g_t| <= max(s, g_t) / TIE_BAND
    ca = [tie_ca if TIE_BAND * abs(s - g_t) <= max(s, g_t) else int(s > g_t)
          for s in sums]
    margins = tuple((s - g_t) / g_t for s in sums)
    fails = [k for k, (c, o) in enumerate(zip(ca, target.outputs)) if c != o]
    return VerifyReport(
        ok=not fails,
        row_margins=margins,
        worst_margin=min(map(abs, margins)),
        first_failure_row=fails[0] if fails else None,
    )


def _name_number(text: str, what: str) -> int:
    """The integer after the ':' of a named target, read from the text as typed."""
    arg = text.split(":", 1)[1]
    try:
        return int(arg)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {arg!r}") from None


def named_truth_table(name: str, n: int) -> tuple[TruthTable, str]:
    """Resolve a named target; returns (table, tap) where tap 'CO' means the
    function is realized as the complement read from the CO output."""
    if not 1 <= n <= MAX_SYNTH_N:
        raise ValueError(f"named targets need n in 1..{MAX_SYNTH_N}, got {n}")
    text = name.strip()
    name = text.upper()
    ones = np.bitwise_count(np.arange(2 ** n))  # active inputs of every row
    if name.startswith("MAJ:"):
        k = _name_number(text, "MAJ rank")
        if not (1 <= k <= n):
            raise ValueError(f"MAJ rank must be in 1..{n}, got {k}")
        outs = ones >= k
    elif name.startswith("DICT:"):
        i = _name_number(text, "dictator index")
        if not (1 <= i <= n):
            raise ValueError(f"dictator index must be in 1..{n}, got {i}")
        outs = input_columns(n)[i - 1]
    elif name in ("AND", "NAND"):
        outs = ones == n
    elif name in ("OR", "NOR"):
        outs = ones > 0
    elif name in ("XOR", "XNOR"):
        outs = ones % 2 if name == "XOR" else 1 - ones % 2
    else:
        raise ValueError(f"unknown target name {text!r}")
    return TruthTable(n, outs), "CO" if name in ("NAND", "NOR") else "CA"
