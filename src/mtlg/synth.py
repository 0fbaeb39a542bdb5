"""Weight synthesis for linearly separable Boolean targets.

Conductances are found by a single linear program: with the threshold
conductance normalized to 1, the minimum relative current margin over all
truth-table rows is a linear objective. A pair of auxiliary min/max variables
keeps the conductance spread inside the device's programmable ratio so the
normalized solution can always be rescaled onto the physical range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .device import DeviceModel, quantize
from .gate import (
    GateConfig,
    TieRule,
    TruthTable,
    bits_of_index,
)

# strictness floor for rows that must hold with strict inequality
_STRICT_EPS = 1e-9


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
        if self.min_margin_rel < 0:
            raise ValueError("min_margin_rel must be >= 0")


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


def _monotone_witness(tt: TruthTable):
    """Pair (x, y) with x <= y bitwise, f(x) = 1 and f(y) = 0, or None."""
    n = tt.n
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


def _margin_lp(tt: TruthTable, ratio: float | None):
    """Maximize the minimum relative margin with the threshold conductance at 1.

    Variables: g_1..g_n, margin m, spread-min, spread-max. When ratio is given,
    max(g, 1) <= ratio * min(g, 1) keeps the solution rescalable onto the
    device conductance box. Returns (margin, conductances) or (None, None).
    """
    n = tt.n
    nv = n + 3
    i_m, i_mn, i_mx = n, n + 1, n + 2
    a_ub, b_ub = [], []
    for k in range(2 ** n):
        bits = bits_of_index(k, n)
        row = [0.0] * nv
        for i, b in enumerate(bits):
            row[i] = -1.0 if b else 0.0
        row[i_m] = 1.0
        if tt.outputs[k] == 1:
            # sum(g) >= 1 + m  ->  -sum(g) + m <= -1
            a_ub.append(row)
            b_ub.append(-1.0)
        else:
            # sum(g) <= 1 - m  ->  sum(g) + m <= 1
            a_ub.append([-x if i < n else x for i, x in enumerate(row)])
            b_ub.append(1.0)
    for i in range(n):
        lo = [0.0] * nv
        lo[i_mn], lo[i] = 1.0, -1.0  # mn <= g_i
        a_ub.append(lo)
        b_ub.append(0.0)
        hi = [0.0] * nv
        hi[i], hi[i_mx] = 1.0, -1.0  # g_i <= mx
        a_ub.append(hi)
        b_ub.append(0.0)
    if ratio is not None:
        row = [0.0] * nv
        row[i_mx], row[i_mn] = 1.0, -ratio  # mx <= ratio * mn
        a_ub.append(row)
        b_ub.append(0.0)
    c = [0.0] * nv
    c[i_m] = -1.0
    bounds = [(1e-12, None)] * n + [(None, None), (1e-12, 1.0), (1.0, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not res.success:
        return None, None
    return float(res.x[i_m]), tuple(float(v) for v in res.x[:n])


def check_separability(tt: TruthTable):
    """Decide whether the table is realizable with positive weights.

    Returns (feasible, witness): when infeasible, the witness is the zero
    input vector (if f(0...0) = 1), a monotonicity-violating input pair, or
    None for the rare monotone-but-unseparable case; when feasible it is a
    separating conductance certificate (g_1..g_n, 1).
    """
    if tt.n > 10:
        raise ValueError(f"separability check limited to n <= 10, got {tt.n}")
    if tt.outputs[0] == 1:
        return False, (bits_of_index(0, tt.n),)
    w = _monotone_witness(tt)
    if w is not None:
        return False, w
    margin, g = _margin_lp(tt, ratio=None)
    if margin is None or margin <= _STRICT_EPS:
        return False, None
    return True, (*g, 1.0)


def synthesize(spec: SynthesisSpec) -> SynthesisResult:
    """Margin-maximizing synthesis plus quantization onto the device grid."""
    tt = spec.target
    if tt.n > 10:
        raise ValueError(f"synthesis limited to n <= 10, got {tt.n}")
    feasible, witness = check_separability(tt)
    if not feasible:
        return SynthesisResult(feasible=False, infeasibility_witness=witness)

    dev = spec.device
    ratio = dev.r_max / dev.r_min
    margin, g_norm = _margin_lp(tt, ratio=ratio)
    required = max(spec.min_margin_rel, _STRICT_EPS)
    if margin is None or margin < required:
        raise DeviceRangeError(
            f"achievable margin {0.0 if margin is None else margin:.4g} below "
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


def verify_config(
    config: GateConfig, target: TruthTable, tie_rule: TieRule | None = None
) -> VerifyReport:
    """Exact-rational re-evaluation of a config against a target table.

    Independent of the float evaluation path: conductance sums are compared
    with Fraction arithmetic, using the same relative tie band.
    """
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


def verify(result: SynthesisResult, target: TruthTable) -> VerifyReport:
    """Check a feasible synthesis result's continuous config against the target."""
    if not result.feasible:
        raise ValueError("cannot verify an infeasible synthesis result")
    config = GateConfig(
        result.memristances,
        (result.threshold_memristance,),
        tie_rule=result.quantized_config.tie_rule
        if result.quantized_config
        else TieRule.INPUT_WINS,
    )
    return verify_config(config, target)


_NAMED_TARGETS = ("AND", "OR", "NAND", "NOR", "XOR", "XNOR")


def named_truth_table(name: str, n: int) -> tuple[TruthTable, str]:
    """Resolve a named target; returns (table, tap) where tap 'CO' means the
    function is realized as the complement read from the CO output."""
    name = name.strip().upper()
    if name.startswith("MAJ:"):
        k = int(name.split(":", 1)[1])
        if not (1 <= k <= n):
            raise ValueError(f"MAJ rank must be in 1..{n}, got {k}")
        outs = tuple(
            1 if sum(bits_of_index(i, n)) >= k else 0 for i in range(2 ** n)
        )
        return TruthTable(n, outs), "CA"
    if name.startswith("DICT:"):
        i = int(name.split(":", 1)[1])
        if not (1 <= i <= n):
            raise ValueError(f"dictator index must be in 1..{n}, got {i}")
        outs = tuple(bits_of_index(k, n)[i - 1] for k in range(2 ** n))
        return TruthTable(n, outs), "CA"
    if name not in _NAMED_TARGETS:
        raise ValueError(f"unknown target name {name!r}")
    size = 2 ** n
    if name == "AND":
        return TruthTable(n, tuple(1 if k == size - 1 else 0 for k in range(size))), "CA"
    if name == "OR":
        return TruthTable(n, tuple(0 if k == 0 else 1 for k in range(size))), "CA"
    if name == "NAND":
        tt, _ = named_truth_table("AND", n)
        return tt, "CO"
    if name == "NOR":
        tt, _ = named_truth_table("OR", n)
        return tt, "CO"
    if name == "XOR":
        outs = tuple(sum(bits_of_index(k, n)) % 2 for k in range(size))
        return TruthTable(n, outs), "CA"
    # XNOR
    outs = tuple(1 - sum(bits_of_index(k, n)) % 2 for k in range(size))
    return TruthTable(n, outs), "CA"
