"""Reference computations behind the benchmark's correctness checks.

Nothing here imports mtlg. Every expected output is derived from the
benchmark's own description of its inputs: memristances, integer weights,
grid indices and clock settings. Decisions are exact: a fast float path with a
proven error bound decides every row that is clear of the tie-band edge, and
rows within that bound are decided again with Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

TIE_EPS = Fraction(1, 10 ** 9)  # the model's relative tie band
_U = 2.0 ** -53  # unit roundoff of float64


def bit_matrix(n: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix of every input vector, x1 as the most significant bit."""
    k = np.arange(2 ** n, dtype=np.int64)
    return ((k[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.int64)


def _exact_decision(a_row, denom, r_in, r_th, input_wins) -> int:
    s = sum((int(a) / Fraction(r) for a, r in zip(a_row, r_in)), Fraction(0))
    t = denom * sum((1 / Fraction(r) for r in r_th), Fraction(0))
    if abs(s - t) <= TIE_EPS * max(s, t):
        return int(input_wins)
    return int(s > t)


def decisions(a: np.ndarray, denom: int, r_in, r_th, input_wins: bool) -> np.ndarray:
    """Exact gate decisions for activations a / denom (a: integer array, rows x n).

    The decision compares sum_i (a_i / denom) / R_i with sum_j 1 / R_th_j under
    the relative tie band; both sides are scaled by denom, which the band
    ignores. The float sums carry at most (n + m + 4) units of roundoff
    relative to the larger side, so a row whose distance from the band edge
    exceeds eight times that is decided correctly in float.
    """
    g = 1.0 / np.asarray(r_in, dtype=float)
    s = a @ g
    t = denom * sum(1.0 / r for r in r_th)
    scale = np.maximum(s, t)
    diff = s - t
    tie = np.abs(diff) <= 1e-9 * scale
    out = np.where(tie, int(input_wins), (diff > 0).astype(np.int64)).astype(np.int8)
    bound = 8 * (len(r_in) + len(r_th) + 4) * _U * scale
    for row in np.flatnonzero(np.abs(np.abs(diff) - 1e-9 * scale) <= bound):
        out[row] = _exact_decision(a[row], denom, r_in, r_th, input_wins)
    return out


def truth_table(r_in, r_th, input_wins: bool) -> np.ndarray:
    return decisions(bit_matrix(len(r_in)), 1, r_in, r_th, input_wins)


def _rank(outs: np.ndarray, pop: np.ndarray, n: int) -> int | None:
    """k such that outs == [popcount >= k] with 1 <= k <= n, or None."""
    step = []
    for c in range(n + 1):
        vals = outs[pop == c]
        if vals.min() != vals.max():
            return None
        step.append(int(vals[0]))
    k = step.index(1) if 1 in step else n + 1
    if 1 <= k <= n and all(step[k:]):
        return k
    return None


def classify(outs: np.ndarray, n: int) -> tuple[str, int | None, int | None]:
    """(kind, k, index) with the kind names and precedence of the gate classes."""
    if not outs.any():
        return "constant-0", None, None
    if outs.all():
        return "constant-1", None, None
    bits = bit_matrix(n)
    for i in range(n):
        if np.array_equal(outs, bits[:, i]):
            return "dictator", None, i
    pop = bits.sum(axis=1)
    k = _rank(outs, pop, n)
    if k is not None:
        if k == n and n >= 2:
            return "AND", k, None
        if k == 1 and n >= 2:
            return "OR", k, None
        return "MAJ", k, None
    ck = _rank(1 - outs, pop, n)
    if ck == n and n >= 2:
        return "NAND", ck, None
    if ck == 1 and n >= 2:
        return "NOR", ck, None
    return ("threshold" if is_monotone(outs, n) else "non-monotone"), None, None


def is_monotone(outs: np.ndarray, n: int) -> bool:
    k = np.arange(2 ** n)
    for i in range(n):
        low = k[(k & (1 << i)) == 0]
        if np.any(outs[low] > outs[low | (1 << i)]):
            return False
    return True


def weighted_threshold(weights, threshold: int) -> np.ndarray:
    """Table of [sum_i w_i x_i >= threshold] over all 2^n inputs."""
    return (bit_matrix(len(weights)) @ np.asarray(weights) >= threshold).astype(np.int8)


def asummability_certificate(outs: np.ndarray, n: int):
    """Rows (t1, t2, f1, f2) with f(t1) = f(t2) = 1, f(f1) = f(f2) = 0 and
    t1 + t2 == f1 + f2 as integer vectors, or None.

    Such a pair proves that no weighted threshold gate realizes the table
    (2-asummability). A vector sum of two 0/1 rows is read as a base-3 number,
    so equal sums are equal codes.
    """
    code = bit_matrix(n) @ (3 ** np.arange(n, dtype=np.int64))
    true_rows = np.flatnonzero(outs == 1)
    false_rows = np.flatnonzero(outs == 0)
    t_sums = code[true_rows][:, None] + code[true_rows][None, :]
    f_sums = code[false_rows][:, None] + code[false_rows][None, :]
    common = np.intersect1d(t_sums, f_sums)
    if common.size == 0:
        return None
    ti = np.argwhere(t_sums == common[0])[0]
    fi = np.argwhere(f_sums == common[0])[0]
    cert = (int(true_rows[ti[0]]), int(true_rows[ti[1]]),
            int(false_rows[fi[0]]), int(false_rows[fi[1]]))
    bits = bit_matrix(n)
    t1, t2, f1, f2 = cert
    if not np.array_equal(bits[t1] + bits[t2], bits[f1] + bits[f2]):
        return None
    return cert


def network_tables(desc: dict) -> list[np.ndarray]:
    """Exact topological evaluation of a generated netlist description.

    Gate j draws w/R0 per active input against sum(T)/R0 on its threshold bank,
    so its decision is an integer comparison of sum(w * x) with sum(T) under
    the relative tie band, evaluated for every primary input pattern at once.
    """
    x = bit_matrix(desc["inputs"])
    values = {}
    for g in desc["gates"]:
        s = np.zeros(len(x), dtype=np.int64)
        for w, (kind, ref) in zip(g["weights"], g["sources"]):
            col = x[:, ref] if kind == "in" else values[ref]
            s += w * col
        t = sum(g["thresholds"])
        tie = np.abs(s - t) * 10 ** 9 <= np.maximum(s, t)
        ca = np.where(tie, int(desc["input_wins"]), (s > t).astype(np.int64))
        values[(g["name"], "CA")] = ca
        values[(g["name"], "CO")] = 1 - ca
    return [values[o].astype(np.int8) for o in desc["outputs"]]


def waveform(r_in, r_th, input_wins, vectors, levels, clock, params) -> dict:
    """Expected node voltages of one wave run, per sample, in closed form.

    Cycle and phase come from integer sample counts; the decision of each cycle
    is exact; a cycle resolves when its current imbalance, through the sense
    resistance, reaches rail within the evaluation window.
    """
    v_dd, v_high, v_low = levels
    period, duty_eq, dt = clock
    tau, r_sense, v_floor = params
    per_cycle = round(period / dt)
    n_eq = round(duty_eq * period / dt)
    n = len(r_in)
    a = np.array(vectors, dtype=np.int64)
    dec = decisions(a, 1, r_in, r_th, input_wins)
    g = 1.0 / np.asarray(r_in, dtype=float)
    delta_i = v_dd * (a @ g - sum(1.0 / r for r in r_th))
    dv0 = np.abs(delta_i) * r_sense
    t_eval = period - duty_eq * period
    with np.errstate(divide="ignore"):
        t_settle = tau * np.log(v_dd / (2.0 * dv0))
    resolved = (dv0 >= v_floor) & (np.maximum(t_settle, 0.0) <= t_eval)

    k = np.arange(len(vectors) * per_cycle)
    cycle, j = k // per_cycle, k % per_cycle
    eq = j < n_eq
    v_mid = v_dd / 2.0
    te = (j - n_eq) * dt
    swing = v_mid * np.exp(-np.where(eq, 0.0, te) / tau)
    active = ~eq & resolved[cycle]
    win = dec[cycle] == 1
    ca = np.where(active, np.where(win, v_dd - swing, swing), v_mid)
    co = np.where(active, np.where(win, swing, v_dd - swing), v_mid)
    v_il = v_dd / 4.0
    cols = {
        "t_s": k * dt,
        "clk_v": np.where(eq, v_high, v_low),
    }
    for i in range(n):
        cols[f"in{i + 1}_v"] = np.where(a[cycle, i] == 1, v_low, v_high)
    cols.update({
        "ca_v": ca,
        "co_v": co,
        "cabar_v": np.where(ca < v_il, v_high, 0.0),
        "cobar_v": np.where(co < v_il, v_high, 0.0),
        "resolved": resolved[cycle].astype(float),
    })
    return cols


def boundary(r_in, r_th, input_wins, res: int) -> tuple[np.ndarray, np.ndarray]:
    """(grid points, classes) over [0,1]^n at res points per axis, a1 slowest."""
    n = len(r_in)
    idx = np.stack(np.meshgrid(*[np.arange(res)] * n, indexing="ij"), -1).reshape(-1, n)
    return idx / (res - 1), decisions(idx, res - 1, r_in, r_th, input_wins)


def agree(got: np.ndarray, want: np.ndarray, rel: float = 1e-8) -> bool:
    """Equal to 9 significant digits, the precision the CSV writers print."""
    return bool(np.all(np.abs(got - want) <= rel * np.abs(want)))
