"""Feedforward composition of threshold gates.

Gates are wired CA/CO-output to input slot; the isolation inverters restore
levels between stages, so composition is ideal Boolean evaluation in
topological order. Both output taps are first class: CO is always the
complement of CA.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass

import numpy as np

from .gate import GateConfig, TruthTable, evaluate, input_columns


@dataclass(frozen=True)
class Source:
    """Driver of a gate input slot: a primary input ('in', index) or a gate tap
    ('gate', name, 'CA'|'CO')."""

    kind: str  # "in" | "gate"
    name: str | None = None
    index: int | None = None
    tap: str | None = None

    @staticmethod
    def primary(index: int) -> "Source":
        return Source(kind="in", index=index)

    @staticmethod
    def gate_tap(name: str, tap: str) -> "Source":
        if tap not in ("CA", "CO"):
            raise ValueError(f"tap must be CA or CO, got {tap!r}")
        return Source(kind="gate", name=name, tap=tap)

    def describe(self) -> str:
        if self.kind == "in":
            return f"in{self.index + 1}"
        return f"{self.name}.{self.tap}"


@dataclass(frozen=True)
class Wire:
    source: Source
    gate: str
    slot: int  # 0-based input slot of the destination gate


@dataclass(frozen=True)
class Netlist:
    gates: dict[str, GateConfig]
    wires: tuple[Wire, ...]
    primary_inputs: int
    primary_outputs: tuple[tuple[str, str], ...]  # (gate name, tap)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


def validate(net: Netlist) -> list[Diagnostic]:
    """Structural checks; an empty list means the netlist is well formed."""
    return _diagnose(net)[0]


def _diagnose(net: Netlist) -> tuple[list[Diagnostic], tuple[str, ...]]:
    """validate's diagnostics, plus the gates in topological order."""
    diags, order = [], ()
    driven: dict[tuple[str, int], list[Wire]] = {}
    deps: dict[str, set[str]] = {name: set() for name in net.gates}

    for w in net.wires:
        if w.gate not in net.gates:
            diags.append(Diagnostic("UnknownGate", f"wire targets unknown gate {w.gate!r}"))
            continue
        n = net.gates[w.gate].n
        if not (0 <= w.slot < n):
            msg = f"gate {w.gate!r} has no input slot {w.slot + 1} (fan-in {n})"
            diags.append(Diagnostic("BadSlot", msg))
            continue
        src = w.source
        if src.kind == "in":
            if not (0 <= src.index < net.primary_inputs):
                msg = f"primary input in{src.index + 1} does not exist"
                diags.append(Diagnostic("UnknownInput", msg))
                continue
        else:
            if src.name not in net.gates:
                msg = f"wire driven by unknown gate {src.name!r}"
                diags.append(Diagnostic("UnknownGate", msg))
                continue
            deps[w.gate].add(src.name)
        driven.setdefault((w.gate, w.slot), []).append(w)

    for name, cfg in net.gates.items():
        for slot in range(cfg.n):
            ws = driven.get((name, slot), [])
            if not ws:
                msg = f"gate {name!r} input slot {slot + 1} is not driven"
                diags.append(Diagnostic("UnwiredInput", msg))
            elif len(ws) > 1:
                srcs = ", ".join(w.source.describe() for w in ws)
                msg = f"gate {name!r} input slot {slot + 1} driven by {srcs}"
                diags.append(Diagnostic("MultiplyDriven", msg))

    for gname, tap in net.primary_outputs:
        if gname not in net.gates:
            diags.append(Diagnostic("UnknownGate", f"output taps unknown gate {gname!r}"))
        if tap not in ("CA", "CO"):
            diags.append(Diagnostic("BadTap", f"output tap must be CA or CO, got {tap!r}"))

    try:
        order = tuple(graphlib.TopologicalSorter(deps).static_order())
    except graphlib.CycleError as e:
        cycle = " -> ".join(e.args[1])
        diags.append(Diagnostic("CycleError", f"gate dependency cycle: {cycle}"))
    return diags, order


class NetlistError(Exception):
    def __init__(self, diagnostics):
        super().__init__("; ".join(d.message for d in diagnostics))
        self.diagnostics = diagnostics


def _evaluate(net: Netlist, columns) -> list[np.ndarray]:
    """Output tap columns for primary input columns: every row is one input
    pattern, pushed through each gate in topological order at once. The
    netlist is validated once, whatever the number of patterns."""
    diags, order = _diagnose(net)
    if diags:
        raise NetlistError(diags)
    if len(columns) != net.primary_inputs:
        msg = f"{len(columns)} input bits for {net.primary_inputs} primaries"
        raise NetlistError([Diagnostic("DimensionMismatch", msg)])
    by_dest = {(w.gate, w.slot): w.source for w in net.wires}
    taps: dict[tuple[str, str], np.ndarray] = {}

    def column(src: Source) -> np.ndarray:
        return columns[src.index] if src.kind == "in" else taps[(src.name, src.tap)]

    for name in order:
        cfg = net.gates[name]
        out = evaluate(cfg, [column(by_dest[(name, s)]) for s in range(cfg.n)])
        taps[(name, "CA")], taps[(name, "CO")] = out.ca, out.co
    return [taps[(g, tap)] for g, tap in net.primary_outputs]


def evaluate_network(net: Netlist, inputs) -> tuple[int, ...]:
    """Bits at the primary output taps for one primary input vector."""
    columns = [np.array([b]) for b in inputs]
    if any(col[0] not in (0, 1) for col in columns):
        raise ValueError("input bits must be 0/1")
    return tuple(int(col[0]) for col in _evaluate(net, columns))


def network_truth_table(net: Netlist) -> list[TruthTable]:
    """One truth table per primary output, by exhaustive enumeration."""
    n = net.primary_inputs
    if n > 16:
        raise NetlistError([Diagnostic("FanIn", f"{n} primary inputs > 16")])
    return [TruthTable(n, col) for col in _evaluate(net, input_columns(n))]
