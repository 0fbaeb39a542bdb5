"""Spans around calls into mtlg, recorded from outside the package.

The traced run replaces public names on mtlg's modules with timing wrappers:
the names the benchmark calls, and the names one layer looks up in another
(``mtlg.netlist.evaluate`` is the gate layer's ``evaluate`` as the netlist
layer sees it). Each span records its name, start, end and parent; spans stay
in memory and are written out when the run ends. Names called once per table
row or per clock cycle are hot: their calls are summed into the calling span
rather than kept one by one, so a run's spans stay small.
"""

from __future__ import annotations

import json
import time

from mtlg import cli, device, files, gate, netlist, synth, transient

# (module, attribute, span name, hot, work done by one call, from its result)
WRAPPED = (
    (gate, "truth_table", "gate.truth_table", False, lambda r: len(r.outputs)),
    (gate, "classify", "gate.classify", False, None),
    (gate, "decision_hyperplane", "gate.decision_hyperplane", False, None),
    (files, "parse_netlist_file", "files.parse_netlist_file", False, None),
    (files, "parse_weights", "files.parse_weights", False, None),
    (netlist, "validate", "netlist.validate", True, None),
    (netlist, "network_truth_table", "netlist.network_truth_table", False,
     lambda r: len(r[0].outputs)),
    (netlist, "evaluate", "gate.evaluate", True, None),
    (cli, "main", "cli.main", False, None),
    (cli, "cmd_wave", "cli.wave", False, None),
    (cli, "cmd_boundary", "cli.boundary", False, None),
    (cli, "truth_table", "gate.truth_table", False, lambda r: len(r.outputs)),
    (cli, "classify", "gate.classify", False, None),
    (cli, "decision_hyperplane", "gate.decision_hyperplane", False, None),
    (cli, "boundary_grid", "gate.boundary_grid", False, None),
    (transient, "simulate", "transient.simulate", False, lambda r: len(r.time)),
    (transient, "write_csv", "transient.write_csv", False, None),
    (transient, "branch_currents", "gate.branch_currents", True, None),
    (transient, "evaluate", "gate.evaluate", True, None),
    (synth, "check_separability", "synth.check_separability", False, None),
    (synth, "synthesize", "synth.synthesize", False, None),
    (synth, "verify_config", "synth.verify_config", False, None),
    (synth, "quantize", "device.quantize", False, None),
    (device, "program_to_target", "device.program_to_target", False, lambda r: r.pulses),
)

class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "work", "calls", "tag")

    def __init__(self, name, parent, tag=None):
        self.name, self.parent, self.tag = name, parent, tag
        self.child_s, self.work, self.calls = 0.0, 0, {}
        self.start = self.end = time.perf_counter()

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved = []

    def open(self, name, tag=None) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None, tag)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.seconds

    def install(self) -> None:
        for module, attr, name, hot, work in WRAPPED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._hot(fn, name) if hot else self._wrap(fn, name, work))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, work):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    span.work = work(result)
                return result
            finally:
                self.close(span)
        return traced

    def _hot(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                if stack:  # every traced call runs inside an operation's span
                    parent = spans[stack[-1]]
                    parent.child_s += seconds
                    entry = parent.calls.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += seconds
        return traced

    def write(self, path, meta: dict) -> None:
        rows = [{"id": i, "name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "work": s.work, "tag": s.tag, "calls": s.calls}
                for i, s in enumerate(self.spans)]
        path.write_text(json.dumps({**meta, "spans": rows}))


class Profile:
    """Span totals over the operations of one workload."""

    def __init__(self, tracer: Tracer, workload: str):
        self._all = tracer.spans
        self.ops = []  # (op span, [descendant spans])
        current = None
        for span in tracer.spans:
            if span.parent is None:
                current = [] if span.tag and span.tag[0] == workload else None
                if current is not None:
                    self.ops.append((span, current))
            elif current is not None:
                current.append(span)

    def _spans(self, name):
        return [s for _, inner in self.ops for s in inner if s.name == name]

    def _hot(self, name):
        entries = [op.calls.get(name) for op, inner in self.ops]
        entries += [s.calls.get(name) for _, inner in self.ops for s in inner]
        return [e for e in entries if e]

    def calls(self, name) -> int:
        return len(self._spans(name)) + sum(c for c, _ in self._hot(name))

    def seconds(self, name) -> float:
        return (sum(s.seconds for s in self._spans(name))
                + sum(t for _, t in self._hot(name)))

    def work(self, name) -> int:
        return sum(s.work for s in self._spans(name))

    def per_call(self, name) -> float:
        return self.seconds(name) / self.calls(name)

    def self_per_call(self, name) -> float:
        spans = self._spans(name)
        return sum(s.self_s for s in spans) / len(spans)

    def per_op(self, value) -> float:
        return value / len(self.ops)

    def self_seconds(self, layer) -> float:
        """Time inside the layer's spans not covered by wrapped calls they made."""
        total = 0.0
        for op, inner in self.ops:
            for span in [op] + inner:
                if span is not op and span.name.split(".")[0] == layer:
                    total += span.self_s
                total += sum(t for name, (_, t) in span.calls.items()
                             if name.split(".")[0] == layer)
        return total

    def children_seconds(self, parent_name, child_names) -> float:
        """Seconds of spans named in child_names called directly by parent_name."""
        return sum(s.seconds for _, inner in self.ops for s in inner
                   if s.name in child_names and s.parent is not None
                   and self._all[s.parent].name == parent_name)
