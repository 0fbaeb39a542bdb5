#!/usr/bin/env python3
"""Host-time benchmark of mtlg, one workload per run.

    python3 perfbench/run.py --workload gate_tables --seed 1 --seconds 20 --trace 0

The run imports mtlg from ``src/`` of the checkout, generates the workload's
inputs from --seed, warms up, then repeats whole rounds of operations for at
least --seconds. Every output is checked afterwards against references that do
not use mtlg (``oracle.py``). The last line of standard output is one JSON
object: correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones of a traced run
(``tracing.py``), whose spans are written to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS/OpenMP thread: the benchmark host has two cores, and a pool sized to
# them would make timings depend on what else runs there.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("gate_tables", "network_tables", "csv_export", "design_flow")
SETUP_CHILDREN = 2  # setup_s is the median of this run's set-up and theirs
# the workload on which each layer's self time is reported
LAYER_WORKLOAD = {"gate": "gate_tables", "netlist": "network_tables",
                  "files": "network_tables", "transient": "csv_export",
                  "cli": "csv_export", "synth": "design_flow", "device": "design_flow"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name, seed, workdir):
    """Import mtlg, generate the inputs and run one warm-up operation per kind.

    Returns the workload and the seconds taken, counted from before the import.
    """
    start = time.perf_counter()
    import mtlg
    import workloads

    if not Path(mtlg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"mtlg imported from {mtlg.__file__}, not from {SRC}")
    wl = workloads.WORKLOADS[name](random.Random(seed), workdir)
    for case in wl.warmup:
        wl.run(case)
    return wl, time.perf_counter() - start


class Phase:
    """Whole rounds of one workload's operations, timed one by one.

    Outputs of the first round are kept for the checks; later rounds keep only
    a digest, which must equal the first round's.
    """

    def __init__(self, wl, name, seconds, tracer=None):
        self.wl, self.name = wl, name
        cases = wl.cases
        self.first = [None] * len(cases)
        digests = [None] * len(cases)
        self.changed = [0] * len(cases)
        self.times, self.rounds = [], 0
        start = time.perf_counter()
        while True:
            for i, case in enumerate(cases):
                span = tracer.open("op", (name, case["kind"])) if tracer else None
                t0 = time.perf_counter()
                try:
                    out = wl.run(case)
                except Exception as exc:  # a failed operation; reported in check()
                    out = exc
                self.times.append(time.perf_counter() - t0)
                if span is not None:
                    span.work = 0 if isinstance(out, Exception) else wl.work(out)
                    tracer.close(span)
                digest = _digest(wl, out)
                if self.rounds == 0:
                    self.first[i], digests[i] = out, digest
                elif digest != digests[i]:
                    self.changed[i] += 1
            self.rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        self.wall = time.perf_counter() - start

    @property
    def attempted(self) -> int:
        return len(self.times)

    def check(self) -> tuple[int, bool]:
        """(failed operations, whether every output that was produced is correct)."""
        failed, correct = 0, True
        for i, (case, out) in enumerate(zip(self.wl.cases, self.first)):
            if isinstance(out, Exception):
                errors = ["".join(traceback.format_exception_only(out)).strip()]
            else:
                try:
                    errors = self.wl.check(case, out)
                except Exception as exc:  # output too malformed to compare
                    errors = [f"check raised {exc!r}"]
                correct = correct and not errors and not self.changed[i]
            for e in errors:
                print(f"FAILED {self.name} {case['kind']}: {e}", file=sys.stderr)
            if self.changed[i]:
                print(f"FAILED {self.name} {case['kind']}: output changed between rounds",
                      file=sys.stderr)
            failed += self.rounds if errors else self.changed[i]
        return failed, correct


def _digest(wl, out) -> bytes:
    if isinstance(out, Exception):
        return repr(out).encode()
    return hashlib.sha1(wl.canon(out)).digest()


def child_set_up_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def untraced(args, workdir) -> dict:
    wl, first_setup = set_up(args.workload, args.seed, workdir)
    phase = Phase(wl, args.workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, correct = phase.check()
    setups = [first_setup] + [child_set_up_seconds(args) for _ in range(SETUP_CHILDREN)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (phase.attempted / phase.wall, "op/s"),
        "op_p50_ms": (statistics.median(phase.times) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{args.workload} seed {args.seed}: {phase.attempted} operations in "
          f"{phase.rounds} rounds of {len(wl.cases)}, {phase.wall:.2f} s; set-ups "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    return _result(correct, phase.attempted, failed, metrics)


def traced(args, workdir) -> dict:
    """The named workload for --seconds, then one round of each other workload,
    all traced, so that every per-layer metric is measured on its own workload."""
    import tracing

    wls = {args.workload: set_up(args.workload, args.seed, workdir)[0]}
    for name in NAMES:
        if name not in wls:
            wls[name] = set_up(name, args.seed, workdir)[0]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        phases = {name: Phase(wl, name, args.seconds if name == args.workload else 0.0,
                              tracer)
                  for name, wl in wls.items()}
    finally:
        tracer.uninstall()
    failed, correct = 0, True
    for phase in phases.values():
        f, c = phase.check()
        failed, correct = failed + f, correct and c
    metrics = layer_metrics(tracer, phases, wls["design_flow"].quality)
    main = phases[args.workload]
    metrics["trace.ops_per_s"] = (main.attempted / main.wall, "op/s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed})
    return _result(correct, sum(p.attempted for p in phases.values()), failed, metrics)


def layer_metrics(tracer, phases, quality) -> dict:
    import tracing

    profiles = {name: tracing.Profile(tracer, name) for name in NAMES}
    g, nt, c, d = profiles.values()
    round_bytes = sum(op.work for op, _ in c.ops[:len(phases["csv_export"].wl.cases)])
    wave_bytes = sum(op.work for op, _ in c.ops if ":wave" in op.tag[1])
    realizable = quality["realizable"]
    lp_self = (d.seconds("synth.synthesize") - d.children_seconds(
        "synth.synthesize", {"synth.verify_config", "device.quantize"}))
    metrics = {
        "gate.truth_table_s": (g.per_call("gate.truth_table"), "s"),
        "gate.classify_s": (g.per_call("gate.classify"), "s"),
        "gate.rows_per_s": (g.work("gate.truth_table") / g.seconds("gate.truth_table"), "1/s"),
        "gate.evaluate_calls": (nt.per_op(nt.calls("gate.evaluate")), "count"),
        "gate.boundary_grid_s": (c.per_call("gate.boundary_grid"), "s"),
        "netlist.validate_calls": (nt.per_op(nt.calls("netlist.validate")), "count"),
        "netlist.validate_s": (nt.per_op(nt.seconds("netlist.validate")), "s"),
        "netlist.network_truth_table_s": (nt.per_call("netlist.network_truth_table"), "s"),
        "netlist.patterns_per_s": (nt.work("netlist.network_truth_table")
                                   / nt.seconds("netlist.network_truth_table"), "1/s"),
        "files.parse_netlist_file_s": (nt.per_call("files.parse_netlist_file"), "s"),
        "transient.simulate_s": (c.per_call("transient.simulate"), "s"),
        "transient.samples_per_s": (c.work("transient.simulate")
                                    / c.seconds("transient.simulate"), "1/s"),
        "transient.write_csv_s": (c.per_call("transient.write_csv"), "s"),
        "transient.csv_bytes_per_s": (wave_bytes / c.seconds("transient.write_csv"), "B/s"),
        "cli.boundary_self_s": (c.self_per_call("cli.boundary"), "s"),
        "cli.wave_self_s": (c.self_per_call("cli.wave"), "s"),
        "cli.bytes_out": (round_bytes, "B"),
        "synth.check_separability_s": (d.per_call("synth.check_separability"), "s"),
        "synth.synthesize_s": (d.per_call("synth.synthesize"), "s"),
        "synth.verify_config_s": (d.per_call("synth.verify_config"), "s"),
        "synth.lp_self_s": (lp_self / d.calls("synth.synthesize"), "s"),
        "synth.quantized_ok_share": (quality["quantized_ok"] / realizable, "share"),
        "device.program_to_target_s": (d.per_call("device.program_to_target"), "s"),
        "device.pulses_per_cell": (d.work("device.program_to_target")
                                   / d.calls("device.program_to_target"), "count"),
        "device.programmed_gate_ok_share": (quality["programmed_ok"] / realizable, "share"),
    }
    for layer, name in LAYER_WORKLOAD.items():
        p = profiles[name]
        metrics[f"{layer}.self_s"] = (p.per_op(p.self_seconds(layer)), "s")
    return metrics


def _result(correct, attempted, failed, metrics) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mtlg" / "__init__.py").is_file():
        print(f"error: mtlg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            print(set_up(args.workload, args.seed, workdir)[1])
            return 0
        result = (traced if args.trace else untraced)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
