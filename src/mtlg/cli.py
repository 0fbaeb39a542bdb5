"""Command-line surface.

Exit codes: 0 ok, 2 usage/parse errors and unreadable or unwritable files,
3 model errors (infeasible target, out-of-range device request, netlist
diagnostics, unresolved evaluation).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import replace

import numpy as np

from . import device as dev_mod
from . import files, netlist as net_mod, synth as synth_mod, transient as tr_mod
from .gate import (
    GateConfig,
    TieRule,
    boundary_grid,
    classify,
    decision_hyperplane,
    evaluate,
    truth_table,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3


class ModelError(Exception):
    pass


def _load_config(args) -> files.ProjectConfig:
    if args.config:
        return files.load_project_config(args.config)
    return files.ProjectConfig()


def _tie_rule(args, default) -> TieRule:
    """--tie-rule if given, else the tie rule of `default` (a config or gate)."""
    return files.parse_tie_rule(args.tie_rule) if args.tie_rule else default.tie_rule


def _gate_from_args(args, cfg: files.ProjectConfig) -> GateConfig:
    if args.gate_file:
        gc = files.load_gate_config(args.gate_file, levels=cfg.levels)
        return replace(gc, tie_rule=_tie_rule(args, gc))
    if not args.weights:
        raise files.ParseError("need --weights or --gate-file")
    ms, ths = files.parse_weights(args.weights)
    return GateConfig(ms, ths, levels=cfg.levels, tie_rule=_tie_rule(args, cfg))


def _parse_bits(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text or any(c not in "01" for c in text):
        raise files.ParseError(f"input must be a 0/1 string, got {text!r}")
    return tuple(int(c) for c in text)


def _open_out(path):
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    gate = _gate_from_args(args, cfg)
    out = evaluate(gate, _parse_bits(args.input))
    print(f"CA={out.ca} CO={out.co} Iin={out.i_in:.5g} Ith={out.i_th:.5g}")
    return EXIT_OK


def _print_table(tt, prefix=""):
    rows = [f"{prefix}{k:0{tt.n}b} {o} {1 - o}" for k, o in enumerate(tt.outputs)]
    rows.append(f"{prefix}class={classify(tt).label()}")
    print("\n".join(rows))


def cmd_truth(args) -> int:
    cfg = _load_config(args)
    if args.netlist:
        net = files.parse_netlist_file(args.netlist, levels=cfg.levels,
                                       tie_rule=_tie_rule(args, cfg))
        tables = net_mod.network_truth_table(net)
        for (gname, tap), tt in zip(net.primary_outputs, tables):
            print(f"output {gname}.{tap}:")
            _print_table(tt, prefix="  ")
        return EXIT_OK
    gate = _gate_from_args(args, cfg)
    print("inputs ca co")
    _print_table(truth_table(gate))
    return EXIT_OK


def cmd_boundary(args) -> int:
    cfg = _load_config(args)
    gate = _gate_from_args(args, cfg)
    g, g_t = decision_hyperplane(gate)
    try:
        bm = boundary_grid(gate, args.res) if gate.n in (2, 3) else None
    except ValueError as e:  # --res out of range: a usage error, before any output
        raise files.ParseError(str(e)) from None
    with _open_out(args.out) as fh:
        coeffs = ",".join(f"{x:.9g}" for x in g)
        fh.write(f"# hyperplane: {coeffs},{g_t:.9g}\n")
        cls = classify(truth_table(gate))
        fh.write(
            f"# class: {cls.label()} (corner truth table, tie_rule="
            f"{gate.tie_rule.value})\n"
        )
        fh.write(
            "# note: points on the boundary sum(a_i*g_i) = g_T follow the tie "
            "rule; the class flips between AND-like and OR-like as the "
            "threshold conductance crosses the single-input conductances\n"
        )
        if bm is not None:
            fh.write(",".join(f"a{i + 1}" for i in range(gate.n)) + ",class\n")
            coords = np.meshgrid(*bm.axes, indexing="ij")
            tr_mod.write_rows(fh, [a.ravel() for a in coords] + [bm.grid.ravel()])
    return EXIT_OK


def cmd_wave(args) -> int:
    cfg = _load_config(args)
    gate = _gate_from_args(args, cfg)
    seq = [_parse_bits(v) for v in args.inputs.split(",")]
    trace = tr_mod.simulate(gate, seq, cfg.clock, cfg.transient)
    with _open_out(args.out) as fh:
        tr_mod.write_csv(trace, fh)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    tie = _tie_rule(args, cfg)
    tap = "CA"
    target = args.target.strip()
    try:
        if set(target) <= {"0", "1"} and len(target) >= 2:
            tt = synth_mod.TruthTable.from_bitstring(target, args.n)
        elif args.n is None:
            raise files.ParseError("named targets need --n")
        else:
            tt, tap = synth_mod.named_truth_table(target, args.n)
        spec = synth_mod.SynthesisSpec(
            target=tt, device=cfg.device, tie_rule=tie, min_margin_rel=args.margin
        )
    except ValueError as e:
        raise files.ParseError(str(e)) from None
    result = synth_mod.synthesize(spec)
    if not result.feasible:
        w = result.infeasibility_witness
        detail = ""
        if w is not None:
            detail = " witness: " + " vs ".join(
                "".join(str(b) for b in bits) for bits in w
            )
        raise ModelError(f"target is not realizable with positive weights;{detail}")
    print(f"feasible: yes (function read at {tap} output)")
    print("memristances_ohm: " + ",".join(f"{m:.6g}" for m in result.memristances))
    print(f"threshold_ohm: {result.threshold_memristance:.6g}")
    print("conductances_s: " + ",".join(f"{g:.6g}" for g in result.conductances)
          + f" g_threshold={result.g_threshold:.6g}")
    print(f"achieved_margin_rel: {result.achieved_margin:.6g}")
    q = result.quantized_config
    print("quantized_ohm: "
          + ",".join(f"{m:.6g}" for m in q.input_memristances)
          + f";{q.threshold_memristances[0]:.6g}"
          + (" (verified)" if result.quantized_ok
             else f" (FAILS at row {result.quantized_failure_row})"))
    if args.out:
        files.save_gate_config(q if args.quantized else GateConfig(
            result.memristances, (result.threshold_memristance,),
            levels=cfg.levels, tie_rule=tie), args.out)
        print(f"wrote gate config to {args.out}")
    return EXIT_OK


def cmd_program(args) -> int:
    cfg = _load_config(args)
    model = cfg.device
    target = files.parse_resistance(args.target)
    start = files.parse_resistance(args.start) if args.start else model.r_max
    rng = np.random.default_rng(cfg.seed) if model.noise_sigma_rel > 0 else None
    state = dev_mod.MemristorState(resistance=start, model=model)
    result = dev_mod.program_to_target(
        state, target, tol_rel=args.tol, max_pulses=args.max_pulses, rng=rng
    )
    level, level_r = dev_mod.quantize(result.state.resistance, model)
    print(f"pulses={result.pulses} final_resistance_ohm={result.state.resistance:.6g} "
          f"nearest_level={level} level_resistance_ohm={level_r:.6g}")
    return EXIT_OK


@functools.cache  # parse_args keeps no state, so one parser serves every call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mtlg",
        description="Memristive current-mode threshold logic gate toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, gate=True):
        sp.add_argument("--config", help="project config file (YAML)")
        sp.add_argument("--tie-rule", dest="tie_rule",
                        help="input_wins or threshold_wins")
        if gate:
            sp.add_argument("--weights",
                            help="M1,...,Mn;TH1,... with k/M suffixes")
            sp.add_argument("--gate-file", dest="gate_file",
                            help="gate config file written by synth")

    sp = sub.add_parser("eval", help="evaluate one input vector")
    common(sp)
    sp.add_argument("--input", required=True, help="bit string, e.g. 11")

    sp = sub.add_parser("truth", help="full truth table with classification")
    common(sp)
    sp.add_argument("--netlist", help="netlist file instead of a single gate")

    sp = sub.add_parser("boundary", help="decision-boundary grid over [0,1]^n")
    common(sp)
    sp.add_argument("--res", type=int, default=101, help="grid resolution per axis")
    sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("wave", help="two-phase transient waveform CSV")
    common(sp)
    sp.add_argument("--inputs", required=True,
                    help="comma-separated input vectors, one per clock cycle")
    sp.add_argument("--out", help="output CSV path (default stdout)")

    sp = sub.add_parser("synth", help="synthesize weights for a Boolean target")
    common(sp, gate=False)
    sp.add_argument("--target", required=True,
                    help="AND, OR, NAND, NOR, XOR, XNOR, MAJ:k, DICT:i, or a "
                         "truth-table bitstring (all-ones input first)")
    sp.add_argument("--n", type=int, help="input count for named targets")
    sp.add_argument("--margin", type=float, default=0.05,
                    help="required relative current margin")
    sp.add_argument("--out", help="write the synthesized gate config here")
    sp.add_argument("--quantized", action="store_true",
                    help="write the quantized config instead of the continuous one")

    sp = sub.add_parser("program", help="closed-loop device programming emulation")
    common(sp, gate=False)
    sp.add_argument("--target", required=True, help="target resistance, e.g. 33k")
    sp.add_argument("--start", help="starting resistance (default r_max)")
    sp.add_argument("--tol", type=float, default=0.01, help="relative tolerance")
    sp.add_argument("--max-pulses", dest="max_pulses", type=int, default=200)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        # by name at call time: the parser is built once, and a wrapper put on
        # a cmd_* attribute of this module afterwards must still be called
        return globals()[f"cmd_{args.command}"](args)
    except (files.ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ModelError, ValueError, net_mod.NetlistError, synth_mod.DeviceRangeError,
            dev_mod.ProgramTimeoutError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
