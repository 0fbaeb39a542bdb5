"""The benchmark's four workloads: seeded inputs, one operation, its checks.

Each workload is a round of cases with fixed sizes; the seed draws the
weights, wiring and bit patterns inside those sizes. Every run repeats whole
rounds, so the mix of operation sizes, and with it the median operation time,
is the same for every seed and run length.

An operation calls mtlg only through module attributes (``gate.truth_table``),
so the traced run can wrap them. ``check`` compares an operation's output with
the reference computations in ``oracle``, which do not use mtlg.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import numpy as np

from mtlg import cli, device, files, gate, netlist, synth

import oracle

# 100800 ohm is divisible by 1..10, so R0 / w is a whole number of ohms for
# every integer weight and threshold share used below, and a gate drawing
# w / R0 per input ties exactly when sum(w * x) equals its threshold.
R0 = 100800
MAX_SHARE = 9  # largest threshold weight on one threshold memristor

# Defaults of the mtlg command line (no --config): levels (v_dd, v_high,
# v_low), clock (period, duty_eq, sample_dt), transient (tau, r_sense, floor).
LEVELS = (0.65, 0.9, 0.0)
CLOCK = (2e-3, 0.5, 1e-5)
TRANSIENT = (100e-9, 10e3, 1e-6)

RULES = (gate.TieRule.INPUT_WINS, gate.TieRule.THRESHOLD_WINS)

# Threshold as a share of the summed input weight. classify's dictator scan
# stops at the first row that is on, and that row comes earlier the lower the
# threshold; a fixed share keeps the scan's length alike across seeds.
THRESHOLD_SHARE = 1 / 3


def _shares(total: int) -> list[int]:
    """Split a threshold weight over as few memristors as MAX_SHARE allows."""
    parts = -(-total // MAX_SHARE)
    return [total // parts + (i < total % parts) for i in range(parts)]


def _integer_gate(rng: random.Random, n: int, tie_at_subset: bool = False):
    """Integer weights 1..3 with a threshold that some input rows tie exactly."""
    w = [rng.randint(1, 3) for _ in range(n)]
    if tie_at_subset:
        t = sum(rng.sample(w, rng.randint(1, n)))
    else:
        t = max(1, round(sum(w) * THRESHOLD_SHARE))
    return w, _shares(t)


def _ohms(weights) -> list[int]:
    return [R0 // x for x in weights]


class GateTables:
    """truth_table + classify + decision_hyperplane on one gate of fan-in 12-16."""

    # (fan-in, integer weights with exact ties?, tie rule or None for seeded).
    # Three gates of fan-in 14 make the median operation one of theirs, with
    # three samples a round.
    ROUND = ((12, True, RULES[0]), (13, False, RULES[1]), (14, True, RULES[0]),
             (14, False, RULES[1]), (14, True, RULES[1]), (15, False, RULES[0]),
             (16, True, None))

    def __init__(self, rng: random.Random, workdir: Path):
        self.cases = [self._case(rng, i, *spec) for i, spec in enumerate(self.ROUND)]
        self.warmup = [self._case(rng, len(self.ROUND), 6, True, RULES[0])]

    @staticmethod
    def _case(rng, index, n, integer, rule):
        if integer:
            w, t = _integer_gate(rng, n)
            r_in, r_th = _ohms(w), _ohms(t)
        else:
            r_in = [10e3 * 10 ** rng.random() for _ in range(n)]
            g_t = THRESHOLD_SHARE * sum(1.0 / r for r in r_in)
            parts = rng.randint(1, 2)
            r_th = [parts / g_t] * parts
        rule = rule or rng.choice(RULES)
        return {"kind": f"{index}:n{n}", "cfg": gate.GateConfig(r_in, r_th, tie_rule=rule)}

    def run(self, case):
        cfg = case["cfg"]
        tt = gate.truth_table(cfg)
        return tt, gate.classify(tt), gate.decision_hyperplane(cfg)

    @staticmethod
    def canon(out) -> bytes:
        tt, cls, hp = out
        return bytes(tt.outputs) + repr((cls, hp)).encode()

    def check(self, case, out) -> list[str]:
        cfg = case["cfg"]
        tt, cls, (g, g_t) = out
        n = cfg.n
        want = oracle.truth_table(cfg.input_memristances, cfg.threshold_memristances,
                                  cfg.tie_rule is gate.TieRule.INPUT_WINS)
        errors = []
        if tt.n != n or not np.array_equal(np.array(tt.outputs, dtype=np.int8), want):
            errors.append("truth table differs from the exact evaluation")
        want_class = oracle.classify(want, n)
        if (cls.kind.value, cls.k, cls.index) != want_class:
            errors.append(f"class {cls.label()} differs from {want_class}")
        if not (oracle.agree(np.array(g), 1.0 / np.array(cfg.input_memristances), 1e-12)
                and oracle.agree(np.array([g_t]),
                                 np.array([sum(1.0 / r for r in cfg.threshold_memristances)]),
                                 1e-12)):
            errors.append("hyperplane differs from the conductances")
        return errors

    @staticmethod
    def work(out) -> int:
        return len(out[0].outputs)


class NetworkTables:
    """parse_netlist_file + validate + network_truth_table on a generated netlist."""

    # (inputs, gates); three netlists of 10 x 12 make the median operation one
    # of theirs, with three samples a round
    ROUND = ((10, 8), (10, 12), (10, 12), (10, 12), (10, 24), (11, 16), (12, 8))

    def __init__(self, rng: random.Random, workdir: Path):
        self.cases = [self._case(rng, workdir, i, *s) for i, s in enumerate(self.ROUND)]
        self.warmup = [self._case(rng, workdir, len(self.ROUND), 3, 3)]

    @staticmethod
    def _case(rng, workdir, index, n_in, n_gates):
        # Fan-ins 2, 3, 4 in equal shares, a chain through every gate and a
        # tree join at every odd one: wire and dependency counts, which set
        # validate's cost, are fixed per size; the seed picks the rest.
        fan_ins = [2 + j % 3 for j in range(n_gates)]
        rng.shuffle(fan_ins)
        gates = []
        for j, fan_in in enumerate(fan_ins):
            sources = []
            if j > 0:
                sources.append(("gate", (f"g{j - 1}", rng.choice(("CA", "CO")))))
            if j > 1 and j % 2:
                sources.append(("gate", (f"g{rng.randrange(j - 1)}", rng.choice(("CA", "CO")))))
            while len(sources) < fan_in:
                sources.append(("in", rng.randrange(n_in)))
            rng.shuffle(sources)
            w, t = _integer_gate(rng, fan_in)
            gates.append({"name": f"g{j}", "weights": w, "thresholds": t, "sources": sources})
        taps = {(f"g{n_gates - 1}", "CA")}
        while len(taps) < 2:
            taps.add((f"g{rng.randrange(n_gates)}", rng.choice(("CA", "CO"))))
        desc = {"inputs": n_in, "gates": gates, "outputs": sorted(taps),
                "input_wins": rng.random() < 0.5}
        path = workdir / f"net{index}.yaml"
        path.write_text(_netlist_yaml(desc))
        return {"kind": f"{index}:i{n_in}g{n_gates}", "path": str(path), "desc": desc}

    def run(self, case):
        net = files.parse_netlist_file(case["path"])
        diags = netlist.validate(net)
        return diags, netlist.network_truth_table(net)

    @staticmethod
    def canon(out) -> bytes:
        diags, tables = out
        return repr(diags).encode() + b"".join(bytes(t.outputs) for t in tables)

    def check(self, case, out) -> list[str]:
        diags, tables = out
        desc = case["desc"]
        want = oracle.network_tables(desc)
        errors = [f"validate reported {d.code}" for d in diags]
        if len(tables) != len(want):
            errors.append(f"{len(tables)} tables for {len(want)} outputs")
        for (g, tap), tt, w in zip(desc["outputs"], tables, want):
            if tt.n != desc["inputs"] or not np.array_equal(
                    np.array(tt.outputs, dtype=np.int8), w):
                errors.append(f"table of {g}.{tap} differs from the exact evaluation")
        return errors

    @staticmethod
    def work(out) -> int:
        return len(out[1][0].outputs)


def _netlist_yaml(desc) -> str:
    lines = [f"inputs: {desc['inputs']}",
             f"tie_rule: {'input_wins' if desc['input_wins'] else 'threshold_wins'}",
             "gates:"]
    for g in desc["gates"]:
        lines.append(f"  - name: {g['name']}")
        lines.append(f"    inputs: [{', '.join(map(str, _ohms(g['weights'])))}]")
        lines.append(f"    threshold: [{', '.join(map(str, _ohms(g['thresholds'])))}]")
    lines.append("wires:")
    for g in desc["gates"]:
        for slot, (kind, ref) in enumerate(g["sources"], start=1):
            src = f"in{ref + 1}" if kind == "in" else f"{ref[0]}.{ref[1]}"
            lines.append(f"  - {{from: {src}, to: {g['name']}.{slot}}}")
    lines.append(f"outputs: [{', '.join(f'{g}.{tap}' for g, tap in desc['outputs'])}]")
    return "\n".join(lines) + "\n"


class CsvExport:
    """`mtlg wave` or `mtlg boundary` through cli.main, CSV captured in memory."""

    # ("wave", fan-in, cycles) or ("boundary", fan-in, resolution); three
    # waves of 3 inputs and 100 cycles make the median operation one of
    # theirs, with three samples a round
    ROUND = (("wave", 2, 50), ("boundary", 2, 201), ("wave", 3, 100), ("wave", 3, 100),
             ("wave", 3, 100), ("boundary", 3, 51), ("wave", 4, 200))

    def __init__(self, rng: random.Random, workdir: Path):
        self.cases = [self._case(rng, i, *spec) for i, spec in enumerate(self.ROUND)]
        self.warmup = [self._case(rng, len(self.ROUND) + i, *spec) for i, spec in
                       enumerate((("wave", 2, 4), ("boundary", 2, 5), ("boundary", 3, 5)))]

    @staticmethod
    def _case(rng, index, command, n, size):
        w, t = _integer_gate(rng, n, tie_at_subset=True)
        r_in, r_th = _ohms(w), _ohms(t)
        rule = rng.choice(RULES)
        argv = [command, "--weights", f"{','.join(map(str, r_in))};{','.join(map(str, r_th))}",
                "--tie-rule", rule.value]
        case = {"kind": f"{index}:{command}{n}", "r_in": r_in, "r_th": r_th,
                "input_wins": rule is RULES[0]}
        if command == "wave":
            case["vectors"] = [[rng.randint(0, 1) for _ in range(n)] for _ in range(size)]
            argv += ["--inputs", ",".join("".join(map(str, v)) for v in case["vectors"])]
        else:
            case["res"] = size
            argv += ["--res", str(size)]
        case["argv"] = argv
        return case

    def run(self, case):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(case["argv"])
        return code, buf.getvalue()

    @staticmethod
    def canon(out) -> bytes:
        code, text = out
        return f"{code}\n{text}".encode()

    def check(self, case, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        if case["argv"][0] == "wave":
            return _check_wave(case, text)
        return _check_boundary(case, text)

    @staticmethod
    def work(out) -> int:
        return len(out[1])


def _parse_rows(lines, width):
    values = np.array(",".join(lines).split(","), dtype=float)
    if values.size != width * len(lines):
        return None
    return values.reshape(len(lines), width)


def _check_wave(case, text) -> list[str]:
    want = oracle.waveform(case["r_in"], case["r_th"], case["input_wins"],
                           case["vectors"], LEVELS, CLOCK, TRANSIENT)
    lines = text.splitlines()
    if lines[0].split(",") != list(want):
        return [f"header {lines[0]!r}"]
    if len(lines) - 1 != len(want["t_s"]):
        return [f"{len(lines) - 1} rows for {len(want['t_s'])} samples"]
    rows = _parse_rows(lines[1:], len(want))
    if rows is None:
        return ["ragged rows"]
    return [f"column {name} differs from the closed form"
            for i, (name, col) in enumerate(want.items())
            if not oracle.agree(rows[:, i], col)]


_LABELS = {"AND": "AND (MAJ-{k})", "OR": "OR (MAJ-1)", "MAJ": "MAJ-{k}",
           "dictator": "dictator(x{i})"}


def _check_boundary(case, text) -> list[str]:
    r_in, r_th, res = case["r_in"], case["r_th"], case["res"]
    n = len(r_in)
    lines = text.splitlines()
    errors = []
    plane = np.array(lines[0].removeprefix("# hyperplane: ").split(","), dtype=float)
    want_plane = np.array([1.0 / r for r in r_in] + [sum(1.0 / r for r in r_th)])
    if plane.shape != want_plane.shape or not oracle.agree(plane, want_plane):
        errors.append("hyperplane comment differs from the conductances")
    kind, k, i = oracle.classify(oracle.truth_table(r_in, r_th, case["input_wins"]), n)
    label = _LABELS.get(kind, kind).format(k=k, i=None if i is None else i + 1)
    rule = "input_wins" if case["input_wins"] else "threshold_wins"
    if lines[1] != f"# class: {label} (corner truth table, tie_rule={rule})":
        errors.append(f"class comment {lines[1]!r}, expected {label}")
    if not lines[2].startswith("# note: "):
        errors.append("note comment missing")
    if lines[3] != ",".join(f"a{d + 1}" for d in range(n)) + ",class":
        errors.append(f"header {lines[3]!r}")
    if len(lines) - 4 != res ** n:
        return errors + [f"{len(lines) - 4} grid rows for {res ** n} points"]
    rows = _parse_rows(lines[4:], n + 1)
    if rows is None:
        return errors + ["ragged rows"]
    points, classes = oracle.boundary(r_in, r_th, case["input_wins"], res)
    if not oracle.agree(rows[:, :n], points):
        errors.append("grid points differ from the uniform grid")
    if not np.array_equal(rows[:, n], classes):
        errors.append("grid classes differ from the exact hyperplane")
    return errors


class DesignFlow:
    """check_separability + synthesize, then program_to_target on every
    quantized memristance of a realizable target."""

    DEVICE = device.DeviceModel(noise_sigma_rel=0.005)
    # realizable: MAJ-k, AND/OR, DICT, weighted thresholds; unrealizable:
    # parity, non-monotone, and monotone but not separable
    ROUND = (("maj", 10), ("and", 10), ("or", 10), ("dict", 6), ("threshold", 10),
             ("threshold", 9), ("threshold", 5), ("parity", 10), ("non_monotone", 8),
             ("non_separable", 10), ("non_separable", 8))

    def __init__(self, rng: random.Random, workdir: Path):
        self.seed = rng.getrandbits(32)
        self.cases = [self._case(rng, i, *s) for i, s in enumerate(self.ROUND)]
        self.warmup = [self._case(rng, len(self.ROUND) + i, kind, n) for i, (kind, n)
                       in enumerate((("maj", 3), ("parity", 3), ("non_separable", 4)))]
        self.quality = {"realizable": 0, "quantized_ok": 0, "programmed_ok": 0}

    @staticmethod
    def _case(rng, index, kind, n):
        """Targets are weighted thresholds [sum w x >= T] where realizable.

        With weights 1..3 and T <= 10, conductances w / (T - 1/2) against a
        threshold of 1 separate every row by a relative margin of at least
        1 / (2T - 1) >= 1/19 > 5%, with a conductance spread of at most 9.5,
        inside the device's 10:1 ratio; a dictator of 6 inputs keeps a third.
        """
        bits = oracle.bit_matrix(n)
        if kind == "maj":
            outs = oracle.weighted_threshold([1] * n, rng.randint(2, n - 1))
        elif kind in ("and", "or"):
            outs = oracle.weighted_threshold([1] * n, n if kind == "and" else 1)
        elif kind == "dict":
            outs = bits[:, rng.randrange(n)].astype(np.int8)
        elif kind == "threshold":
            w = [rng.randint(1, 3) for _ in range(n)]
            outs = oracle.weighted_threshold(w, rng.randint(2, min(9, sum(w) - 1)))
        elif kind == "parity":
            outs = (bits.sum(axis=1) % 2).astype(np.int8)
        elif kind == "non_monotone":
            outs = np.zeros(2 ** n, dtype=np.int8)
            while oracle.is_monotone(outs, n):
                w = [rng.randint(1, 3) for _ in range(n)]
                flip = rng.randrange(n)
                flipped = bits.copy()
                flipped[:, flip] ^= 1
                outs = (flipped @ np.array(w) >= rng.randint(2, sum(w) - 1)).astype(np.int8)
        else:  # x_a x_b or x_c x_d over n inputs: monotone, 2-asummable
            a, b, c, d = rng.sample(range(n), 4)
            outs = ((bits[:, a] & bits[:, b]) | (bits[:, c] & bits[:, d])).astype(np.int8)
        realizable = kind in ("maj", "and", "or", "dict", "threshold")
        tt = gate.TruthTable(n, tuple(int(b) for b in outs))
        return {"kind": f"{index}:{kind}{n}", "index": index, "tt": tt, "outs": outs,
                "realizable": realizable}

    def run(self, case):
        tt = case["tt"]
        sep = synth.check_separability(tt)
        result = synth.synthesize(synth.SynthesisSpec(tt, device=self.DEVICE))
        programmed = []
        if result.feasible:
            noise = np.random.default_rng([self.seed, case["index"]])
            q = result.quantized_config
            for target in q.input_memristances + q.threshold_memristances:
                start = device.MemristorState(self.DEVICE.r_max, self.DEVICE)
                programmed.append(device.program_to_target(start, target, rng=noise))
        return sep, result, programmed

    @staticmethod
    def canon(out) -> bytes:
        sep, result, programmed = out
        return repr((sep, result, [(p.state.resistance, p.pulses) for p in programmed])).encode()

    def check(self, case, out) -> list[str]:
        sep, result, programmed = out
        outs, n = case["outs"], case["tt"].n
        if sep[0] != case["realizable"] or result.feasible != case["realizable"]:
            return [f"feasible={result.feasible}, separable={sep[0]} for a "
                    f"{'realizable' if case['realizable'] else 'unrealizable'} target"]
        if not case["realizable"]:
            return _check_witness(outs, n, sep[1], result.infeasibility_witness)
        errors = []
        g = np.array(sep[1][:-1])
        if sep[1][-1] != 1.0 or not all(
                np.array_equal(oracle.truth_table(1.0 / g, [1.0], wins), outs)
                for wins in (True, False)):
            errors.append("separability certificate does not separate the target")
        continuous = oracle.truth_table(result.memristances, [result.threshold_memristance],
                                        True)
        if not np.array_equal(continuous, outs):
            errors.append("continuous configuration fails exact verification")
        q = result.quantized_config
        quantized = oracle.truth_table(q.input_memristances, q.threshold_memristances,
                                       q.tie_rule is gate.TieRule.INPUT_WINS)
        bad = np.flatnonzero(quantized != outs)
        first_bad = int(bad[0]) if bad.size else None
        if (result.quantized_ok, result.quantized_failure_row) != (bad.size == 0, first_bad):
            errors.append(f"quantized_ok={result.quantized_ok} row="
                          f"{result.quantized_failure_row}, exact check gives row {first_bad}")
        targets = q.input_memristances + q.threshold_memristances
        if len(programmed) != len(targets):
            errors.append(f"{len(programmed)} cells programmed for {len(targets)}")
        reached = [p.state.resistance for p in programmed]
        if any(abs(r - t) > 0.01 * t for r, t in zip(reached, targets)):
            errors.append("a programmed resistance is outside tol_rel of its target")
        wins = q.tie_rule is gate.TieRule.INPUT_WINS
        on_device = oracle.truth_table(reached[:n], reached[n:], wins)
        self.quality["realizable"] += 1
        self.quality["quantized_ok"] += bad.size == 0
        self.quality["programmed_ok"] += bool(np.array_equal(on_device, outs))
        return errors

    @staticmethod
    def work(out) -> int:
        return sum(p.pulses for p in out[2])


def _check_witness(outs, n, sep_witness, witness) -> list[str]:
    if witness != sep_witness:
        return ["synthesize and check_separability give different witnesses"]
    if witness is None:
        if not oracle.is_monotone(outs, n):
            return ["no witness for a non-monotone target"]
        if oracle.asummability_certificate(outs, n) is None:
            return ["no asummability certificate for a target reported unseparable"]
        return []
    index = [int("".join(map(str, bits)), 2) for bits in witness]
    if len(witness) == 1:
        ok = index[0] == 0 and outs[0] == 1
    else:
        x, y = index
        ok = len(witness) == 2 and x & y == x and outs[x] == 1 and outs[y] == 0
    return [] if ok else [f"witness {witness} does not show infeasibility"]


WORKLOADS = {"gate_tables": GateTables, "network_tables": NetworkTables,
             "csv_export": CsvExport, "design_flow": DesignFlow}
