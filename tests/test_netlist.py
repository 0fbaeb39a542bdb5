import random

import pytest

from mtlg.gate import GateConfig, TieRule, bits_of_index, truth_table
from mtlg.netlist import (
    Netlist,
    NetlistError,
    Source,
    Wire,
    evaluate_network,
    network_truth_table,
    validate,
)
from oracles import exact_ca

OR_HW = GateConfig((33.8e3, 18.3e3), (41.6e3,))
AND_HW = GateConfig((60.5e3, 60e3), (33e3,))


def single_gate_net(cfg, tap="CA"):
    return Netlist(
        gates={"g": cfg},
        wires=tuple(Wire(Source.primary(i), "g", i) for i in range(cfg.n)),
        primary_inputs=cfg.n,
        primary_outputs=(("g", tap),),
    )


def xor_net():
    """AND of (OR(x, y), CO tap of AND(x, y))."""
    return Netlist(
        gates={"or1": OR_HW, "and1": AND_HW, "out": AND_HW},
        wires=(
            Wire(Source.primary(0), "or1", 0),
            Wire(Source.primary(1), "or1", 1),
            Wire(Source.primary(0), "and1", 0),
            Wire(Source.primary(1), "and1", 1),
            Wire(Source.gate_tap("or1", "CA"), "out", 0),
            Wire(Source.gate_tap("and1", "CO"), "out", 1),
        ),
        primary_inputs=2,
        primary_outputs=(("out", "CA"),),
    )


class TestValidate:
    def test_single_gate_ok(self):
        assert validate(single_gate_net(AND_HW)) == []

    def test_cycle_detected(self):
        net = Netlist(
            gates={"a": AND_HW, "b": AND_HW},
            wires=(
                Wire(Source.gate_tap("b", "CA"), "a", 0),
                Wire(Source.primary(0), "a", 1),
                Wire(Source.gate_tap("a", "CA"), "b", 0),
                Wire(Source.primary(1), "b", 1),
            ),
            primary_inputs=2,
            primary_outputs=(("b", "CA"),),
        )
        diags = validate(net)
        assert any(d.code == "CycleError" for d in diags)
        msg = next(d.message for d in diags if d.code == "CycleError")
        assert "a" in msg and "b" in msg

    def test_unwired_slot_named(self):
        net = Netlist(
            gates={"g": AND_HW},
            wires=(Wire(Source.primary(0), "g", 0),),
            primary_inputs=2,
            primary_outputs=(("g", "CA"),),
        )
        diags = validate(net)
        assert [d.code for d in diags] == ["UnwiredInput"]
        assert "slot 2" in diags[0].message

    def test_multiply_driven_slot(self):
        net = Netlist(
            gates={"g": AND_HW},
            wires=(
                Wire(Source.primary(0), "g", 0),
                Wire(Source.primary(1), "g", 0),
                Wire(Source.primary(1), "g", 1),
            ),
            primary_inputs=2,
            primary_outputs=(("g", "CA"),),
        )
        assert any(d.code == "MultiplyDriven" for d in validate(net))

    def test_unknown_gate_reference(self):
        net = Netlist(
            gates={"g": AND_HW},
            wires=(
                Wire(Source.gate_tap("ghost", "CA"), "g", 0),
                Wire(Source.primary(0), "g", 1),
            ),
            primary_inputs=1,
            primary_outputs=(("g", "CA"),),
        )
        assert any(d.code == "UnknownGate" for d in validate(net))


class TestEvaluateNetwork:
    def test_xor_cascade(self):
        net = xor_net()
        assert validate(net) == []
        rows = [evaluate_network(net, bits)[0]
                for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        assert rows == [0, 1, 1, 0]

    def test_removing_complement_tap_gives_and(self):
        net = xor_net()
        wires = tuple(
            Wire(Source.gate_tap("and1", "CA"), "out", 1)
            if w.source.kind == "gate" and w.source.tap == "CO" else w
            for w in net.wires
        )
        straight = Netlist(net.gates, wires, 2, net.primary_outputs)
        assert network_truth_table(straight)[0].outputs == (0, 0, 0, 1)

    def test_all_zero_primaries_zero_first_layer(self):
        net = xor_net()
        assert evaluate_network(net, (0, 0)) == (0,)

    def test_invalid_net_raises(self):
        net = Netlist(gates={"g": AND_HW}, wires=(), primary_inputs=2,
                      primary_outputs=(("g", "CA"),))
        with pytest.raises(NetlistError):
            evaluate_network(net, (0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(NetlistError):
            evaluate_network(single_gate_net(AND_HW), (0, 0, 1))

    def test_non_binary_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate_network(single_gate_net(AND_HW), (0, 2))

    @pytest.mark.parametrize("bits", [(0.7, 1), ("1", "1")])
    def test_fractional_and_text_bits_rejected(self, bits):
        # the same 0/1 rule as evaluate: 0.7 is not rounded, "1" not parsed
        with pytest.raises(ValueError, match="0/1"):
            evaluate_network(single_gate_net(AND_HW), bits)


class TestNetworkTruthTable:
    def test_xor_table(self):
        assert network_truth_table(xor_net())[0].outputs == (0, 1, 1, 0)

    def test_single_gate_matches_gate_truth_table(self):
        net = single_gate_net(AND_HW)
        assert network_truth_table(net)[0].outputs == truth_table(AND_HW).outputs

    def test_co_tap_is_complement(self):
        ca = network_truth_table(single_gate_net(AND_HW, "CA"))[0]
        co = network_truth_table(single_gate_net(AND_HW, "CO"))[0]
        assert co.outputs == tuple(1 - b for b in ca.outputs)
        assert all(type(b) is int for b in ca.outputs + co.outputs)

    def test_empty_outputs(self):
        net = Netlist(
            gates={"g": AND_HW},
            wires=tuple(Wire(Source.primary(i), "g", i) for i in range(2)),
            primary_inputs=2,
            primary_outputs=(),
        )
        assert network_truth_table(net) == []


def random_net(seed):
    """Up to 6 primaries and 6 gates; gate j reads primaries and CA/CO taps of
    earlier gates. Half the gates have integer weights, so rows can tie exactly."""
    rng = random.Random(seed)
    n_in, rule = rng.randint(1, 6), rng.choice(list(TieRule))
    gates, wires = {}, []
    for j in range(rng.randint(1, 6)):
        fan_in = rng.randint(1, 4)
        if rng.random() < 0.5:
            w = [rng.randint(1, 3) for _ in range(fan_in)]
            t = sum(rng.sample(w, rng.randint(1, fan_in)))
            ms, ths = [100800 // x for x in w], [100800 // t]
        else:
            ms = [10e3 * 10 ** rng.random() for _ in range(fan_in)]
            ths = [1 / (rng.random() * sum(1 / m for m in ms))]
        gates[f"g{j}"] = GateConfig(ms, ths, tie_rule=rule)
        for slot in range(fan_in):
            if j and rng.random() < 0.5:
                src = Source.gate_tap(f"g{rng.randrange(j)}", rng.choice(("CA", "CO")))
            else:
                src = Source.primary(rng.randrange(n_in))
            wires.append(Wire(src, f"g{j}", slot))
    outputs = tuple((name, tap) for name in gates for tap in ("CA", "CO")
                    if rng.random() < 0.4) or (("g0", "CO"),)
    return Netlist(gates, tuple(wires), n_in, outputs)


def exact_outputs(net, bits):
    """Per-row composition of the exact oracle, gates in name order (g0, g1, ...)."""
    taps = {}
    for name, cfg in net.gates.items():
        ins = []
        for w in sorted((w for w in net.wires if w.gate == name), key=lambda w: w.slot):
            src = w.source
            ins.append(bits[src.index] if src.kind == "in" else taps[(src.name, src.tap)])
        ca = exact_ca(cfg.input_memristances, cfg.threshold_memristances, ins,
                      input_wins=cfg.tie_rule is TieRule.INPUT_WINS)
        taps[(name, "CA")], taps[(name, "CO")] = ca, 1 - ca
    return tuple(taps[o] for o in net.primary_outputs)


@pytest.mark.parametrize("seed", range(30))
def test_random_netlist_tables_match_exact_composition(seed):
    net = random_net(seed)
    n = net.primary_inputs
    rows = [exact_outputs(net, bits_of_index(k, n)) for k in range(2 ** n)]
    tables = network_truth_table(net)
    assert [tt.outputs for tt in tables] == [tuple(r[j] for r in rows)
                                             for j in range(len(net.primary_outputs))]
    assert all(evaluate_network(net, bits_of_index(k, n)) == rows[k] for k in range(2 ** n))
