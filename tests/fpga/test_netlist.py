"""Netlist construction and timing-graph tests."""

import pytest

from repro.errors import ConfigError
from repro.fpga import FDRE, LDCE, LUT1, Netlist


def ring_oscillator(stages: int = 3) -> Netlist:
    nl = Netlist("ro")
    invs = [nl.add_cell(LUT1(f"inv{k}", init=0b01)) for k in range(stages)]
    for k, inv in enumerate(invs):
        nl.connect(inv, "O", invs[(k + 1) % stages], "I0")
    return nl


def latch_loop() -> Netlist:
    nl = Netlist("latchloop")
    inv = nl.add_cell(LUT1("inv", init=0b01))
    latch = nl.add_cell(LDCE("latch"))
    nl.connect(inv, "O", latch, "D")
    nl.connect(latch, "Q", inv, "I0")
    return nl


class TestConstruction:
    def test_duplicate_cell_name_rejected(self):
        nl = Netlist("n")
        nl.add_cell(LUT1("a"))
        with pytest.raises(ConfigError):
            nl.add_cell(LUT1("a"))

    def test_duplicate_net_name_rejected(self):
        nl = Netlist("n")
        nl.add_net("x")
        with pytest.raises(ConfigError):
            nl.add_net("x")

    def test_two_drivers_rejected(self):
        nl = Netlist("n")
        a, b = nl.add_cell(LUT1("a")), nl.add_cell(LUT1("b"))
        net = nl.add_net("w")
        nl.drive(net, a, "O")
        with pytest.raises(ConfigError):
            nl.drive(net, b, "O")

    def test_driving_from_input_port_rejected(self):
        nl = Netlist("n")
        a = nl.add_cell(LUT1("a"))
        net = nl.add_net("w")
        with pytest.raises(ConfigError):
            nl.drive(net, a, "I0")

    def test_double_sink_binding_rejected(self):
        nl = Netlist("n")
        a, b = nl.add_cell(LUT1("a")), nl.add_cell(LUT1("b"))
        nl.connect(a, "O", b, "I0")
        c = nl.add_cell(LUT1("c"))
        with pytest.raises(ConfigError):
            nl.connect(c, "O", b, "I0")

    def test_connect_reuses_driver_net(self):
        nl = Netlist("n")
        a = nl.add_cell(LUT1("a"))
        b, c = nl.add_cell(LUT1("b")), nl.add_cell(LUT1("c"))
        n1 = nl.connect(a, "O", b, "I0")
        n2 = nl.connect(a, "O", c, "I0")
        assert n1 is n2
        assert len(n1.sinks) == 2

    def test_lookup_missing_cell_or_net(self):
        nl = Netlist("n")
        with pytest.raises(ConfigError):
            nl.cell("ghost")
        with pytest.raises(ConfigError):
            nl.get_net("ghost")


class TestTimingGraph:
    def test_ro_has_combinational_cycle(self):
        cycles = ring_oscillator().combinational_cycles()
        assert cycles, "a ring oscillator must close a combinational loop"

    def test_latch_loop_acyclic_without_transparency(self):
        assert latch_loop().combinational_cycles() == []

    def test_latch_loop_cycle_with_transparency(self):
        cycles = latch_loop().combinational_cycles(transparent_latches=True)
        assert cycles

    def test_ff_breaks_the_loop(self):
        nl = Netlist("ffloop")
        inv = nl.add_cell(LUT1("inv", init=0b01))
        ff = nl.add_cell(FDRE("ff"))
        nl.connect(inv, "O", ff, "D")
        nl.connect(ff, "Q", inv, "I0")
        assert nl.combinational_cycles() == []
        assert nl.combinational_cycles(transparent_latches=True) == []

    def test_cycle_nodes_are_labelled(self):
        graph = ring_oscillator().timing_graph()
        labels = {graph.nodes[n]["label"] for n in graph.nodes}
        assert "inv0.O" in labels


class TestAccountingAndMerge:
    def test_resource_counts(self):
        nl = latch_loop()
        assert nl.lut_count() == 1
        assert nl.latch_count() == 1
        assert nl.ff_count() == 0
