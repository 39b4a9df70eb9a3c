"""Structural netlist: cells connected by nets, with graph views for DRC.

A :class:`Netlist` owns cells and nets.  Each net has exactly one driver
(cell output) and any number of sinks (cell inputs).  The netlist can
export a *combinational timing graph* — the directed graph whose edges are
(a) net connections driver->sink and (b) combinational input->output paths
*through* cells — which is exactly the graph on which vendor tools search
for combinational loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

import networkx as nx

from ..errors import ConfigError
from .primitives import Cell, LDCE, PortDirection

__all__ = ["Net", "Netlist", "PortRef"]


@dataclass(frozen=True)
class PortRef:
    """A (cell, port) endpoint."""

    cell: Cell
    port: str

    def __str__(self) -> str:
        return f"{self.cell.name}.{self.port}"


class Net:
    """A named wire with one driver and many sinks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.driver: Optional[PortRef] = None
        self.sinks: List[PortRef] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        driver = str(self.driver) if self.driver else "<undriven>"
        return f"<Net {self.name} {driver} -> {len(self.sinks)} sinks>"


class Netlist:
    """A flat structural netlist.

    Example
    -------
    >>> from repro.fpga import LUT1, Netlist
    >>> n = Netlist("demo")
    >>> a = n.add_cell(LUT1("inv_a"))
    >>> b = n.add_cell(LUT1("inv_b"))
    >>> n.connect(a, "O", b, "I0")
    >>> n.connect(b, "O", a, "I0")   # a 2-inverter ring oscillator
    >>> len(list(n.cells()))
    2
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigError("netlist name must be non-empty")
        self.name = name
        self._cells: Dict[str, Cell] = {}
        self._nets: Dict[str, Net] = {}
        # (cell uid, port) -> net name
        self._input_binding: Dict[Tuple[int, str], str] = {}

    # -- construction ------------------------------------------------------

    def add_cell(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ConfigError(f"duplicate cell name '{cell.name}' in '{self.name}'")
        self._cells[cell.name] = cell
        return cell

    def add_net(self, name: str) -> Net:
        if name in self._nets:
            raise ConfigError(f"duplicate net name '{name}' in '{self.name}'")
        net = Net(name)
        self._nets[name] = net
        return net

    def get_net(self, name: str) -> Net:
        try:
            return self._nets[name]
        except KeyError:
            raise ConfigError(f"no net '{name}' in netlist '{self.name}'") from None

    def drive(self, net: Net, cell: Cell, port: str) -> None:
        """Attach ``cell.port`` as the single driver of ``net``."""
        if cell.port_direction(port) is not PortDirection.OUTPUT:
            raise ConfigError(f"{cell.name}.{port} is not an output")
        if net.driver is not None:
            raise ConfigError(
                f"net '{net.name}' already driven by {net.driver}; "
                f"cannot also drive from {cell.name}.{port}"
            )
        net.driver = PortRef(cell, port)

    def sink(self, net: Net, cell: Cell, port: str) -> None:
        """Attach ``cell.port`` as a sink of ``net``."""
        if cell.port_direction(port) is not PortDirection.INPUT:
            raise ConfigError(f"{cell.name}.{port} is not an input")
        key = (cell.uid, port)
        if key in self._input_binding:
            raise ConfigError(
                f"{cell.name}.{port} is already connected to net "
                f"'{self._input_binding[key]}'"
            )
        self._input_binding[key] = net.name
        net.sinks.append(PortRef(cell, port))

    def connect(self, src: Cell, src_port: str, dst: Cell, dst_port: str) -> Net:
        """Point-to-point convenience: create/reuse the net driven by
        ``src.src_port`` and add ``dst.dst_port`` as a sink."""
        net_name = f"{src.name}__{src_port}"
        net = self._nets.get(net_name)
        if net is None:
            net = self.add_net(net_name)
            self.drive(net, src, src_port)
        self.sink(net, dst, dst_port)
        return net

    # -- views -------------------------------------------------------------

    def cells(self) -> Iterator[Cell]:
        return iter(self._cells.values())

    def nets(self) -> Iterator[Net]:
        return iter(self._nets.values())

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise ConfigError(f"no cell '{name}' in netlist '{self.name}'") from None

    def cell_count(self) -> int:
        return len(self._cells)

    # -- graphs ------------------------------------------------------------

    def timing_graph(self, transparent_latches: bool = False) -> nx.DiGraph:
        """Directed graph over (cell, port) nodes.

        Edges:

        * net edges: driver port -> each sink port,
        * cell edges: input port -> output port for every *combinational*
          path through the cell.

        With ``transparent_latches=True``, latch D->Q paths are included as
        if the latch were transparent — the electrical reality that lets the
        striker oscillate, and the view a stricter-than-vendor DRC would use.
        """
        graph = nx.DiGraph()

        def node(cell: Cell, port: str) -> Tuple[int, str]:
            key = (cell.uid, port)
            if key not in graph:
                graph.add_node(key, label=f"{cell.name}.{port}")
            return key

        for net in self._nets.values():
            if net.driver is None:
                continue
            for sink in net.sinks:
                graph.add_edge(
                    node(net.driver.cell, net.driver.port),
                    node(sink.cell, sink.port),
                    kind="net",
                    net=net.name,
                )
        for cell in self._cells.values():
            paths: Set[Tuple[str, str]] = set(cell.COMB_PATHS)
            if transparent_latches and isinstance(cell, LDCE):
                paths |= set(LDCE.TRANSPARENT_PATHS)
            for in_port, out_port in paths:
                graph.add_edge(
                    node(cell, in_port),
                    node(cell, out_port),
                    kind="cell",
                    cell=cell.name,
                )
        return graph

    def combinational_cycles(self, transparent_latches: bool = False) -> List[List[str]]:
        """Cycles in the timing graph, as lists of ``cell.port`` strings.

        Enumerates simple cycles; intended for small netlists (unit tests,
        single cells).  DRC uses SCC detection instead, which scales.
        """
        graph = self.timing_graph(transparent_latches=transparent_latches)
        cycles = []
        for cycle in nx.simple_cycles(graph):
            cycles.append([graph.nodes[n]["label"] for n in cycle])
        return cycles

    # -- accounting --------------------------------------------------------

    def lut_count(self) -> int:
        return sum(c.LUT_COST for c in self._cells.values())

    def ff_count(self) -> int:
        return sum(c.FF_COST for c in self._cells.values())

    def latch_count(self) -> int:
        return sum(c.LATCH_COST for c in self._cells.values())
