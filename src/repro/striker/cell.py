"""One power striker cell: LUT6_2 dual inverter + two LDCE latch loops.

Structure (paper Fig 2)::

        +--------- LDCE (loop A) <--- O6 ---+
        |                                   |
        +--> I0 -->  LUT6_2 (dual inverter) +
        |                                   |
        +--------- LDCE (loop B) <--- O5 ---+

When ``Start = 1`` both latch gates are held transparent, each loop is an
odd-inversion cycle, and the cell oscillates with a period of two loop
traversals.  Vendor DRC sees the loops broken by storage elements and
passes the design; the electrical transparency is what prior defence work
(FPGADefender-style scanning) looks for — our strict DRC mode models that.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..config import StrikerConfig
from ..errors import ConfigError
from ..fpga.netlist import Netlist
from ..fpga.primitives import LDCE, LUT1, LUT6_2
from ..sensors.delay import GateDelayModel

__all__ = ["StrikerCell", "build_striker_cell_netlist"]


def build_striker_cell_netlist(index: int = 0,
                               netlist: Optional[Netlist] = None) -> Netlist:
    """Structural netlist of one striker cell.

    The loop ``LUT6_2.O6 -> LDCE.D -> LDCE.Q -> LUT6_2.I0`` (and likewise
    through O5/I1) closes only through latches, so the plain combinational
    timing graph is acyclic and ``LUTLP-1`` passes; with transparent-latch
    analysis the two oscillation loops appear, which is exactly the
    behaviour the strict scan flags.
    """
    own = netlist is None
    nl = netlist if netlist is not None else Netlist(f"striker_cell_{index}")
    lut = nl.add_cell(LUT6_2(f"striker[{index}].lut"))
    if not lut.is_dual_inverter():
        raise ConfigError("striker LUT must be configured as a dual inverter")
    latch_a = nl.add_cell(LDCE(f"striker[{index}].latch_a"))
    latch_b = nl.add_cell(LDCE(f"striker[{index}].latch_b"))
    # Start net gates both latches (shared across the whole bank).
    start_name = "start"
    try:
        start = nl.get_net(start_name)
    except ConfigError:
        start = nl.add_net(start_name)
        driver = nl.add_cell(LUT1("start_driver", init=0b10))
        nl.drive(start, driver, "O")
    nl.sink(start, latch_a, "G")
    nl.sink(start, latch_b, "G")
    # Loop A: O6 -> latch_a -> I0.
    nl.connect(lut, "O6", latch_a, "D")
    nl.connect(latch_a, "Q", lut, "I0")
    # Loop B: O5 -> latch_b -> I1 (second inverter input).
    nl.connect(lut, "O5", latch_b, "D")
    nl.connect(latch_b, "Q", lut, "I1")
    return nl


class StrikerCell:
    """Behavioral model of one cell: oscillation frequency and current.

    The oscillation period is two traversals of a loop (LUT + latch +
    routing = ``loop_delay_nominal``), voltage-scaled through the shared
    delay model; the average dynamic current is
    ``loops_per_cell * c_eff * v * f_osc``, parameterized instead as
    ``current_per_cell`` at nominal conditions and scaled with ``v * f``.
    """

    def __init__(self, config: StrikerConfig,
                 delay_model: GateDelayModel) -> None:
        config.validate()
        self.config = config
        self.delay_model = delay_model
        self._f_nominal = 1.0 / (2.0 * config.loop_delay_nominal)

    def oscillation_frequency(self, voltage: Union[float, np.ndarray]):
        """Loop toggle frequency at ``voltage`` (droop slows the loop)."""
        factor = self.delay_model.factor(voltage)
        return self._f_nominal / factor

    def current(self, voltage: Union[float, np.ndarray], enabled: bool = True):
        """Average supply current of the cell at ``voltage``.

        Dynamic current scales as ``v * f(v)`` relative to the nominal
        operating point — a self-limiting effect: deep droop slows the
        striker itself, which is why fault rates saturate rather than the
        device instantly browning out.
        """
        if not enabled:
            return 0.0 if np.isscalar(voltage) else np.zeros_like(np.asarray(voltage))
        # A float (the co-simulation's per-tick draw) stays a Python
        # float: the same operations, without numpy's 0-d overhead.
        v = float(voltage) if isinstance(voltage, float) \
            else np.asarray(voltage, dtype=np.float64)
        v_nom = self.delay_model.config.v_nominal
        scale = (v / v_nom) * (self.oscillation_frequency(v) / self._f_nominal)
        out = self.config.current_per_cell * scale
        return float(out) if np.isscalar(voltage) else out
