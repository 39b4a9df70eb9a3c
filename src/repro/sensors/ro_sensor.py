"""Ring-oscillator power sensor — the alternative the paper rejects.

Prior work (e.g. Zhao & Suh) sensed voltage by counting ring-oscillator
edges per window: droop slows the RO, lowering the count.  It works, but
the RO is a combinational loop, so on DRC-enforcing clouds the bitstream
is rejected.  This module builds only the RO's structural netlist, to
demonstrate that rejection in the DRC tests and the E6 bench.
"""

from __future__ import annotations

from ..errors import ConfigError
from ..fpga.netlist import Netlist
from ..fpga.primitives import FDRE, LUT1

__all__ = ["build_ro_sensor_netlist"]


def build_ro_sensor_netlist(stages: int = 5, name: str = "ro_sensor") -> Netlist:
    """Structural RO: a ring of inverter LUTs plus a counter tap.

    This netlist contains a genuine combinational loop and is *expected*
    to fail :class:`~repro.fpga.DesignRuleChecker` rule ``LUTLP-1``.
    """
    if stages < 3 or stages % 2 == 0:
        raise ConfigError("an RO needs an odd stage count >= 3")
    netlist = Netlist(name)
    inverters = [netlist.add_cell(LUT1(f"ro_inv[{k}]", init=0b01))
                 for k in range(stages)]
    for k, inv in enumerate(inverters):
        netlist.connect(inv, "O", inverters[(k + 1) % stages], "I0")
    tap = netlist.add_cell(FDRE("ro_count_tap"))
    netlist.connect(inverters[0], "O", tap, "D")
    return netlist
