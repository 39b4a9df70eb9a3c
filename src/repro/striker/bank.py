"""A bank of striker cells behind one Start signal, as a cloud tenant.

The bank is the attacker's power payload.  As a
:class:`~repro.fpga.Tenant` it draws current from the shared PDN whenever
Start is asserted; the per-cell current is voltage-fed-back through the
last observed rail voltage (deep droop slows the cells, a self-limiting
effect that makes the dose-response saturate instead of browning the
device out).

The paper's end-to-end attack uses a bank costing 15.03% of the device's
logic slices (~8,000 cells here); the DSP characterization (Fig 6b)
sweeps the bank size up to 24,000 cells.
"""

from __future__ import annotations

from typing import Optional

from ..config import SimulationConfig
from ..errors import ConfigError
from ..fpga.netlist import Netlist
from ..fpga.resources import ResourceBudget
from ..fpga.tenancy import Tenant
from ..sensors.delay import GateDelayModel
from .cell import StrikerCell, build_striker_cell_netlist

__all__ = ["StrikerBank", "effective_bank_current"]


def effective_bank_current(n_cells: int, cell: StrikerCell,
                           pdn_config, iterations: int = 8) -> float:
    """Self-consistent current of ``n_cells`` striker cells.

    Solves ``i = n * i_cell(v(i))`` with ``v(i)`` the settled PDN voltage
    under that current, by fixed-point iteration — the cells slow down as
    they droop their own rail.
    """
    if n_cells < 0:
        raise ConfigError("n_cells must be >= 0")
    if n_cells == 0:
        return 0.0
    r_total = pdn_config.r_prompt + pdn_config.r_resonant + pdn_config.r_static
    current = n_cells * cell.current(pdn_config.v_nominal)
    for _ in range(iterations):
        v = pdn_config.v_nominal - r_total * (current + pdn_config.idle_current)
        current = n_cells * cell.current(max(v, 0.1))
    return current


class StrikerBank(Tenant):
    """``n_cells`` striker cells sharing one Start net.

    Parameters
    ----------
    n_cells:
        Number of LUT6_2 + 2xLDCE cells.
    config:
        Full simulation config (striker + delay sections are used).
    structural_cells:
        How many cells to actually instantiate in the structural netlist
        handed to DRC.  DRC verdicts are per-cell-topology, so checking a
        truncated bank is sound; resource accounting always uses the full
        ``n_cells``.  Pass ``None`` to instantiate everything.
    """

    DEFAULT_STRUCTURAL_CELLS = 256

    def __init__(
        self,
        n_cells: int,
        config: SimulationConfig,
        name: str = "striker",
        structural_cells: Optional[int] = DEFAULT_STRUCTURAL_CELLS,
    ) -> None:
        if n_cells < 1:
            raise ConfigError("a striker bank needs at least one cell")
        self.n_cells = n_cells
        self.sim_config = config
        self.delay_model = GateDelayModel(config.delay)
        self.cell = StrikerCell(config.striker, self.delay_model)

        to_build = n_cells if structural_cells is None else min(
            n_cells, structural_cells
        )
        netlist = Netlist(f"{name}_bank")
        for k in range(to_build):
            build_striker_cell_netlist(k, netlist=netlist)

        budget = ResourceBudget(
            luts=n_cells * config.striker.luts_per_cell + 1,  # +1 Start driver
            latches=n_cells * config.striker.latches_per_cell,
        )
        super().__init__(name=name, budget=budget, netlist=netlist,
                         region_width=30, region_height=30)
        self._started = False
        self._last_voltage = config.pdn.v_nominal

    # -- control ----------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    def set_start(self, value: bool) -> None:
        """Drive the shared Start signal (the scheduler's output)."""
        self._started = bool(value)

    def reset(self) -> None:
        self._started = False
        self._last_voltage = self.sim_config.pdn.v_nominal

    # -- tenant behaviour ----------------------------------------------------------

    def current_draw(self, tick: int) -> float:
        if not self._started:
            return 0.0
        return self.n_cells * self.cell.current(self._last_voltage)

    def on_voltage(self, tick: int, volts: float) -> None:
        self._last_voltage = volts

    # -- analytic helpers ----------------------------------------------------------

    def effective_current(self, n_active: Optional[int] = None,
                          iterations: int = 8) -> float:
        """Self-consistent bank current under its own steady droop.

        Used by the vectorized attack path, where per-tick voltage
        feedback is not simulated.  See :func:`effective_bank_current`.
        """
        n = self.n_cells if n_active is None else n_active
        if not 0 <= n <= self.n_cells:
            raise ConfigError(f"n_active {n} outside [0, {self.n_cells}]")
        return effective_bank_current(n, self.cell, self.sim_config.pdn,
                                      iterations=iterations)
