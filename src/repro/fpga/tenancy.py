"""Multi-tenant model: tenants, and the hypervisor that admits them.

Per the threat model (Section II-A): tenants are mutually isolated in
fabric (disjoint regions, no shared wires, I/O, BRAM or clocks) and share
only the PDN.  The hypervisor stands in for the cloud provider's
virtualization flow: it runs design rule checking on every tenant's
netlist (rejecting ring oscillators), accounts resources against the
device, and places regions disjointly.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigError, PlacementError
from .drc import DesignRuleChecker, DRCReport
from .floorplan import Floorplan
from .netlist import Netlist
from .resources import DeviceResources, ResourceBudget, Utilization

__all__ = ["Tenant", "Hypervisor"]


class Tenant:
    """One cloud-FPGA tenant.

    Behavioural subclasses (victim accelerator, attacker circuits) override
    :meth:`current_draw` and :meth:`on_voltage`; the base class carries the
    structural artifacts the hypervisor inspects at admission time.
    """

    def __init__(
        self,
        name: str,
        budget: ResourceBudget,
        netlist: Optional[Netlist] = None,
        region_width: int = 20,
        region_height: int = 20,
    ) -> None:
        if not name:
            raise ConfigError("tenant name must be non-empty")
        self.name = name
        self.budget = budget
        self.netlist = netlist
        self.region_width = region_width
        self.region_height = region_height

    # -- behavioural interface (co-simulation hooks) -------------------------

    def current_draw(self, tick: int) -> float:
        """Amps drawn from the shared PDN during ``tick``."""
        return 0.0

    def on_voltage(self, tick: int, volts: float) -> None:
        """Observe the rail voltage produced at ``tick``."""

    def reset(self) -> None:
        """Return the tenant to its power-on state."""


class Hypervisor:
    """Admission control for one device.

    >>> from repro.fpga import Hypervisor, ZYNQ_7020
    >>> hv = Hypervisor(ZYNQ_7020)
    """

    def __init__(
        self,
        device: DeviceResources,
        floorplan: Optional[Floorplan] = None,
        drc: Optional[DesignRuleChecker] = None,
    ) -> None:
        self.device = device
        self.floorplan = floorplan or Floorplan()
        self.drc = drc or DesignRuleChecker()
        self.utilization = Utilization(device)
        self._tenants: Dict[str, Tenant] = {}
        self._drc_reports: Dict[str, DRCReport] = {}

    def admit(self, tenant: Tenant, far_from: Optional[str] = None) -> DRCReport:
        """Admit a tenant: DRC, resource claim, disjoint placement.

        Raises :class:`~repro.errors.DRCViolation` when the tenant's
        netlist fails an ERROR-severity rule — this is the checkpoint that
        rejects ring oscillators while letting the latch-loop striker in.
        Returns the (possibly warning-laden) DRC report.
        """
        if tenant.name in self._tenants:
            raise ConfigError(f"tenant '{tenant.name}' already admitted")
        report = DRCReport(netlist_name=f"{tenant.name}:<no netlist>")
        if tenant.netlist is not None:
            report = self.drc.check(tenant.netlist)
            report.raise_on_error()
        self.utilization.claim(tenant.name, tenant.budget)
        try:
            self.floorplan.place_apart(
                tenant.name, tenant.region_width, tenant.region_height,
                far_from=far_from,
            )
        except PlacementError:
            self.utilization.release(tenant.name)
            raise
        self._tenants[tenant.name] = tenant
        self._drc_reports[tenant.name] = report
        return report

    def tenants(self) -> List[Tenant]:
        return list(self._tenants.values())

    def tenant(self, name: str) -> Tenant:
        try:
            return self._tenants[name]
        except KeyError:
            raise ConfigError(f"no tenant named '{name}'") from None

    def drc_report(self, name: str) -> DRCReport:
        try:
            return self._drc_reports[name]
        except KeyError:
            raise ConfigError(f"no DRC report for tenant '{name}'") from None
