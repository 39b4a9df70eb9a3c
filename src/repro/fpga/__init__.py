"""FPGA fabric substrate: primitives, netlists, DRC, resources, PDN, clocks.

This package models the parts of a Xilinx 7-series (PYNQ-Z1 / Zynq-7020)
device that the DeepStrike attack interacts with: the structural netlist
level (enough to run design rule checking on attacker circuits), the shared
power distribution network, the clock management tile, and the multi-tenant
"hypervisor" that combines victim and attacker onto one device.
"""

from .primitives import (
    BUFG,
    CARRY4,
    FDRE,
    LDCE,
    LUT1,
    LUT6_2,
    Cell,
    PortDirection,
)
from .netlist import Net, Netlist
from .drc import DRCReport, DesignRuleChecker, RuleResult
from .resources import DeviceResources, ResourceBudget, Utilization, ZYNQ_7020
from .floorplan import Floorplan, Region
from .pdn import PowerDistributionNetwork
from .clocking import ClockManagementTile, ClockSpec
from .tenancy import Hypervisor, Tenant
from .background import BackgroundActivity, BackgroundTenant
from .thermal import ThermalConfig, ThermalModel
from .board import CloudFPGA, SimulationClock

__all__ = [
    "BUFG",
    "BackgroundActivity",
    "BackgroundTenant",
    "CARRY4",
    "Cell",
    "CloudFPGA",
    "ClockManagementTile",
    "ClockSpec",
    "DRCReport",
    "DesignRuleChecker",
    "DeviceResources",
    "FDRE",
    "Floorplan",
    "Hypervisor",
    "LDCE",
    "LUT1",
    "LUT6_2",
    "Net",
    "Netlist",
    "PortDirection",
    "PowerDistributionNetwork",
    "Region",
    "ResourceBudget",
    "RuleResult",
    "SimulationClock",
    "Tenant",
    "ThermalConfig",
    "ThermalModel",
    "Utilization",
    "ZYNQ_7020",
]
