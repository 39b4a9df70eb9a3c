"""Device resource inventory and per-tenant utilization accounting.

The paper reports the power striker at 15.03% of the device's logic
slices; this module is what lets the reproduction compute the same figure
for its own striker bank on the Zynq-7020 inventory of a PYNQ-Z1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ResourceError

__all__ = ["DeviceResources", "ResourceBudget", "Utilization", "ZYNQ_7020"]


@dataclass(frozen=True)
class DeviceResources:
    """Total programmable-logic resources of a device."""

    name: str
    luts: int
    flip_flops: int
    slices: int
    dsp_slices: int
    bram_36k: int

    LUTS_PER_SLICE: int = 4
    FFS_PER_SLICE: int = 8

    def validate(self) -> None:
        for field_name in ("luts", "flip_flops", "slices", "dsp_slices", "bram_36k"):
            if getattr(self, field_name) <= 0:
                raise ResourceError(f"{self.name}: {field_name} must be positive")


#: The PYNQ-Z1's Zynq XC7Z020 programmable logic (7-series datasheet values).
ZYNQ_7020 = DeviceResources(
    name="xc7z020",
    luts=53_200,
    flip_flops=106_400,
    slices=13_300,
    dsp_slices=220,
    bram_36k=140,
)


@dataclass(frozen=True)
class ResourceBudget:
    """Resources requested by (or measured for) one tenant."""

    luts: int = 0
    flip_flops: int = 0
    latches: int = 0
    dsp_slices: int = 0
    bram_36k: int = 0

    def slices_needed(self, device: DeviceResources) -> int:
        """Logic slices consumed, packing LUTs and registers per slice.

        Latches occupy the same slice register sites as flip-flops.
        """
        from math import ceil

        by_lut = ceil(self.luts / device.LUTS_PER_SLICE)
        by_reg = ceil((self.flip_flops + self.latches) / device.FFS_PER_SLICE)
        return max(by_lut, by_reg)

    def __add__(self, other: "ResourceBudget") -> "ResourceBudget":
        return ResourceBudget(
            luts=self.luts + other.luts,
            flip_flops=self.flip_flops + other.flip_flops,
            latches=self.latches + other.latches,
            dsp_slices=self.dsp_slices + other.dsp_slices,
            bram_36k=self.bram_36k + other.bram_36k,
        )


class Utilization:
    """Running utilization ledger for one device."""

    def __init__(self, device: DeviceResources) -> None:
        device.validate()
        self.device = device
        self._claims: Dict[str, ResourceBudget] = {}

    def claim(self, tenant: str, budget: ResourceBudget) -> None:
        """Reserve resources for a tenant; raises when the device overflows."""
        if tenant in self._claims:
            raise ResourceError(f"tenant '{tenant}' already claimed resources")
        total = self.total() + budget
        overflows = []
        if total.luts > self.device.luts:
            overflows.append(f"LUTs {total.luts}/{self.device.luts}")
        if total.flip_flops + total.latches > self.device.flip_flops:
            overflows.append(
                f"registers {total.flip_flops + total.latches}/{self.device.flip_flops}"
            )
        if total.dsp_slices > self.device.dsp_slices:
            overflows.append(f"DSPs {total.dsp_slices}/{self.device.dsp_slices}")
        if total.bram_36k > self.device.bram_36k:
            overflows.append(f"BRAMs {total.bram_36k}/{self.device.bram_36k}")
        if total.slices_needed(self.device) > self.device.slices:
            overflows.append(
                f"slices {total.slices_needed(self.device)}/{self.device.slices}"
            )
        if overflows:
            raise ResourceError(
                f"device '{self.device.name}' overflows adding tenant "
                f"'{tenant}': " + ", ".join(overflows)
            )
        self._claims[tenant] = budget

    def release(self, tenant: str) -> None:
        self._claims.pop(tenant, None)

    def total(self) -> ResourceBudget:
        total = ResourceBudget()
        for budget in self._claims.values():
            total = total + budget
        return total

    def tenant_budget(self, tenant: str) -> ResourceBudget:
        try:
            return self._claims[tenant]
        except KeyError:
            raise ResourceError(f"unknown tenant '{tenant}'") from None

    def slice_fraction(self, tenant: str) -> float:
        """Fraction of the device's logic slices used by ``tenant`` — the
        statistic the paper reports as 15.03% for the power striker."""
        return self.tenant_budget(tenant).slices_needed(self.device) / self.device.slices

    def report(self) -> str:
        lines = [f"Utilization on {self.device.name}:"]
        for tenant, budget in sorted(self._claims.items()):
            frac = self.slice_fraction(tenant)
            lines.append(
                f"  {tenant}: {budget.luts} LUT, {budget.flip_flops} FF, "
                f"{budget.latches} latch, {budget.dsp_slices} DSP, "
                f"{budget.bram_36k} BRAM -> {frac * 100:.2f}% slices"
            )
        return "\n".join(lines)
