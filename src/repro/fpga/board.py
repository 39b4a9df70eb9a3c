"""The prototyped cloud-FPGA board: device + PDN + clocks + co-simulation.

:class:`CloudFPGA` is the top-level object experiments build.  It owns the
Zynq-7020 resource inventory, the shared PDN, a clock management tile, and
the hypervisor that admits tenants.  Two simulation paths are offered:

* :meth:`cosimulate` — the streaming loop: every tick, sum each tenant's
  current draw, step the PDN, and hand the rail voltage back to every
  tenant (so sensors sample and strikers observe their own droop).
* :meth:`simulate_activity` — the vectorized loop over a precomputed
  aggregate current trace, used for long side-channel traces where the
  tenants' activity does not depend on the voltage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..config import SimulationConfig, default_config
from ..errors import SimulationError
from .clocking import ClockManagementTile
from .pdn import PowerDistributionNetwork
from .resources import ZYNQ_7020, DeviceResources
from .tenancy import Hypervisor, Tenant

__all__ = ["SimulationClock", "CloudFPGA"]


@dataclass
class SimulationClock:
    """Global tick counter."""

    dt: float
    tick: int = 0

    def advance(self, ticks: int = 1) -> int:
        if ticks < 0:
            raise SimulationError("cannot advance by negative ticks")
        self.tick += ticks
        return self.tick


class CloudFPGA:
    """A simulated multi-tenant cloud FPGA (PYNQ-Z1 prototype).

    >>> from repro.fpga import CloudFPGA
    >>> board = CloudFPGA.pynq_z1()
    >>> board.device.name
    'xc7z020'
    """

    def __init__(
        self,
        config: Optional[SimulationConfig] = None,
        device: DeviceResources = ZYNQ_7020,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = (config or default_config()).validate()
        self.device = device
        self.rng = rng if rng is not None else np.random.default_rng(self.config.seed)
        self.clock = SimulationClock(dt=self.config.clock.sim_dt)
        self.pdn = PowerDistributionNetwork(
            self.config.pdn, dt=self.config.clock.sim_dt, rng=self.rng
        )
        self.cmt = ClockManagementTile()
        self.hypervisor = Hypervisor(device)
        self._trace_hooks: List[Callable[[int, float, float], None]] = []

    @classmethod
    def pynq_z1(cls, config: Optional[SimulationConfig] = None,
                seed: Optional[int] = None) -> "CloudFPGA":
        """The board used throughout the paper's evaluation."""
        cfg = config or default_config()
        if seed is not None:
            cfg = cfg.with_overrides(seed=seed)
        return cls(config=cfg, device=ZYNQ_7020)

    # -- tenancy -------------------------------------------------------------

    def admit(self, tenant: Tenant, far_from: Optional[str] = None):
        """Admit a tenant through the hypervisor (DRC + resources + place)."""
        return self.hypervisor.admit(tenant, far_from=far_from)

    def tenants(self) -> List[Tenant]:
        return self.hypervisor.tenants()

    # -- observation ----------------------------------------------------------

    def add_trace_hook(self, hook: Callable[[int, float, float], None]) -> None:
        """Register ``hook(tick, load_current, voltage)`` called every tick
        of :meth:`cosimulate` (used by experiment recorders)."""
        self._trace_hooks.append(hook)

    # -- simulation -----------------------------------------------------------

    def reset(self) -> None:
        """Power-on reset: settle the PDN and reset tenants and the clock."""
        self.clock.tick = 0
        self.pdn.reset()
        for tenant in self.tenants():
            tenant.reset()

    def cosimulate(self, ticks: int) -> np.ndarray:
        """Run the streaming co-simulation for ``ticks``; returns the rail
        voltage trace (one sample per tick)."""
        if ticks < 0:
            raise SimulationError("ticks must be >= 0")
        tenants = self.tenants()
        observers = [tenant.on_voltage for tenant in tenants]
        clock, step, hooks = self.clock, self.pdn.step, self._trace_hooks
        # Python floats throughout: one array is built at the end.
        volts = []
        for _ in range(ticks):
            tick = clock.tick
            load = 0.0
            for tenant in tenants:
                draw = tenant.current_draw(tick)
                if draw < 0:
                    raise SimulationError(
                        f"tenant '{tenant.name}' drew negative current"
                    )
                load += draw
            v = step(load)
            volts.append(v)
            for observe in observers:
                observe(tick, v)
            for hook in hooks:
                hook(tick, load, v)
            clock.tick = tick + 1
        return np.array(volts, dtype=np.float64)

    def simulate_activity(self, load_current: np.ndarray) -> np.ndarray:
        """Vectorized voltage response to a precomputed aggregate current
        trace; advances the global clock by ``len(load_current)`` ticks."""
        volts = self.pdn.simulate(np.asarray(load_current, dtype=np.float64))
        self.clock.advance(len(volts))
        return volts

    def settle(self, load_current: float = 0.0) -> float:
        """Let the PDN settle under a constant load (does not move tenants)."""
        return self.pdn.settle(load_current)
