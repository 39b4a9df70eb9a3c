"""The victim accelerator as a cloud tenant (for streaming co-simulation).

Wraps an :class:`~repro.accel.AcceleratorEngine`'s schedule as a
:class:`~repro.fpga.Tenant`: the tenant continuously runs inferences
(schedule, inter-image gap, repeat) and draws the per-layer activity
current each tick.  This is what the attack scheduler senses through the
PDN in the closed-loop demos.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..config import SimulationConfig
from ..fpga.resources import ResourceBudget
from ..fpga.tenancy import Tenant
from .activity import STALL_CURRENT, layer_current
from .engine import AcceleratorEngine

__all__ = ["VictimAccelerator"]


class VictimAccelerator(Tenant):
    """Continuously-inferring victim tenant."""

    def __init__(
        self,
        engine: AcceleratorEngine,
        gap_cycles: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
        name: str = "victim_dnn",
    ) -> None:
        self.engine = engine
        config: SimulationConfig = engine.config
        self.gap_cycles = config.accel.interlayer_stall_cycles \
            if gap_cycles is None else gap_cycles
        self.rng = rng
        self._tpc = config.clock.ticks_per_victim_cycle
        self._period = engine.schedule.total_cycles + self.gap_cycles
        # Pre-resolve per-cycle current levels for one inference period,
        # as a list: the per-tick lookup then stays on Python floats.
        levels = np.full(self._period, STALL_CURRENT, dtype=np.float64)
        for window in engine.schedule.windows():
            levels[window.start_cycle:window.end_cycle] = layer_current(
                window, config.accel
            )
        self._levels = levels.tolist()
        self._jitter = config.accel.activity_jitter

        params = sum(
            int(np.prod(getattr(s, "w_codes").shape)) + len(getattr(s, "b_codes"))
            for s in engine.model.stages
            if hasattr(s, "w_codes")
        )
        bram_blocks = max(1, math.ceil(params * 8 / 36_864))  # 8-bit words
        budget = ResourceBudget(
            luts=4200,
            flip_flops=6800,
            dsp_slices=max(p.lanes for p in engine.plans),
            bram_36k=bram_blocks,
        )
        super().__init__(name=name, budget=budget, netlist=None,
                         region_width=30, region_height=30)

    @property
    def inference_period_cycles(self) -> int:
        return self._period

    def cycle_of_tick(self, tick: int) -> int:
        """Position within the current inference (victim cycles)."""
        return (tick // self._tpc) % self._period

    def current_draw(self, tick: int) -> float:
        level = self._levels[self.cycle_of_tick(tick)]
        if self.rng is not None and self._jitter > 0 and level > STALL_CURRENT:
            level *= 1.0 + self._jitter * (2.0 * self.rng.random() - 1.0)
        return level
