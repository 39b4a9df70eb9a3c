"""DSP fault characterization under power strikes (paper Fig 6).

The paper's experiment: place the DSP testbench far from the striker,
feed 10,000 random inputs, fire the striker for one cycle aligned with
each DSP operation, fetch results five cycles later, and classify the
faults.  Sweeping the striker size yields the duplication/random fault
dose-response of Fig 6(b).

Two execution paths are provided:

* :meth:`FaultCharacterization.run` — vectorized: compute the strike's
  deterministic droop waveform once, then sample 10,000 noisy capture
  voltages through the shared fault model.  Fast enough for full sweeps.
* :meth:`FaultCharacterization.run_cosim` — exact: a streaming
  co-simulation driving a real :class:`~repro.dsp.DSP48Slice` through the
  PDN, used to cross-validate the vectorized path on smaller trial counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Set

import numpy as np

from ..config import SimulationConfig, default_config
from ..errors import SimulationError
from ..fpga.pdn import PowerDistributionNetwork
from ..fpga.thermal import ThermalModel
from ..sensors.delay import GateDelayModel
from ..striker.bank import effective_bank_current
from ..striker.cell import StrikerCell
from .faults import FaultType, TimingFaultModel
from .slice_model import DSP48Slice

__all__ = ["FaultRates", "FaultCharacterization"]


@dataclass(frozen=True)
class FaultRates:
    """Fault statistics for one striker size (one x-position of Fig 6b)."""

    n_cells: int
    trials: int
    duplication_rate: float
    random_rate: float

    @property
    def total_rate(self) -> float:
        """Total fault rate = duplication + random (paper footnote 2)."""
        return self.duplication_rate + self.random_rate


class FaultCharacterization:
    """Reproduces the Fig 6 experiment on the simulated substrate."""

    #: ticks of striker assertion (one victim cycle at the default clocks).
    STRIKE_TICKS = 2

    def __init__(self, config: Optional[SimulationConfig] = None,
                 seed: int = 0, victim_dsp_current: float = 2e-3) -> None:
        self.config = (config or default_config()).validate()
        self.rng = np.random.default_rng(seed)
        self.delay_model = GateDelayModel(self.config.delay)
        self.fault_model = TimingFaultModel(self.config.dsp, self.delay_model,
                                            self.rng)
        self.cell = StrikerCell(self.config.striker, self.delay_model)
        self.victim_dsp_current = victim_dsp_current

    # -- droop waveform ----------------------------------------------------------

    def strike_voltage(self, n_cells: int, strike_ticks: Optional[int] = None,
                       warmup_ticks: int = 64) -> float:
        """Worst-case (minimum) rail voltage during one strike.

        Runs the deterministic (noise-free) PDN through idle warmup, the
        strike window, and a tail, and returns the minimum — that is the
        voltage at the DSP capture edge the strike targets.
        """
        ticks = self.STRIKE_TICKS if strike_ticks is None else strike_ticks
        if ticks < 1:
            raise SimulationError("strike must last at least one tick")
        pdn = PowerDistributionNetwork(self.config.pdn,
                                       dt=self.config.clock.sim_dt, rng=None)
        pdn.settle(self.victim_dsp_current)
        strike_current = effective_bank_current(n_cells, self.cell,
                                                self.config.pdn)
        trace = np.full(warmup_ticks + ticks + 8, self.victim_dsp_current)
        trace[warmup_ticks:warmup_ticks + ticks] += strike_current
        volts = pdn.simulate(trace)
        return float(volts.min())

    # -- vectorized characterization ---------------------------------------------

    def run(self, n_cells: int, trials: int = 10_000) -> FaultRates:
        """Fault rates over ``trials`` random-input operations.

        Per-trial variation comes from supply noise and the data-dependent
        jitter the fault model's stochastic decision encodes; the droop
        waveform itself is the same for every trial, as in the paper's
        repeated single-strike experiment.
        """
        if trials < 1:
            raise SimulationError("need at least one trial")
        v_strike = self.strike_voltage(n_cells)
        noise = self.rng.normal(0.0, self.config.pdn.noise_sigma_v, size=trials)
        outcomes = self.fault_model.decide_array(v_strike + noise)
        dup = int(np.count_nonzero(outcomes == FaultType.DUPLICATION))
        rnd = int(np.count_nonzero(outcomes == FaultType.RANDOM))
        return FaultRates(
            n_cells=n_cells,
            trials=trials,
            duplication_rate=dup / trials,
            random_rate=rnd / trials,
        )

    def sweep(self, cell_counts: Iterable[int],
              trials: int = 10_000) -> List[FaultRates]:
        """The full Fig 6(b) x-axis sweep."""
        return [self.run(n, trials) for n in sorted(cell_counts)]

    # -- thermal envelope -------------------------------------------------------

    def sustained_strike_study(self, n_cells: int, duration_s: float = 0.05,
                               duty: float = 1.0, dt: float = 1e-4) -> dict:
        """What happens if the attacker holds Start high (Section IV-A).

        Returns the junction-temperature profile of keeping ``n_cells``
        asserted at ``duty`` for ``duration_s``.  The paper's caution —
        longer activation "may increase the temperature of the FPGA chip
        or even crash it" — shows up as ``crashed=True`` for large banks
        at full duty, while the pulsed attack (duty ~1%) stays cold.
        """
        if not 0.0 < duty <= 1.0:
            raise SimulationError("duty must be in (0, 1]")
        current = effective_bank_current(n_cells, self.cell, self.config.pdn)
        pdn = self.config.pdn
        r_total = pdn.r_prompt + pdn.r_resonant + pdn.r_static
        v_rail = pdn.v_nominal - r_total * (current + pdn.idle_current)
        thermal = ThermalModel(crash_on_limit=False)
        bank_power = duty * current * max(v_rail, 0.1)
        steps = max(1, int(duration_s / dt))
        powers = np.full(steps, thermal.config.idle_power_w + bank_power)
        temps = thermal.simulate(powers, dt)
        return {
            "n_cells": n_cells,
            "duty": duty,
            "bank_power_w": bank_power,
            "peak_temp_c": float(temps.max()),
            "crashed": bool(temps.max() >= thermal.config.crash_c),
            "temps": temps,
        }

    # -- exact co-simulated characterization ----------------------------------------

    def run_cosim(self, n_cells: int, trials: int = 200,
                  strike_period_ticks: int = 64) -> FaultRates:
        """Streaming-path characterization with a live DSP48 pipeline.

        Random inputs stream into the slice back-to-back (as the paper's
        testbench feeds it); every ``strike_period_ticks`` the striker is
        asserted for one victim cycle, so the PDN recovers between
        strikes.  Ops issued on struck edges are the trials; their retired
        results are classified against their own and the previous op's
        expected product — the slow but assumption-free path.
        """
        if trials < 1:
            raise SimulationError("need at least one trial")
        pdn = PowerDistributionNetwork(self.config.pdn,
                                       dt=self.config.clock.sim_dt,
                                       rng=self.rng)
        dsp = DSP48Slice(self.config.dsp, self.fault_model)
        pdn.settle(self.victim_dsp_current)
        strike_current = effective_bank_current(n_cells, self.cell,
                                                self.config.pdn)

        expected_log: List[int] = []
        struck_ops: Set[int] = set()
        results: dict = {}
        dup = rnd = 0
        tick = 0
        # Issue until `trials` struck ops have been issued, then drain.
        while len(struck_ops) < trials or len(results) < len(struck_ops):
            striking = (tick % strike_period_ticks) < self.STRIKE_TICKS \
                and len(struck_ops) < trials
            load = self.victim_dsp_current + (strike_current if striking else 0.0)
            v = pdn.step(load)
            a, b, d = (int(x) for x in self.rng.integers(-128, 128, size=3))
            out = dsp.clock(a, b, d, voltage=v)
            op_index = len(expected_log)
            expected_log.append(DSP48Slice.compute(a, b, d))
            if striking:
                struck_ops.add(op_index)
            retired_index = op_index - dsp.depth
            if retired_index in struck_ops:
                results[retired_index] = out.value
            tick += 1
        for idx in struck_ops:
            value = results[idx]
            if value != expected_log[idx]:
                if idx > 0 and value == expected_log[idx - 1]:
                    dup += 1
                else:
                    rnd += 1
        return FaultRates(
            n_cells=n_cells,
            trials=len(struck_ops),
            duplication_rate=dup / len(struck_ops),
            random_rate=rnd / len(struck_ops),
        )
