"""The TDC-based delay sensor (paper Section III-B, Fig 1a).

Operating principle: a launch clock drives an edge into ``DL_LUT`` (a
LUT-based delay line) whose output enters ``DL_CARRY`` (a carry chain).
A sampling clock of the same frequency, offset by the calibrated phase
``theta``, captures the carry chain into registers.  The number of stages
the edge traversed in the window is::

    k(v) = (theta - L_LUT * t_lut(v)) / t_carry(v)

Supply droop slows both delay lines, shrinking ``k``; the thermometer
capture's ones-count therefore tracks transient voltage.  Sensitivity
with the default configuration is ~0.6 counts/mV, dominated by the LUT
line (its total delay is ~50x a single carry stage, while the carry chain
sets the dynamic range and LSB size).
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from ..config import TDCConfig
from ..errors import ConfigError
from ..fpga.netlist import Netlist
from ..fpga.primitives import CARRY4, FDRE, LUT1
from .delay import GateDelayModel
from .encoder import thermometer_vector

__all__ = ["TDCSensor", "build_tdc_netlist"]


class TDCSensor:
    """Behavioral TDC delay sensor.

    Parameters
    ----------
    config:
        Structural parameters (line lengths, nominal stage delays, jitter).
    delay_model:
        Shared voltage -> delay physics.
    theta:
        Phase offset between launch and sample clocks, seconds.  Obtain it
        from :func:`repro.sensors.calibrate_theta`; an uncalibrated theta
        saturates the readout (a "counting error").
    rng:
        Jitter source; None disables jitter (deterministic readouts).
    """

    def __init__(
        self,
        config: TDCConfig,
        delay_model: GateDelayModel,
        theta: float,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        config.validate()
        if theta <= 0:
            raise ConfigError("theta must be positive; run calibration first")
        self.config = config
        self.delay_model = delay_model
        self.theta = theta
        self.rng = rng

    # -- core transfer function ---------------------------------------------

    def stages_traversed(self, voltage: Union[float, np.ndarray],
                         jitter: bool = True) -> np.ndarray:
        """Carry stages traversed at ``voltage`` (clipped to the chain)."""
        cfg = self.config
        factor = np.asarray(self.delay_model.factor(voltage), dtype=np.float64)
        t_lut_line = cfg.l_lut * cfg.lut_stage_delay_nominal * factor
        t_carry = cfg.carry_stage_delay_nominal * factor
        window = self.theta - t_lut_line
        if jitter and self.rng is not None and cfg.jitter_sigma > 0:
            window = window + self.rng.normal(0.0, cfg.jitter_sigma, size=factor.shape)
        stages = np.floor(window / t_carry)
        return np.clip(stages, 0, cfg.l_carry).astype(np.int64)

    # -- sampling API ----------------------------------------------------------

    def readout(self, voltage: float) -> int:
        """Single ones-count readout (0..l_carry) at an instantaneous voltage.

        The closed loop's per-tick sample, computed on Python floats: the
        operations and the one jitter draw of :meth:`stages_traversed` on
        a 0-d voltage, in the same order, so the readout is the same.
        """
        cfg = self.config
        factor = self.delay_model.factor(float(voltage))
        window = self.theta - cfg.l_lut * cfg.lut_stage_delay_nominal * factor
        if self.rng is not None and cfg.jitter_sigma > 0:
            # normal(0.0, sigma) by numpy's own formula (see the PDN's
            # _voltage_for): the same value, cheaper per call.
            window = window + (0.0 + cfg.jitter_sigma
                               * self.rng.standard_normal())
        stages = math.floor(window / (cfg.carry_stage_delay_nominal * factor))
        if stages < 0:
            return 0
        return cfg.l_carry if stages > cfg.l_carry else stages

    def capture(self, voltage: float) -> np.ndarray:
        """Raw carry-chain capture vector (thermometer code)."""
        return thermometer_vector(self.readout(voltage), self.config.l_carry)

    def sample_trace(self, voltages: np.ndarray) -> np.ndarray:
        """Vectorized readouts for a whole rail-voltage trace."""
        volts = np.asarray(voltages, dtype=np.float64)
        if volts.ndim != 1:
            raise ConfigError("voltage trace must be 1-D")
        return self.stages_traversed(volts)

    # -- diagnostics -----------------------------------------------------------

    def is_saturated(self, readout: Union[int, np.ndarray]) -> Union[bool, np.ndarray]:
        """True where a readout pinned at 0 or l_carry — the "counting
        error" the paper warns about when F_dr / line lengths mismatch."""
        r = np.asarray(readout)
        out = (r <= 0) | (r >= self.config.l_carry)
        return bool(out) if out.ndim == 0 else out

    def sensitivity_counts_per_volt(self, voltage: float = 1.0,
                                    dv: float = 1e-2) -> float:
        """Numeric readout sensitivity around an operating voltage.

        ``dv`` spans several LSBs so the +-1-count quantization of the
        carry chain does not mask real sensitivity differences.
        """
        lo = float(self.stages_traversed(np.float64(voltage - dv), jitter=False))
        hi = float(self.stages_traversed(np.float64(voltage + dv), jitter=False))
        return (hi - lo) / (2.0 * dv)


def build_tdc_netlist(config: TDCConfig, name: str = "tdc_sensor") -> Netlist:
    """Structural netlist of the sensor for DRC and utilization accounting.

    ``l_lut`` buffer LUTs chain into ``l_carry/4`` CARRY4 elements whose
    carry outputs feed ``l_carry`` capture flip-flops.  The netlist is
    acyclic (no oscillators), so it passes vendor DRC — the sensor is a
    legitimate tenant circuit.
    """
    config.validate()
    if config.l_carry % CARRY4.STAGES != 0:
        raise ConfigError("l_carry must be a multiple of 4 (CARRY4 granularity)")
    netlist = Netlist(name)

    # LUT delay line (each LUT1 configured as a buffer: O = I0).
    previous: Optional[LUT1] = None
    first_lut: Optional[LUT1] = None
    for k in range(config.l_lut):
        lut = netlist.add_cell(LUT1(f"dl_lut[{k}]", init=0b10))
        if previous is not None:
            netlist.connect(previous, "O", lut, "I0")
        else:
            first_lut = lut
        previous = lut
    assert previous is not None and first_lut is not None

    # Launch net into the head of the LUT line.
    launch = netlist.add_net("launch_edge")
    netlist.sink(launch, first_lut, "I0")

    # Carry chain: CI ripples block to block; S inputs tied via a constant
    # propagate LUT so each CARRY4 forwards the carry.
    prop = netlist.add_cell(LUT1("carry_propagate_const", init=0b11))
    netlist.connect(previous, "O", prop, "I0")
    blocks = config.l_carry // CARRY4.STAGES
    prev_carry: Optional[CARRY4] = None
    for b in range(blocks):
        carry = netlist.add_cell(CARRY4(f"dl_carry[{b}]"))
        if prev_carry is None:
            netlist.connect(previous, "O", carry, "CI")
        else:
            netlist.connect(prev_carry, "CO3", carry, "CI")
        for s in range(CARRY4.STAGES):
            netlist.connect(prop, "O", carry, f"S{s}")
        # Capture registers on each stage output.
        for s in range(CARRY4.STAGES):
            ff = netlist.add_cell(FDRE(f"capture[{b * 4 + s}]"))
            netlist.connect(carry, f"CO{s}", ff, "D")
        prev_carry = carry
    return netlist
