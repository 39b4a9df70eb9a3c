"""The DNN start detector (paper Section III-D.1, Fig 3).

An FSM watches the 5-bit zone word sampled from the TDC's 128-bit
capture.  At the calibrated idle point the word's Hamming weight is 4;
small ambient wobbles do not move any zone tap, which is the
"purification" the paper describes.  When a layer's droop begins, the
top zone tap falls and the weight drops to 3 — sustained for a debounce
interval, that is the trigger ("HW == 3 means the first layer just
started").
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from typing import List, Optional

import numpy as np

from ..errors import SchedulerError
from ..sensors.encoder import zone_bits_from_readout, zone_sample_indices

__all__ = ["DetectorState", "DNNStartDetector"]


class DetectorState(enum.Enum):
    IDLE = "idle"
    ARMED = "armed"
    TRIGGERED = "triggered"


class DNNStartDetector:
    """Debounced Hamming-weight trigger FSM.

    Parameters
    ----------
    arm_hw:
        The idle Hamming weight; observing it (debounced) arms the FSM.
    trigger_hw:
        Weights at or below this value indicate layer activity.
    debounce:
        Consecutive samples required for both arming and triggering —
        the noise purification stage.
    glitch_tolerance:
        How many non-conforming samples an in-progress debounce streak
        forgives before resetting (hysteresis against single-sample
        sensor glitches).  ``0`` is the strict classic behaviour; the
        forgiven samples do not count toward the streak.
    l_carry / zones / fraction:
        Zone-sampling geometry (must match the sensor's encoder).
    """

    def __init__(
        self,
        arm_hw: int = 4,
        trigger_hw: int = 3,
        debounce: int = 3,
        l_carry: int = 128,
        zones: int = 5,
        fraction: float = 0.55,
        glitch_tolerance: int = 0,
    ) -> None:
        if not 0 <= trigger_hw < arm_hw <= zones:
            raise SchedulerError(
                "need 0 <= trigger_hw < arm_hw <= zones "
                f"(got {trigger_hw}, {arm_hw}, {zones})"
            )
        if debounce < 1:
            raise SchedulerError("debounce must be >= 1")
        if glitch_tolerance < 0:
            raise SchedulerError("glitch_tolerance must be >= 0")
        self.arm_hw = arm_hw
        self.trigger_hw = trigger_hw
        self.debounce = debounce
        self.glitch_tolerance = glitch_tolerance
        self.l_carry = l_carry
        self.zones = zones
        self.fraction = fraction
        # Ascending zone taps; a clean thermometer capture of readout r
        # sets the bits whose tap lies below r.
        self._taps = zone_sample_indices(l_carry, zones, fraction)
        self.reset()

    def reset(self) -> None:
        self.state = DetectorState.IDLE
        self._streak = 0
        self._glitches = 0

    # -- streaming interface ----------------------------------------------------------

    def observe_readout(self, readout: int) -> bool:
        """Feed one ones-count readout; returns True on the trigger edge.

        The zone word's Hamming weight is the number of taps below the
        readout (:func:`~repro.sensors.encoder.zone_bits_from_readout`
        summed), counted on the int without building the word.
        """
        return self._advance(bisect_left(self._taps, readout))

    def _advance(self, hw: int) -> bool:
        """Feed one zone-word Hamming weight; True on the trigger edge."""
        if self.state is DetectorState.IDLE:
            if self._debounce_step(hw == self.arm_hw):
                self.state = DetectorState.ARMED
        elif self.state is DetectorState.ARMED:
            if self._debounce_step(hw <= self.trigger_hw):
                self.state = DetectorState.TRIGGERED
                return True
        return False

    def _debounce_step(self, conforming: bool) -> bool:
        """Advance the debounce counter; True when the streak completes.

        A non-conforming sample mid-streak consumes one glitch credit
        (up to ``glitch_tolerance``) instead of resetting the streak.
        """
        if conforming:
            self._streak += 1
            if self._streak >= self.debounce:
                self._streak = 0
                self._glitches = 0
                return True
        elif self._streak and self._glitches < self.glitch_tolerance:
            self._glitches += 1
        else:
            self._streak = 0
            self._glitches = 0
        return False

    # -- batch interface ----------------------------------------------------------

    def find_trigger(self, readouts: np.ndarray,
                     start: int = 0) -> Optional[int]:
        """Index of the first trigger in a readout trace (None if never).

        Resets the FSM first; the returned index is where the debounce
        completed (i.e. trigger latency is included).
        """
        self.reset()
        values = np.asarray(readouts)[start:].tolist()
        for k, value in enumerate(values, start):
            if self.observe_readout(int(value)):
                return k
        return None

    def find_all_triggers(self, readouts: np.ndarray,
                          rearm_gap: int = 64) -> List[int]:
        """All triggers in a trace, re-arming ``rearm_gap`` samples after
        each (multi-inference monitoring)."""
        triggers: List[int] = []
        cursor = 0
        arr = np.asarray(readouts)
        while cursor < arr.shape[0]:
            hit = self.find_trigger(arr, start=cursor)
            if hit is None:
                break
            triggers.append(hit)
            cursor = hit + rearm_gap
        return triggers

    def detector_input_trace(self, readouts: np.ndarray) -> np.ndarray:
        """The Hamming-weight stream the FSM sees (paper Fig 3's y-axis)."""
        words = zone_bits_from_readout(
            np.asarray(readouts), self.l_carry, self.zones, self.fraction
        )
        return words.sum(axis=-1)
