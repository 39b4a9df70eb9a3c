"""Gate delay as a function of supply voltage (alpha-power law).

One model instance is shared by the TDC delay lines, the DSP critical
path, and the striker's oscillation loops, so every part of the
simulation that "feels" voltage feels it through the same physics:

    delay(v) = delay_nominal * ((v_nom - v_th) / (v - v_th)) ** alpha

Below ``v_th + margin`` the law diverges; we clamp to a large but finite
slowdown, which in practice means "the path will certainly miss timing".
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..config import DelayModelConfig
from ..errors import ConfigError

__all__ = ["GateDelayModel"]

ArrayLike = Union[float, np.ndarray]


class GateDelayModel:
    """Voltage -> propagation-delay scaling.

    >>> from repro.config import DelayModelConfig
    >>> m = GateDelayModel(DelayModelConfig())
    >>> m.factor(1.0)
    1.0
    >>> m.factor(0.9) > 1.0
    True
    """

    #: Voltage headroom below which the slowdown saturates.
    MIN_HEADROOM = 0.02
    #: Slowdown factor applied at/below the saturation point.
    MAX_FACTOR_CAP = 1e3

    def __init__(self, config: DelayModelConfig) -> None:
        config.validate()
        self.config = config
        self._nominal_headroom = config.v_nominal - config.v_threshold

    def factor(self, voltage: ArrayLike) -> ArrayLike:
        """Delay multiplier relative to nominal voltage (>= some small
        speedup above nominal, rapidly growing below it).

        A float voltage (the co-simulation's per-tick path) is computed
        on Python floats.  Their ``**`` calls libm ``pow``, as numpy's
        scalar power does, so it equals the 0-d form bit for bit;
        numpy's array ``power`` may not (docs/performance.md), so ticks
        never go through an array.
        """
        if isinstance(voltage, float):
            # Comparisons, not max()/min(): those builtins cost more per
            # call than the whole law.
            headroom = float(voltage) - self.config.v_threshold
            if headroom < self.MIN_HEADROOM:
                headroom = self.MIN_HEADROOM
            out = (self._nominal_headroom / headroom) ** self.config.alpha
            return self.MAX_FACTOR_CAP if out > self.MAX_FACTOR_CAP else out
        v = np.asarray(voltage, dtype=np.float64)
        headroom = np.maximum(v - self.config.v_threshold, self.MIN_HEADROOM)
        out = np.minimum(
            (self._nominal_headroom / headroom) ** self.config.alpha,
            self.MAX_FACTOR_CAP,
        )
        if np.isscalar(voltage) or getattr(voltage, "ndim", 1) == 0:
            return float(out)
        return out

    def delay(self, nominal_delay: float, voltage: ArrayLike) -> ArrayLike:
        """Absolute delay of a path with ``nominal_delay`` at ``voltage``."""
        if nominal_delay <= 0:
            raise ConfigError("nominal_delay must be positive")
        return nominal_delay * self.factor(voltage)

    def voltage_for_factor(self, factor: float) -> float:
        """Inverse map: the voltage at which delays scale by ``factor``.

        Useful for computing fault-onset voltages analytically in tests.
        """
        if factor < 1e-3:
            raise ConfigError("factor must be positive")
        headroom = self._nominal_headroom / factor ** (1.0 / self.config.alpha)
        return self.config.v_threshold + headroom
