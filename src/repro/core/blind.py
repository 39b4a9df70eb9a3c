"""The non-TDC-guided baseline attack (paper Fig 5b's top curve).

Without side-channel guidance the attacker cannot tell when — or whether
— the victim is executing, so strikes land at uniformly random cycles
across the inference: most hit inter-layer stalls, the long FC1 tail, or
the robust pooling layer, and only a small fraction touch the layer the
guided attack would concentrate on.  Same striker, same PDN, same fault
physics — only the *timing information* differs, which is exactly the
comparison the paper draws.
"""

from __future__ import annotations

import numpy as np

from ..errors import SchedulerError
from .attack import AttackPlan, DeepStrike
from .scheme import AttackScheme

__all__ = ["BlindAttack"]


class BlindAttack(DeepStrike):
    """DeepStrike's machinery with the guidance removed."""

    def plan_random(self, n_strikes: int) -> AttackPlan:
        """Strikes at random cycles over the whole inference."""
        total = self.engine.schedule.total_cycles
        if n_strikes < 1:
            raise SchedulerError("need at least one strike")
        if n_strikes > total:
            raise SchedulerError(
                f"{n_strikes} strikes exceed the {total}-cycle inference"
            )
        cycles = np.sort(self.rng.choice(total, size=n_strikes, replace=False))
        voltages = self.strike_voltages(cycles)
        struck, wasted = self.bucket_strikes(cycles, voltages)
        # The scheme field records an equivalent periodic spray for the
        # signal RAM (period = total/n); the sampled cycles drive the sim.
        scheme = AttackScheme.spread_over(0, total, n_strikes)
        return AttackPlan(
            target_layer="blind",
            n_strikes_requested=n_strikes,
            scheme=scheme,
            trigger_cycle=0,
            struck=struck,
            wasted_strikes=wasted,
        )
