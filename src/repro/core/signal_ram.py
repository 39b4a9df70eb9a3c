"""The signal RAM: on-chip BRAM replaying the attacking scheme file.

A 7-series 36 kb block RAM holds 36,864 scheme bits; the replay pointer
advances one bit per ``f_sRAM`` cycle once armed.  The attacker re-loads
the RAM over the remote channel to retarget the attack at run time
("high flexibility to load different attack strategies", Section III-D).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import SchemeError
from .scheme import AttackScheme

__all__ = ["SignalRAM"]

#: Usable bits in one RAMB36 block.
BRAM36_BITS = 36_864


class SignalRAM:
    """Bit-serial replay memory for the striker's Start signal."""

    def __init__(self, bram_blocks: int = 1) -> None:
        if bram_blocks < 1:
            raise SchemeError("signal RAM needs at least one BRAM block")
        self.bram_blocks = bram_blocks
        self.capacity_bits = bram_blocks * BRAM36_BITS
        # A list, not an array: :meth:`read` runs once per victim cycle
        # of the co-simulation.
        self._bits: List[int] = []
        self._pointer = 0
        self._armed = False

    # -- loading ----------------------------------------------------------

    def load(self, bits: np.ndarray) -> None:
        """Write a compiled scheme vector (rewinds the replay pointer)."""
        arr = np.asarray(bits).astype(np.uint8)
        if arr.ndim != 1:
            raise SchemeError("scheme bits must be 1-D")
        if arr.size > self.capacity_bits:
            raise SchemeError(
                f"scheme of {arr.size} bits exceeds signal RAM capacity "
                f"{self.capacity_bits} ({self.bram_blocks} BRAM36)"
            )
        self._bits = arr.tolist()
        self.rewind()

    def load_scheme(self, scheme: AttackScheme) -> None:
        self.load(scheme.compile())

    @property
    def loaded_bits(self) -> int:
        return len(self._bits)

    # -- replay ----------------------------------------------------------

    def arm(self) -> None:
        """Start replaying from the current pointer (detector trigger)."""
        if not self._bits:
            raise SchemeError("cannot arm an empty signal RAM")
        self._armed = True

    def rewind(self) -> None:
        self._pointer = 0
        self._armed = False

    @property
    def armed(self) -> bool:
        return self._armed

    @property
    def exhausted(self) -> bool:
        return self._pointer >= len(self._bits)

    def read(self) -> int:
        """One replay step: the current Start bit (0 when idle/exhausted).

        Advances the pointer only while armed, mirroring the hardware's
        address counter gating.
        """
        if not self._armed or self.exhausted:
            return 0
        bit = self._bits[self._pointer]
        self._pointer += 1
        return bit

    def peek(self, index: int) -> int:
        """Random-access read (the remote host's verify path)."""
        if not 0 <= index < len(self._bits):
            raise SchemeError(f"bit index {index} out of range")
        return self._bits[index]
