"""Behavioral models of the 7-series primitives DeepStrike's circuits use.

Only the structural facts that matter to design rule checking and power
modelling are captured:

* which ports exist and their direction,
* whether an input -> output path through the cell is *combinational*
  (flows through without storage) or *sequential* (broken by a register
  or a gated latch),
* how many LUTs / flip-flops / latches the cell costs.

The distinction between :class:`LUT6_2` (combinational) and :class:`LDCE`
(a latch, classified as a *storage* element by vendor tools) is the heart of
the paper's DRC-evasion argument: a ring oscillator closes a loop through
combinational cells only, while the power striker closes its loops through
latches, which design rule checkers do not flag as combinational loops.
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..errors import ConfigError

__all__ = [
    "PortDirection",
    "Cell",
    "LUT1",
    "LUT6_2",
    "LDCE",
    "FDRE",
    "CARRY4",
    "BUFG",
]


class PortDirection(enum.Enum):
    """Direction of a primitive port."""

    INPUT = "input"
    OUTPUT = "output"


_uid_counter = itertools.count()


class Cell:
    """Base class for all primitive cells.

    Subclasses declare ``PORTS`` (port name -> direction),
    ``COMB_PATHS`` (set of (input, output) pairs that are combinational),
    and a resource cost.  Instances carry a design-unique name.
    """

    PRIMITIVE: str = "CELL"
    PORTS: Dict[str, PortDirection] = {}
    COMB_PATHS: FrozenSet[Tuple[str, str]] = frozenset()
    IS_STORAGE: bool = False
    LUT_COST: int = 0
    FF_COST: int = 0
    LATCH_COST: int = 0

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigError("cell name must be non-empty")
        self.name = name
        self.uid = next(_uid_counter)

    # -- port helpers ------------------------------------------------------

    def port_direction(self, port: str) -> PortDirection:
        try:
            return self.PORTS[port]
        except KeyError:
            raise ConfigError(
                f"{self.PRIMITIVE} '{self.name}' has no port '{port}'; "
                f"valid ports: {sorted(self.PORTS)}"
            ) from None

    def inputs(self) -> List[str]:
        return [p for p, d in self.PORTS.items() if d is PortDirection.INPUT]

    def outputs(self) -> List[str]:
        return [p for p, d in self.PORTS.items() if d is PortDirection.OUTPUT]

    def is_combinational_path(self, input_port: str, output_port: str) -> bool:
        """True if ``input_port -> output_port`` flows through without storage."""
        return (input_port, output_port) in self.COMB_PATHS

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.PRIMITIVE} {self.name}>"


def _ports(inputs: Iterable[str], outputs: Iterable[str]) -> Dict[str, PortDirection]:
    mapping = {p: PortDirection.INPUT for p in inputs}
    mapping.update({p: PortDirection.OUTPUT for p in outputs})
    return mapping


def _all_paths(inputs: Iterable[str], outputs: Iterable[str]) -> FrozenSet[Tuple[str, str]]:
    return frozenset((i, o) for i in inputs for o in outputs)


class LUT1(Cell):
    """Single-output 1-input LUT; ``INIT=0b01`` makes it an inverter."""

    PRIMITIVE = "LUT1"
    PORTS = _ports(["I0"], ["O"])
    COMB_PATHS = _all_paths(["I0"], ["O"])
    LUT_COST = 1

    def __init__(self, name: str, init: int = 0b01) -> None:
        super().__init__(name)
        if not 0 <= init <= 0b11:
            raise ConfigError("LUT1 INIT must fit in 2 bits")
        self.init = init

    def evaluate(self, i0: bool) -> bool:
        """Look up the configured truth table."""
        return bool((self.init >> int(i0)) & 1)


class LUT6_2(Cell):
    """Dual-output fracturable LUT6 (O6 uses all six inputs, O5 uses I0-I4).

    The power striker configures it as two parallel inverters: ``O6 = !I0``
    (with I5 tied high) and ``O5 = !I0``, so one LUT drives two loops.
    """

    PRIMITIVE = "LUT6_2"
    PORTS = _ports(["I0", "I1", "I2", "I3", "I4", "I5"], ["O6", "O5"])
    COMB_PATHS = frozenset(
        {(f"I{k}", "O6") for k in range(6)} | {(f"I{k}", "O5") for k in range(5)}
    )
    LUT_COST = 1

    #: INIT configuring O6=!I0 (upper 32 bits, valid when I5=1) and O5=!I0
    #: (lower 32 bits): every even minterm set, every odd minterm clear.
    DUAL_INVERTER_INIT = 0x5555555555555555

    def __init__(self, name: str, init: int = DUAL_INVERTER_INIT) -> None:
        super().__init__(name)
        if not 0 <= init < (1 << 64):
            raise ConfigError("LUT6_2 INIT must fit in 64 bits")
        self.init = init

    def evaluate(self, **inputs: bool) -> Tuple[bool, bool]:
        """Return ``(O6, O5)`` for the given ``I0..I5`` values."""
        index5 = 0
        for k in range(5):
            index5 |= int(bool(inputs.get(f"I{k}", False))) << k
        index6 = index5 | (int(bool(inputs.get("I5", True))) << 5)
        o6 = bool((self.init >> index6) & 1)
        o5 = bool((self.init >> index5) & 1)
        return o6, o5

    def is_dual_inverter(self) -> bool:
        """True when configured as the striker's two parallel inverters."""
        for i0 in (False, True):
            o6, o5 = self.evaluate(I0=i0, I5=True)
            if o6 != (not i0) or o5 != (not i0):
                return False
        return True


class LDCE(Cell):
    """Transparent-high latch with gate enable and asynchronous clear.

    While ``G=1`` and ``GE=1`` the latch is transparent (``Q`` follows
    ``D``); when ``G`` falls it holds.  Vendor DRC classifies it as a
    storage element, so loops routed through an LDCE are not reported as
    combinational loops -- the property the power striker exploits.  The
    ``D -> Q`` path is still *electrically* combinational during
    transparency, which is why the loop oscillates; we record that with
    ``TRANSPARENT_PATHS`` so our DRC can optionally warn about it.
    """

    PRIMITIVE = "LDCE"
    PORTS = _ports(["D", "G", "GE", "CLR"], ["Q"])
    COMB_PATHS: FrozenSet[Tuple[str, str]] = frozenset()  # storage element
    TRANSPARENT_PATHS = frozenset({("D", "Q")})
    IS_STORAGE = True
    LATCH_COST = 1

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.q = False

    def evaluate(self, d: bool, g: bool, ge: bool = True, clr: bool = False) -> bool:
        """Latch semantics: clear dominates, then transparent when gated."""
        if clr:
            self.q = False
        elif g and ge:
            self.q = bool(d)
        return self.q


class FDRE(Cell):
    """Rising-edge D flip-flop with clock enable and synchronous reset."""

    PRIMITIVE = "FDRE"
    PORTS = _ports(["D", "C", "CE", "R"], ["Q"])
    COMB_PATHS: FrozenSet[Tuple[str, str]] = frozenset()
    IS_STORAGE = True
    FF_COST = 1

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.q = False

    def clock_edge(self, d: bool, ce: bool = True, r: bool = False) -> bool:
        """Apply one rising clock edge; returns the new Q."""
        if r:
            self.q = False
        elif ce:
            self.q = bool(d)
        return self.q


class CARRY4(Cell):
    """Four-stage carry chain element (the TDC's DL_CARRY building block).

    ``CI`` ripples combinationally to ``CO0..CO3``; each stage also passes
    through to an output ``O`` bit.  Only the carry ripple matters to us.
    """

    PRIMITIVE = "CARRY4"
    PORTS = _ports(
        ["CI", "S0", "S1", "S2", "S3"],
        ["CO0", "CO1", "CO2", "CO3", "O0", "O1", "O2", "O3"],
    )
    COMB_PATHS = _all_paths(["CI", "S0", "S1", "S2", "S3"],
                            ["CO0", "CO1", "CO2", "CO3", "O0", "O1", "O2", "O3"])
    LUT_COST = 0  # carry logic is dedicated, not LUT fabric

    STAGES = 4


class BUFG(Cell):
    """Global clock buffer; combinational pass-through for clock nets."""

    PRIMITIVE = "BUFG"
    PORTS = _ports(["I"], ["O"])
    COMB_PATHS = _all_paths(["I"], ["O"])
