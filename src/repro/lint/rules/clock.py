"""Clock-discipline rule.

Lease deadlines, holds before re-dispatch, and heartbeat eviction —
the lease book and its one transport, the campaign broker — read time
through one injectable hook,
``repro.core.supervisor._monotonic``, looked up at call time, so tests
can freeze or jump time and pin the lease machinery deterministically
(``tests/core/test_supervisor.py::TestClockDiscipline``).  A bare
``time.monotonic()`` call in those modules silently bypasses the
injection point: the code works until a test needs to control time, or
until a wall-clock read sneaks into something that must replay
byte-identically.

``REPRO-CLK001`` therefore forbids *calls* to ambient clock sources in
``repro/core`` and ``repro/defense``.  References without a call stay
legal — ``_monotonic = time.monotonic`` is exactly how the injection
point is built (a ``clock=`` parameter defaulting to ``time.monotonic``
would be too).  ``time.sleep`` is not a clock read and is allowed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import FileContext, Rule
from ..findings import Finding
from ._imports import ImportTable

__all__ = ["ClockDisciplineRule"]

#: Ambient clock reads, by dotted origin.
_FORBIDDEN = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class ClockDisciplineRule(Rule):
    rule_id = "REPRO-CLK001"
    title = "clocks arrive through injection points"
    contract = ("Deterministic modules read time only through the "
                "injectable hook (supervisor._monotonic, used by the lease "
                "book and the broker alike), never by calling "
                "time.*/datetime.* directly.")
    hint = ("take the clock through the module's injection point "
            "(_monotonic / clock= parameter) so tests can freeze or "
            "jump time; assigning time.monotonic as a *default* is the "
            "sanctioned idiom")
    scopes = ("repro/core/*", "repro/defense/*")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        table = ImportTable(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = table.resolve(node.func)
            if origin in _FORBIDDEN:
                yield self.finding(
                    ctx, node,
                    f"direct call to ambient clock '{origin}' in a "
                    "deterministic module",
                )
