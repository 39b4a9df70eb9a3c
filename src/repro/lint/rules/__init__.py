"""Rule registry for the contract linter.

Every rule class ships here; ``default_rules()`` instantiates the full
set and ``rules_by_id()`` selects a subset (``repro lint --rules``).
Adding a rule = write the class in a module here, append it to
``ALL_RULES``, document it in docs/static_analysis.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ...errors import LintError
from ..engine import Rule
from .backend import BackendPurityRule
from .clock import ClockDisciplineRule
from .durability import DurableWriteRule
from .exceptions import BareExceptRule, RaiseDisciplineRule
from .rng import GlobalStateRngRule, HotLoopRngRule, UnseededRngRule

__all__ = [
    "ALL_RULES",
    "BackendPurityRule",
    "BareExceptRule",
    "ClockDisciplineRule",
    "DurableWriteRule",
    "GlobalStateRngRule",
    "HotLoopRngRule",
    "RaiseDisciplineRule",
    "UnseededRngRule",
    "default_rules",
    "rules_by_id",
]

ALL_RULES: Tuple[type, ...] = (
    GlobalStateRngRule,
    UnseededRngRule,
    HotLoopRngRule,
    ClockDisciplineRule,
    DurableWriteRule,
    BareExceptRule,
    RaiseDisciplineRule,
    BackendPurityRule,
)


def default_rules() -> List[Rule]:
    """One instance of every registered rule."""
    return [cls() for cls in ALL_RULES]


def rules_by_id(ids: Optional[Iterable[str]]) -> List[Rule]:
    """Instantiate the rules named in ``ids`` (None = all)."""
    if ids is None:
        return default_rules()
    wanted = list(ids)
    by_id = {cls.rule_id: cls for cls in ALL_RULES}
    unknown = [i for i in wanted if i not in by_id]
    if unknown:
        raise LintError(
            f"unknown rule id(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(by_id))})"
        )
    return [by_id[i]() for i in wanted]
