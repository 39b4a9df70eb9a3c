"""Finding and report types for the contract linter.

A :class:`Finding` is one rule violation at one source location; a
:class:`LintReport` is every finding of one run, after inline
``lint: ignore[RULE-ID]`` suppressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["Finding", "LintReport"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    """Posix path relative to the lint root, e.g. ``repro/cli.py``."""
    line: int
    col: int
    rule: str
    """Rule id, e.g. ``REPRO-DUR001``."""
    message: str
    hint: str = ""
    """One-line remediation, e.g. the sanctioned API to call instead."""
    snippet: str = ""
    """The stripped source line."""

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()
