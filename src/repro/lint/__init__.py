"""Contract linter: AST-based static enforcement of the repo's
determinism, clock, durability, exception, and backend-purity
contracts.

The dynamic parity suites (byte-identical parallel/served/cached
campaigns, byte-identical resume, exactly-once merge) prove the
contracts hold *today*; this package makes violating them fail in
seconds at lint time instead of hours into a distributed run.  A
deliberate exception is excused next to its code, with an inline
``# lint: ignore[RULE-ID]`` comment below a comment that says why; a
tag that excuses nothing is itself a finding.  See
docs/static_analysis.md for the rule catalog and the suppression
policy, and ``repro lint --help`` for the CLI.

No dependencies beyond the stdlib ``ast`` module — the linter must stay
importable (and fast) in every environment the CLI runs in.
"""

from __future__ import annotations

from .engine import FileContext, ProjectRule, Rule, lint_paths
from .findings import Finding, LintReport
from .rules import ALL_RULES, default_rules, rules_by_id

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintReport",
    "ProjectRule",
    "Rule",
    "default_rules",
    "lint_paths",
    "rules_by_id",
]
