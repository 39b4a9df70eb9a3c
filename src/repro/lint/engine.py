"""Rule infrastructure and the lint driver.

The linter parses each Python file once into an :mod:`ast` tree and
hands the resulting :class:`FileContext` to every rule whose scope
matches the file.  Two rule shapes exist:

* :class:`Rule` — per-file: ``check(ctx)`` yields findings for one file
  at a time (most contracts are local).
* :class:`ProjectRule` — whole-program: ``check_project(ctxs)`` sees
  every parsed file at once, for contracts that span modules (the
  raise-discipline rule discovers the ``ReproError`` family across the
  tree before it judges any ``raise``).

Scoping is by posix path relative to the *lint root* (the directory
containing the ``repro`` package), matched with :func:`fnmatch.fnmatch`
— note fnmatch's ``*`` crosses ``/``, so ``repro/core/*`` covers
``repro/core/service/broker.py`` too.

A finding is excused in place, and only there, by a trailing
``# lint: ignore[RULE-ID, ...]`` comment on its line that names its
rule; the comment line above the statement says *why*
(docs/static_analysis.md, "Inline suppressions").  Tags are read from
comment tokens only, so tag text inside a string excuses nothing, and a
tag that excuses no finding of a rule that ran is itself a finding of
that rule.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import LintError
from .findings import Finding, LintReport

__all__ = [
    "FileContext",
    "ProjectRule",
    "Rule",
    "lint_paths",
]

#: The suppression tag; it must name the rules it excuses.
_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore\[(?P<rules>[A-Z0-9\-, ]+)\]")


@dataclass
class FileContext:
    """One parsed source file, shared by every rule that checks it."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: Line -> the rule ids its ``lint: ignore[...]`` comment names.
    tags: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class for per-file contract rules.

    Subclasses set the class attributes and implement :meth:`check`.
    ``scopes`` is a tuple of fnmatch patterns over root-relative posix
    paths; an empty tuple means every file.
    """

    rule_id: str = "REPRO-XXX000"
    title: str = ""
    #: The contract this rule guards, one sentence (shown in docs/CLI).
    contract: str = ""
    #: Default remediation hint attached to findings.
    hint: str = ""
    scopes: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.scopes:
            return True
        return any(fnmatch(relpath, pattern) for pattern in self.scopes)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                hint: Optional[str] = None) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=ctx.relpath, line=lineno, col=col + 1, rule=self.rule_id,
            message=message, hint=self.hint if hint is None else hint,
            snippet=ctx.snippet(lineno),
        )


class ProjectRule(Rule):
    """A rule that needs every parsed file at once (cross-module)."""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, ctxs: Sequence[FileContext]) -> Iterable[Finding]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# File discovery
# ---------------------------------------------------------------------------


def _package_base(path: Path) -> Path:
    """Directory relpaths are taken from: the parent of the outermost
    package.  ``src/repro/core`` walks up to ``src``; a directory that
    is not itself a package (no ``__init__.py``) is its own base, so a
    test fixture tree ``tmp/repro/core/bad.py`` linted via ``tmp``
    reports ``repro/core/bad.py``."""
    base = path if path.is_dir() else path.parent
    while (base / "__init__.py").exists() and base.parent != base:
        base = base.parent
    return base


def _iter_sources(path: Path) -> Iterable[Path]:
    if path.is_dir():
        yield from sorted(path.rglob("*.py"))
    elif path.suffix == ".py":
        yield path


def _tags(source: str) -> Dict[int, FrozenSet[str]]:
    """The suppression tags of ``source``, read from its comment tokens
    (tag text inside a string is no tag)."""
    tags = {}
    if "ignore[" not in source:   # skip tokenizing a file with no tag
        return tags
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _IGNORE_RE.search(token.string)
        if match is not None:
            tags[token.start[0]] = frozenset(
                r.strip() for r in match.group("rules").split(","))
    return tags


def _load_context(path: Path, base: Path) -> FileContext:
    source = path.read_text()
    relpath = path.relative_to(base).as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise LintError(
            f"{relpath}:{exc.lineno or 0}: cannot parse: {exc.msg}"
        ) from exc
    return FileContext(path=path, relpath=relpath, source=source,
                       tree=tree, lines=source.splitlines(),
                       tags=_tags(source))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def lint_paths(paths: Sequence, rules: Sequence[Rule],
               root: Optional[Path] = None) -> LintReport:
    """Lint every ``.py`` file under ``paths`` with ``rules``.

    ``root`` overrides relpath derivation (useful when linting a copied
    tree); by default each path derives its own base by walking up out
    of the package (:func:`_package_base`).  Findings are sorted by
    location; inline ``lint: ignore[...]`` suppressions are already
    applied, and a tag that excused no finding of a rule in ``rules`` is
    reported under that rule.
    """
    ctxs: List[FileContext] = []
    seen = set()
    for raw in paths:
        path = Path(raw).resolve()
        if not path.exists():
            raise LintError(f"lint path does not exist: {raw}")
        base = Path(root).resolve() if root is not None \
            else _package_base(path)
        for source_path in _iter_sources(path):
            if source_path in seen:
                continue
            seen.add(source_path)
            ctxs.append(_load_context(source_path, base))

    findings: List[Finding] = []
    for ctx in ctxs:
        for rule in rules:
            if isinstance(rule, ProjectRule):
                continue
            if not rule.applies_to(ctx.relpath):
                continue
            findings.extend(rule.check(ctx))
    for rule in rules:
        if isinstance(rule, ProjectRule):
            scoped = [c for c in ctxs if rule.applies_to(c.relpath)]
            findings.extend(rule.check_project(scoped))

    kept = []
    excused = set()
    by_ctx = {ctx.relpath: ctx for ctx in ctxs}
    for finding in findings:
        ctx = by_ctx.get(finding.path)
        if ctx is not None \
                and finding.rule in ctx.tags.get(finding.line, ()):
            excused.add((finding.path, finding.line, finding.rule))
            continue
        kept.append(finding)
    ran = {rule.rule_id for rule in rules}
    for ctx in ctxs:
        for line, tagged in ctx.tags.items():
            kept.extend(Finding(
                path=ctx.relpath, line=line, col=1, rule=rule_id,
                message=f"lint: ignore[{rule_id}] excuses no finding",
                hint="delete the tag: its finding is gone",
                snippet=ctx.snippet(line))
                for rule_id in sorted(tagged & ran)
                if (ctx.relpath, line, rule_id) not in excused)
    kept.sort()
    return LintReport(findings=kept, files_checked=len(ctxs),
                      rules_run=tuple(r.rule_id for r in rules))
