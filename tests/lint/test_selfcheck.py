"""The linter's own acceptance gate: the real package lints clean, its
inline suppressions excuse nothing they shouldn't and each says why,
and mutation tests prove the contracts actually bite — un-wiring the
injectable clock or adding a raw checkpoint write makes strict lint
fail, and excusing one breaks the suppression policy."""

from __future__ import annotations

import ast
import shutil
from pathlib import Path
from typing import List, NamedTuple, Tuple

import pytest

import repro
from repro.cli import main
from repro.lint.engine import _load_context

PACKAGE_DIR = Path(repro.__file__).resolve().parent

#: Contracts that hold everywhere: fix the code, never excuse it.
DURABILITY_AND_CLOCK = ("REPRO-DUR001", "REPRO-CLK001")
RNG_AND_BACKEND = ("REPRO-RNG001", "REPRO-RNG002", "REPRO-RNG003",
                   "REPRO-XP001")


class Suppression(NamedTuple):
    """One inline ``lint: ignore[...]`` tag in the package."""

    location: str
    rules: Tuple[str, ...]
    reason: str
    """The comment line directly above the tagged statement, or ``""``."""


def _statement_start(tree: ast.Module, row: int) -> int:
    """First line of the innermost statement spanning ``row`` (``row``
    itself between statements)."""
    return max((node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.stmt)
                and node.lineno <= row <= node.end_lineno), default=row)


def _suppressions(package_dir: Path) -> List[Suppression]:
    """Every suppression tag under ``package_dir``, as the engine's own
    reader finds them (in comment tokens only: the engine's regex and
    docstrings hold the tag text too)."""
    found = []
    for path in sorted(package_dir.rglob("*.py")):
        ctx = _load_context(path, package_dir.parent)
        for row, rules in sorted(ctx.tags.items()):
            above = _statement_start(ctx.tree, row) - 1
            reason = ctx.snippet(above)
            if not reason.startswith("#") or above in ctx.tags:
                reason = ""
            found.append(Suppression(f"{ctx.relpath}:{row}",
                                     tuple(sorted(rules)), reason))
    return found


def _excused(package_dir: Path, rules: Tuple[str, ...]) -> List[str]:
    return [f"{s.location} {rule}" for s in _suppressions(package_dir)
            for rule in s.rules if rule in rules]


def _unexplained(package_dir: Path) -> List[str]:
    return [s.location for s in _suppressions(package_dir)
            if not s.reason]


class TestCommittedBaseline:
    """The committed grants are the package's inline tags: strict lint
    is clean, no tag excuses a contract that holds everywhere, and
    each tag says why."""

    def test_strict_lint_is_clean_on_real_package(self):
        assert main(["lint", "--strict"]) == 0

    def test_baseline_grants_no_durability_or_clock_entries(self):
        assert _excused(PACKAGE_DIR, DURABILITY_AND_CLOCK) == []

    def test_baseline_grants_no_rng_or_backend_entries(self):
        assert _excused(PACKAGE_DIR, RNG_AND_BACKEND) == []

    def test_every_baseline_entry_has_a_reason(self):
        assert _suppressions(PACKAGE_DIR), "no suppression found"
        assert _unexplained(PACKAGE_DIR) == []


@pytest.fixture
def package_copy(tmp_path):
    """A mutable copy of the installed package at ``tmp/repro`` —
    relpaths (and therefore rule scopes) match the real tree exactly."""
    dest = tmp_path / "repro"
    shutil.copytree(PACKAGE_DIR, dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


class TestMutations:
    def test_unmutated_copy_is_clean(self, package_copy):
        assert main(["lint", str(package_copy), "--strict"]) == 0

    def test_removing_clock_injection_fails_lint(self, package_copy,
                                                 capsys):
        """Un-wire the one injectable clock hook the lease book, the
        pool and the broker share: direct ``time.monotonic()`` calls
        must trip REPRO-CLK001."""
        supervisor = package_copy / "core" / "supervisor.py"
        source = supervisor.read_text()
        assert "_monotonic()" in source
        supervisor.write_text(
            source.replace("_monotonic()", "time.monotonic()"))
        assert main(["lint", str(package_copy), "--strict"]) == 1
        assert "REPRO-CLK001" in capsys.readouterr().out

    def test_raw_checkpoint_write_fails_lint(self, package_copy, capsys):
        """A bare ``open(..., "w")`` checkpoint write in core/ must trip
        REPRO-DUR001 — only the fsync-atomic writer is sanctioned."""
        executor = package_copy / "core" / "executor.py"
        executor.write_text(
            executor.read_text() +
            '\n\ndef _unsafe_checkpoint(path, payload):\n'
            '    with open(path, "w") as fh:\n'
            '        fh.write(payload)\n')
        assert main(["lint", str(package_copy), "--strict"]) == 1
        assert "REPRO-DUR001" in capsys.readouterr().out

    def test_global_rng_call_fails_lint(self, package_copy, capsys):
        engine = package_copy / "accel" / "engine.py"
        engine.write_text(
            engine.read_text() +
            "\n\ndef _jitter():\n"
            "    import numpy as np\n"
            "    return np.random.rand()\n")
        assert main(["lint", str(package_copy), "--strict"]) == 1
        assert "REPRO-RNG001" in capsys.readouterr().out

    def test_excused_raw_checkpoint_write_breaks_policy(self,
                                                        package_copy):
        """A tag hides a raw checkpoint write from strict lint, so the
        suppression policy must catch the tag."""
        executor = package_copy / "core" / "executor.py"
        executor.write_text(
            executor.read_text() +
            '\n\ndef _unsafe_checkpoint(path, payload):\n'
            '    # Excused, which the policy forbids.\n'
            '    with open(path, "w") as fh:  # lint: ignore[REPRO-DUR001]\n'
            '        fh.write(payload)\n')
        assert main(["lint", str(package_copy), "--strict"]) == 0
        (excused,) = _excused(package_copy, DURABILITY_AND_CLOCK)
        assert excused.startswith("repro/core/executor.py:")
        assert excused.endswith(" REPRO-DUR001")

    def test_ignore_without_reason_breaks_policy(self, package_copy):
        units = package_copy / "units.py"
        units.write_text(
            units.read_text() +
            "\n\ndef _checked(x):\n"
            "    raise ValueError(x)  # lint: ignore[REPRO-EXC002]\n")
        assert main(["lint", str(package_copy), "--strict"]) == 0
        (unexplained,) = _unexplained(package_copy)
        assert unexplained.startswith("repro/units.py:")
