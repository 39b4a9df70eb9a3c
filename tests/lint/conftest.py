"""Shared fixtures for the contract-linter tests."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import default_rules, lint_paths


@pytest.fixture
def make_tree(tmp_path):
    """Write a fake package tree: ``make_tree({"repro/core/x.py": src})``
    returns the root directory to lint (relpaths match the real repo's,
    so rule scopes apply unchanged)."""

    def _make(files: dict) -> Path:
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return tmp_path

    return _make


@pytest.fixture
def run_lint():
    """Lint a tree (or explicit paths) and return the finding list."""

    def _run(root, rules=None, rule=None):
        chosen = rules if rules is not None else \
            [rule] if rule is not None else default_rules()
        return lint_paths([root], chosen).findings

    return _run
