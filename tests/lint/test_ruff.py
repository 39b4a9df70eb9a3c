"""Style-layer gate: ruff (pycodestyle/pyflakes/isort subset) per the
committed ``[tool.ruff]`` config.

ruff is an *optional* dev dependency — the runtime container does not
ship it, so this test self-skips when the binary is absent.  CI
installs ruff in the lint job and runs both this and ``repro lint
--strict``; the contract linter (tests above) carries the repo-specific
rules either way.
"""

from __future__ import annotations

import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    shutil.which("ruff") is None,
    reason="ruff not installed (optional dev dependency; CI installs it)",
)


def test_pyproject_configures_ruff():
    pyproject = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.ruff]" in pyproject
    assert "[tool.ruff.lint]" in pyproject


def test_ruff_check_is_clean():
    result = subprocess.run(
        ["ruff", "check", "src", "tests"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_ruff_import_sort_is_clean():
    result = subprocess.run(
        ["ruff", "check", "--select", "I", "src", "tests"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
