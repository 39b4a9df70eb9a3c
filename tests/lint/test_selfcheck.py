"""The linter's own acceptance gate: the real package lints clean under
the committed baseline, the baseline grants nothing it shouldn't, and
mutation tests prove the contracts actually bite — un-wiring the
injectable clock or adding a raw checkpoint write makes strict lint
fail."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import Baseline, default_baseline_path

PACKAGE_DIR = Path(repro.__file__).resolve().parent


class TestCommittedBaseline:
    def test_strict_lint_is_clean_on_real_package(self):
        assert main(["lint", "--strict"]) == 0

    def test_baseline_grants_no_durability_or_clock_entries(self):
        """The whole point of the PR: durability and clock baselines are
        EMPTY — those contracts hold everywhere, not grandfathered."""
        baseline = Baseline.load(default_baseline_path())
        granted = set(baseline.rules_present())
        assert "REPRO-DUR001" not in granted
        assert "REPRO-CLK001" not in granted

    def test_baseline_grants_no_rng_or_backend_entries(self):
        baseline = Baseline.load(default_baseline_path())
        granted = set(baseline.rules_present())
        assert not granted & {"REPRO-RNG001", "REPRO-RNG002",
                              "REPRO-RNG003", "REPRO-XP001",
                              "REPRO-WIRE001"}

    def test_every_baseline_entry_has_a_reason(self):
        baseline = Baseline.load(default_baseline_path())
        assert baseline.entries, "baseline unexpectedly empty"
        for entry in baseline.entries:
            assert entry.reason.strip(), f"undocumented grant: {entry}"


@pytest.fixture
def package_copy(tmp_path):
    """A mutable copy of the installed package at ``tmp/repro`` —
    relpaths (and therefore scopes and the committed baseline) match the
    real tree exactly."""
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
