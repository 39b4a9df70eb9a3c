"""Baseline machinery: content-addressed keys, count budgets, atomic
persistence, and strict load validation."""

from __future__ import annotations

import json

import pytest

from repro.errors import LintError
from repro.lint import Baseline, default_baseline_path
from repro.lint.findings import Finding


def _finding(rule="REPRO-DUR001", path="repro/core/x.py", line=10,
             snippet='open(p, "w")'):
    return Finding(path=path, line=line, col=1, rule=rule,
                   message="m", hint="h", snippet=snippet)


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        baseline = Baseline.from_findings(
            [_finding(), _finding(line=20), _finding(rule="REPRO-EXC002")],
            reason="test grant",
        )
        target = tmp_path / "baseline.json"
        baseline.save(target)
        loaded = Baseline.load(target)
        assert loaded.entries == baseline.entries

    def test_from_findings_collapses_identical_lines(self):
        baseline = Baseline.from_findings([_finding(), _finding(line=99)])
        assert len(baseline.entries) == 1
        assert baseline.entries[0].count == 2

    def test_save_is_durable_json(self, tmp_path):
        target = tmp_path / "baseline.json"
        Baseline.from_findings([_finding()]).save(target)
        payload = json.loads(target.read_text())
        assert payload["version"] == 1
        assert payload["entries"][0]["rule"] == "REPRO-DUR001"
        # the atomic writer leaves no temp droppings behind
        assert [p.name for p in tmp_path.iterdir()] == ["baseline.json"]


class TestMatching:
    def test_filter_new_covers_baselined_finding(self):
        baseline = Baseline.from_findings([_finding()])
        assert baseline.filter_new([_finding()]) == []

    def test_filter_new_survives_line_drift(self):
        # same (rule, path, stripped line), different line number: the
        # content-addressed key still covers it after code moves around
        baseline = Baseline.from_findings([_finding(line=10)])
        assert baseline.filter_new([_finding(line=482)]) == []

    def test_filter_new_expires_when_line_changes(self):
        baseline = Baseline.from_findings([_finding()])
        drifted = _finding(snippet='open(p, "a")')
        assert baseline.filter_new([drifted]) == [drifted]

    def test_count_budget_limits_identical_lines(self):
        baseline = Baseline.from_findings([_finding()])  # count=1
        live = [_finding(line=10), _finding(line=30)]
        fresh = baseline.filter_new(live)
        assert len(fresh) == 1

    def test_count_budget_of_two_covers_two(self):
        baseline = Baseline.from_findings([_finding(), _finding(line=30)])
        assert baseline.filter_new(
            [_finding(line=10), _finding(line=30)]) == []

    def test_stale_entry_when_violation_gone(self):
        baseline = Baseline.from_findings([_finding()])
        stale = baseline.stale_entries([])
        assert [e.key() for e in stale] == [_finding().key()]

    def test_stale_entry_when_count_shrank(self):
        baseline = Baseline.from_findings([_finding(), _finding(line=30)])
        assert len(baseline.stale_entries([_finding()])) == 1
        assert baseline.stale_entries(
            [_finding(), _finding(line=30)]) == []

    def test_rules_present(self):
        baseline = Baseline.from_findings(
            [_finding(), _finding(rule="REPRO-EXC002")])
        assert baseline.rules_present() == ("REPRO-DUR001", "REPRO-EXC002")


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(LintError, match="cannot read"):
            Baseline.load(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text("not json{")
        with pytest.raises(LintError, match="not JSON"):
            Baseline.load(bad)

    def test_missing_entries_key(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({"version": 1}))
        with pytest.raises(LintError, match="missing 'entries'"):
            Baseline.load(bad)

    def test_version_mismatch(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(LintError, match="version 99"):
            Baseline.load(bad)

    def test_malformed_entry(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text(json.dumps(
            {"version": 1, "entries": [{"rule": "REPRO-DUR001"}]}))
        with pytest.raises(LintError, match="malformed entry"):
            Baseline.load(bad)


class TestDefaultPath:
    def test_finds_committed_baseline_from_package(self):
        found = default_baseline_path()
        assert found.name == "lint_baseline.json"
        assert found.exists()

    def test_walks_up_to_nearest(self, tmp_path):
        (tmp_path / "lint_baseline.json").write_text("{}")
        deep = tmp_path / "a" / "b"
        deep.mkdir(parents=True)
        assert default_baseline_path(deep) == \
            tmp_path / "lint_baseline.json"
