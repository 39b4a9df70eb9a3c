"""`repro lint` CLI: exit codes, rule selection, and output formats."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

CLEAN = {
    "repro/zoo.py": (
        "def add(a, b):\n"
        "    return a + b\n"
    ),
}

DIRTY = {
    "repro/zoo.py": (
        "def save(path, payload):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(payload)\n"
    ),
}


class TestExitCodes:
    def test_clean_tree_strict_is_zero(self, make_tree):
        root = make_tree(CLEAN)
        assert main(["lint", str(root), "--strict"]) == 0

    def test_findings_without_strict_is_zero(self, make_tree, capsys):
        root = make_tree(DIRTY)
        assert main(["lint", str(root)]) == 0
        assert "REPRO-DUR001" in capsys.readouterr().out

    def test_findings_with_strict_is_one(self, make_tree):
        root = make_tree(DIRTY)
        assert main(["lint", str(root), "--strict"]) == 1

    def test_syntax_error_is_two(self, make_tree, capsys):
        root = make_tree({"repro/zoo.py": "def broken(:\n"})
        assert main(["lint", str(root)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_path_is_two(self, tmp_path):
        assert main(["lint", str(tmp_path / "ghost.py")]) == 2

    def test_unknown_rule_id_is_two(self, make_tree, capsys):
        root = make_tree(CLEAN)
        assert main(["lint", str(root), "--rules", "REPRO-BOGUS"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--no-baseline"], ["--baseline", "lint_baseline.json"],
        ["--write-baseline"],
    ], ids=["no-baseline", "baseline", "write-baseline"])
    def test_baseline_flags_are_usage_errors(self, make_tree, flags):
        """Only an inline, rule-named ignore excuses a finding; the
        committed-baseline flags are gone."""
        root = make_tree(CLEAN)
        with pytest.raises(SystemExit) as exc:
            main(["lint", str(root)] + flags)
        assert exc.value.code == 2


class TestSelection:
    def test_rules_filter_excludes_other_rules(self, make_tree):
        root = make_tree(DIRTY)  # durability violation only
        assert main(["lint", str(root), "--strict",
                     "--rules", "REPRO-CLK001"]) == 0
        assert main(["lint", str(root), "--strict",
                     "--rules", "REPRO-DUR001"]) == 1


class TestJsonFormat:
    def test_json_output_parses(self, make_tree, capsys):
        root = make_tree(DIRTY)
        assert main(["lint", str(root), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        rules = {f["rule"] for f in payload["findings"]}
        assert "REPRO-DUR001" in rules
        finding = payload["findings"][0]
        assert {"rule", "path", "line", "message", "hint"} <= set(finding)
