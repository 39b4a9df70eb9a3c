"""Analysis metrics, report tables, and the DESIGN.md experiment index."""

import pathlib
import re

import pytest

from repro.analysis import (
    fixed_table,
    markdown_table,
    monotone_fraction,
    series_auc,
)
from repro.errors import ConfigError

ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestMetrics:
    def test_monotone_fraction_perfect(self):
        assert monotone_fraction([5, 4, 3, 2]) == 1.0
        assert monotone_fraction([1, 2, 3], decreasing=False) == 1.0

    def test_monotone_fraction_with_noise(self):
        assert monotone_fraction([5, 4, 4.1, 3]) == pytest.approx(2 / 3)

    def test_monotone_trivial_series(self):
        assert monotone_fraction([1.0]) == 1.0

    def test_series_auc_flat(self):
        assert series_auc([0, 1, 2], [0.9, 0.9, 0.9]) == pytest.approx(0.9)

    def test_series_auc_orders_attacks(self):
        x = [0, 1000, 2000]
        weak = series_auc(x, [0.98, 0.97, 0.96])
        strong = series_auc(x, [0.98, 0.90, 0.80])
        assert strong < weak

    def test_series_auc_validation(self):
        with pytest.raises(ConfigError):
            series_auc([1], [0.5])
        with pytest.raises(ConfigError):
            series_auc([2, 1], [0.5, 0.6])


class TestReports:
    def test_fixed_table_aligned(self):
        table = fixed_table(["layer", "acc"], [["conv2", 0.8934],
                                               ["fc1", 0.98]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_markdown_table_shape(self):
        table = markdown_table(["a", "b"], [[1, 2.5]])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "2.5000" in lines[2]


def _design_rows():
    """(experiment id, bench path) for each row of DESIGN.md's
    experiment tables, in document order."""
    return re.findall(r"^\| (E\d+) \|.*`(benchmarks/\S+\.py)` \|$",
                      (ROOT / "DESIGN.md").read_text(), re.MULTILINE)


class TestRegistry:
    """DESIGN.md's experiment tables are the experiment registry."""

    def test_all_experiments_registered(self):
        assert [exp_id for exp_id, _ in _design_rows()] \
            == [f"E{k}" for k in range(1, 11)]

    def test_every_experiment_names_a_bench(self):
        for exp_id, bench in _design_rows():
            assert (ROOT / bench).is_file(), f"{exp_id} bench missing: {bench}"

    def test_design_doc_lists_every_experiment(self):
        text = (ROOT / "DESIGN.md").read_text()
        for k in range(1, 11):
            assert f"| E{k} |" in text, f"E{k} missing from DESIGN.md"
