"""Tests of the benchmark's own pure functions.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import pytest

from metrics import (EXPECTED_LIBRARY, check_arms_cells, check_campaign,
                     check_digest, check_library, check_trigger,
                     covered_length, digest, latency_summary, percentile,
                     quartile_spread, reportable_percentile, self_time_table,
                     self_times)
from spans import Tracer


class TestPercentiles:
    def test_linear_interpolation(self):
        assert percentile([3, 1, 2, 5, 4], 50) == 3
        assert percentile(list(range(1, 12)), 90) == 10
        assert percentile([1.0, 2.0], 50) == 1.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize("n, expected", [
        (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
        (1000, 99.0)])
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert reportable_percentile(n) == expected

    def test_tail_is_capped_at_p90(self):
        summary = latency_summary([float(v) for v in range(5000)], 5000)
        assert summary["tail_p"] == 90.0
        assert summary["n"] == 5000

    def test_tail_follows_the_floor_not_the_count(self):
        values = [float(v) for v in range(150)]
        assert latency_summary(values, 100)["tail_p"] == 90.0
        assert latency_summary(values, 45)["tail_p"] == 75.0
        assert latency_summary(values, 45)["tail"] == percentile(values, 75)

    def test_small_sample_tail_falls_back_to_median(self):
        summary = latency_summary([1.0, 2.0, 3.0, 40.0], 4)
        assert summary["tail_p"] == 50.0
        assert summary["tail"] == summary["p50"] == 2.5

    def test_quartile_spread(self):
        assert quartile_spread([10.0] * 10) == 0.0
        assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == \
            pytest.approx((4.5 - 1.5) / 3.0)


def _span(sid, name, start, end, parent=None, layer=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "layer": layer}


class TestSelfTime:
    def test_union_of_overlapping_children(self):
        assert covered_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
        assert covered_length([], 0, 10) == 0
        assert covered_length([(11, 12)], 0, 10) == 0

    def test_parent_minus_children(self):
        spans = [_span(0, "campaign.run", 0, 10),
                 _span(1, "campaign.cell", 1, 3, parent=0),
                 _span(2, "campaign.cell", 3, 7, parent=0),
                 _span(3, "attack.plan", 1, 2, parent=1)]
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(4.0)
        assert selfs[1] == pytest.approx(1.0)
        assert selfs[3] == pytest.approx(1.0)

    def test_only_named_children_subtracted(self):
        spans = [_span(0, "campaign.run", 0, 10),
                 _span(1, "campaign.clean_baseline", 0, 1, parent=0),
                 _span(2, "campaign.cell", 1, 9, parent=0)]
        selfs = self_times(spans, only_children="campaign.cell")
        assert selfs[0] == pytest.approx(2.0)

    def test_table_by_phase_and_layer(self):
        spans = [_span(0, "campaign.cell", 0, 4, layer="conv1"),
                 _span(1, "engine.inject", 1, 3, parent=0, layer="conv1"),
                 _span(2, "campaign.cell", 4, 5, layer="fc1"),
                 _span(3, "engine.clean_codes", 5, 6)]
        table = self_time_table(spans)
        assert table["campaign.cell"] == {"conv1": 2.0, "fc1": 1.0}
        assert table["engine.inject"] == {"conv1": 2.0}
        assert table["engine.clean_codes"] == {"-": 1.0}


class TestTracer:
    def test_wrap_records_nested_spans_and_restores(self):
        class Layer:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.wrap(Layer, "outer", "layer.outer")
        tracer.wrap(Layer, "inner", "layer.inner",
                    after=lambda rec, a, k, res: rec.update(result=res))
        original = Layer.__dict__["outer"]
        tracer.install()
        tracer.set_group("cell-1", "conv2")
        assert Layer().outer() == 2
        tracer.uninstall()
        assert Layer.__dict__["outer"] is original
        outer, inner = tracer.spans
        assert inner["parent"] == outer["id"] and outer["parent"] is None
        assert inner["result"] == 1
        assert outer["group"] == inner["group"] == "cell-1"
        assert outer["layer"] == "conv2"
        assert outer["start"] < inner["start"] < inner["end"] < outer["end"]

    def test_span_closes_cells_a_hook_left_open(self):
        tracer = Tracer()
        with tracer.span("campaign.run"):
            tracer.begin("campaign.cell")
        assert all(s["end"] is not None for s in tracer.spans)
        assert tracer.spans[1]["parent"] == tracer.spans[0]["id"]


def _outcome(**over):
    base = {"target_layer": "conv2", "n_strikes": 4500,
            "strikes_landed": 4500, "clean_accuracy": 0.99,
            "attacked_accuracy": 0.85, "mean_strike_voltage": 0.95}
    base.update(over)
    return base


def _campaign(outcomes, **over):
    payload = {"complete": True, "clean_accuracy": 0.99,
               "sweeps": [{"target_layer": "conv2", "outcomes": outcomes}]}
    payload.update(over)
    return payload


class TestChecks:
    def test_digest_checked_only_for_reference_keys(self):
        refs = {"fig5b:0": digest(b"bytes")}
        assert check_digest(refs, "fig5b:0", b"bytes") == []
        assert check_digest(refs, "fig5b:0", b"other") != []
        assert check_digest(refs, "fig5b:7", b"anything") == []

    def test_clean_campaign_passes(self):
        assert check_campaign(_campaign([_outcome()]), 1) == []

    @pytest.mark.parametrize("payload", [
        _campaign([_outcome(attacked_accuracy=1.2)]),
        _campaign([_outcome(strikes_landed=4501)]),
        _campaign([_outcome()], complete=False),
        _campaign([_outcome()], clean_accuracy=-0.1),
        _campaign([]),
    ])
    def test_campaign_invariants(self, payload):
        assert check_campaign(payload, 1) != []

    def test_arms_cells(self):
        cell = {"bank_cells": 5500, "n_strikes": 4500, "defense": "recover",
                "clean_accuracy": 1.0, "attacked_accuracy": 0.9,
                "residual_mismatch_rate": 0.1, "strikes_landed": 4500,
                "razor_flags": 64, "replays": 64, "exhausted": 0}
        assert check_arms_cells([cell]) == []
        assert check_arms_cells([{**cell, "defense": "none"}]) != []
        assert check_arms_cells([{**cell, "strikes_landed": 9000}]) != []

    def test_library_shape(self):
        assert check_library(EXPECTED_LIBRARY) == []
        assert check_library(["conv", "pool", "conv", "fc"]) != []
        assert check_library(["conv", "conv", "pool", "fc", "pool"]) != []

    def test_trigger(self):
        assert check_trigger(802, 8150) == []
        assert check_trigger(None, 8150) != []
        assert check_trigger(8150, 8150) != []
