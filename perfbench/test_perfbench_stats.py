"""Tests of the benchmark's own statistics helpers and metric tables."""

import json
import os

import pytest

from perfbench import stats
from perfbench.common import Op
from perfbench.metrics import END_TO_END, PER_LAYER, transport_gaps

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestPercentileChoice:
    def test_p90_needs_ten_samples_beyond_it(self):
        assert stats.samples_beyond(100, 0.9) == 10
        assert stats.supports(100, 0.9)
        assert not stats.supports(99, 0.9)

    def test_higher_percentiles_need_more_samples(self):
        assert stats.supports(200, 0.95) and not stats.supports(199, 0.95)
        assert stats.supports(1000, 0.99)

    def test_summarize_withholds_unsupported_p90(self):
        few = stats.summarize([float(i) for i in range(99)])
        assert few["n"] == 99 and few["p50"] == 49.0 and few["p90"] is None
        many = stats.summarize([float(i) for i in range(101)])
        assert many["p90"] == pytest.approx(90.0)

    def test_percentile_interpolates(self):
        assert stats.percentile([0.0, 10.0], 0.5) == 5.0
        assert stats.percentile([3.0, 1.0, 2.0], 1.0) == 3.0
        with pytest.raises(ValueError):
            stats.percentile([], 0.5)


class TestOpenLoopTiming:
    def test_stall_is_charged_to_the_requests_behind_it(self):
        # One connection; request A (due 0.0) takes 0.3 s, so B (due
        # 0.1) can only be sent at 0.3 and completes at 0.4.
        assert stats.latency_from_due(0.1, 0.4) == pytest.approx(0.3)
        assert stats.lateness(0.1, 0.3) == pytest.approx(0.2)

    def test_early_send_is_not_negative_lateness(self):
        assert stats.lateness(1.0, 0.999) == 0.0


class TestSelfTime:
    def test_children_overlap_counts_once_and_is_clipped(self):
        spans = [
            {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
            {"id": 2, "parent": 1, "start": 1.0, "end": 3.0},
            {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
            {"id": 4, "parent": 1, "start": 8.0, "end": 12.0},
            {"id": 5, "parent": 3, "start": 2.5, "end": 4.5},
        ]
        own = stats.self_times(spans)
        assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
        assert own[2] == pytest.approx(2.0)
        assert own[3] == pytest.approx(1.0)
        assert own[5] == pytest.approx(2.0)


class TestRatios:
    def test_error_ratio(self):
        assert stats.error_ratio(8, 2) == 0.25
        with pytest.raises(ValueError):
            stats.error_ratio(0, 0)

    def test_failures_count_as_slo_misses(self):
        limits = {"hot": 0.1, "cold": 1.0}
        ops = [("hot", 0.05), ("hot", 0.2), ("cold", 0.5), ("cold", None)]
        assert stats.slo_ok_ratio(ops, limits) == 0.5


def test_transport_gap_matches_handle_inside_the_request_window():
    ops = [Op("table", 0.010, window=(1.0, 1.010, "table")),
           Op("results", 0.020, window=(1.001, 1.021, "results"))]
    handles = [{"route": "results", "start": 1.004, "end": 1.016},
               {"route": "table", "start": 1.002, "end": 1.008}]
    assert transport_gaps(ops, handles) == pytest.approx([0.004, 0.008])


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == [
        "cold-sweep", "warm-store", "service-mix"]
