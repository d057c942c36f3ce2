"""Unit tests for the benchmark's statistics, span and result-line helpers.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import math

import pytest

from pbench.common import result_metrics
from pbench.spans import Span, SpanRecorder, covered, self_times
from pbench.stats import (
    StepResult,
    backlog_growing,
    backlog_series,
    max_rate,
    percentile,
    supported_q,
    tail_percentile,
)


class TestPercentile:
    def test_matches_linear_interpolation(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        assert percentile([10], 99) == 10
        assert percentile(range(101), 99) == 99

    def test_empty_and_range_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)


class TestTailRule:
    def test_p99_kept_with_enough_support(self):
        # 1000 samples: 10 lie beyond p99 -> p99 itself is reported.
        assert supported_q(1000) == 99.0
        tail = tail_percentile(range(1000))
        assert tail.q == 99.0 and tail.samples == 1000

    def test_falls_back_to_highest_supported(self):
        # 200 samples: p95 has exactly 10 beyond it.
        assert supported_q(200) == 95.0
        # 150 samples: 100 * (1 - 10/150) = 93.33 -> floored to 93.3.
        q = supported_q(150)
        assert q == 93.3
        assert 150 * (1 - q / 100) >= 10

    def test_never_below_median(self):
        assert supported_q(12) == 50.0
        assert supported_q(1) == 50.0

    def test_failures_dominate_the_tail(self):
        values = [1.0] * 991 + [math.inf] * 9
        assert tail_percentile(values).value == 1.0
        values = [1.0] * 980 + [math.inf] * 20
        assert math.isinf(tail_percentile(values).value)


class TestLadder:
    @staticmethod
    def step(rate, latency, n=300, failures=0, backlog=None):
        latencies = [latency] * (n - failures) + [math.inf] * failures
        return StepResult(rate, latencies, backlog if backlog is not None else [1] * n)

    def test_highest_passing_rate(self):
        steps = [self.step(10, 20), self.step(20, 50), self.step(30, 400)]
        assert max_rate(steps, slo_ms=200) == 20

    def test_failures_disqualify(self):
        steps = [self.step(10, 20), self.step(20, 50, failures=3)]
        assert max_rate(steps, slo_ms=200) == 10

    def test_growing_backlog_disqualifies(self):
        growing = list(range(300))
        steps = [self.step(10, 20), self.step(20, 50, backlog=growing)]
        assert max_rate(steps, slo_ms=200) == 10

    def test_stops_at_first_failing_rate(self):
        steps = [self.step(10, 20), self.step(20, 400), self.step(30, 50)]
        assert max_rate(steps, slo_ms=200) == 10

    def test_none_when_nothing_passes(self):
        assert max_rate([self.step(10, 500)], slo_ms=200) is None

    def test_backlog_growth_threshold(self):
        assert not backlog_growing([2, 3, 2, 3, 2, 3, 2, 3, 2])
        assert not backlog_growing([0, 1])
        assert backlog_growing([0] * 10 + [20] * 10 + [40] * 10)

    def test_backlog_series_counts_unresolved(self):
        due = [0.0, 1.0, 2.0, 3.0]
        resolved = [0.5, 2.5, 3.5, 3.6]
        assert backlog_series(due, resolved) == [1, 1, 2, 2]


class TestSpans:
    def test_covered_merges_overlaps(self):
        assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
        assert covered(0, 10, [(-5, 2), (9, 20)]) == 3
        assert covered(0, 10, []) == 0

    def test_self_time_subtracts_children(self):
        spans = [
            Span(1, "root", 0.0, 10.0, None, 7),
            Span(2, "a", 1.0, 4.0, 1, 7),
            Span(3, "b", 3.0, 6.0, 1, 7),
            Span(4, "a.child", 1.5, 2.0, 2, 7),
        ]
        selfs = self_times(spans)
        assert selfs[1] == pytest.approx(5.0)  # 10 - union(1..6)
        assert selfs[2] == pytest.approx(2.5)
        assert selfs[3] == pytest.approx(3.0)
        assert selfs[4] == pytest.approx(0.5)

    def test_recorder_parents_and_request_ids(self):
        recorder = SpanRecorder()
        with recorder.span("request", request=3):
            with recorder.span("layer"):
                pass
        layer, request = recorder.spans
        assert layer.parent == request.id and request.parent is None
        assert layer.request == request.request == 3
        totals = recorder.totals()
        assert totals["request"]["self_s"] <= totals["request"]["total_s"]



class TestResultLine:
    MANIFEST = {
        "end_to_end": [
            {"name": "setup_s", "unit": "s"},
            {"name": "latency_p50_ms", "unit": "ms"},
        ],
        "per_layer": [
            {"name": "frontend.parse_ms", "unit": "ms"},
            {"name": "graph.num_blocks", "unit": "count"},
        ],
    }

    UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "frontend.parse_ms": "ms",
             "graph.num_blocks": "count", "serve.max_rps": "req/s"}

    def measured(self, values: dict) -> dict:
        return {name: {"value": v, "unit": self.UNITS[name]} for name, v in values.items()}

    def test_every_end_to_end_metric_and_nothing_else(self):
        measured = self.measured({"setup_s": 1.5, "latency_p50_ms": 3.0, "serve.max_rps": 44.0})
        line, rest, missing = result_metrics(self.MANIFEST, False, measured)
        assert list(line) == ["setup_s", "latency_p50_ms"]
        assert list(rest) == ["serve.max_rps"] and missing == []

    def test_unmeasured_end_to_end_metric_is_an_error(self):
        with pytest.raises(ValueError, match="latency_p50_ms"):
            result_metrics(self.MANIFEST, False, self.measured({"setup_s": 1.5}))

    def test_unit_mismatch_is_an_error(self):
        measured = self.measured({"setup_s": 1.5, "latency_p50_ms": 3.0})
        measured["setup_s"]["unit"] = "ms"
        with pytest.raises(ValueError, match="unit"):
            result_metrics(self.MANIFEST, False, measured)

    def test_unreached_layer_reads_zero_and_is_named(self):
        measured = self.measured({"setup_s": 1.5, "frontend.parse_ms": 4.0})
        line, rest, missing = result_metrics(self.MANIFEST, True, measured)
        assert line["frontend.parse_ms"]["value"] == 4.0
        assert line["graph.num_blocks"] == {"value": 0.0, "unit": "count"}
        assert missing == ["graph.num_blocks"] and list(rest) == ["setup_s"]
