"""Tests for repro.obs: metrics, tracing, telemetry, instrumentation.

The load-bearing properties: totals are exact however many threads or
forked workers produced them, the disabled path records nothing, and
``observe`` never leaks state past its block.
"""

import io
import json
import math
import threading

import pytest

from repro import obs
from repro.core.budget import SpaceBudget
from repro.datasets.workloads import dblp_queries
from repro.estimators.pl_histogram import PLHistogramEstimator
from repro.experiments.data import get_dataset
from repro.experiments.harness import evaluate, paper_methods
from repro.perf.cache import SummaryCache, use_cache

SCALE = 0.05


@pytest.fixture(scope="module")
def dblp():
    return get_dataset("dblp", scale=SCALE)


class TestCounter:
    def test_increments(self):
        counter = obs.Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            obs.Counter("c").inc(-1)

    def test_concurrent_increments_exact(self):
        counter = obs.Counter("c")

        def work():
            for __ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=work) for __ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 80_000


class TestHistogram:
    def test_totals(self):
        histogram = obs.Histogram("h")
        for v in (1.0, 2.0, 3.0):
            histogram.observe(v)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(6.0)
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == pytest.approx(2.0)

    def test_empty(self):
        histogram = obs.Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(50) == 0.0

    def test_keep_cap_bounds_retention_not_totals(self):
        histogram = obs.Histogram("h", keep=10)
        for i in range(100):
            histogram.observe(float(i))
        assert histogram.count == 100
        assert len(histogram.values) == 10
        assert histogram.values == [float(i) for i in range(10)]

    def test_percentile_nearest_rank(self):
        histogram = obs.Histogram("h")
        for i in range(1, 101):
            histogram.observe(float(i))
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0
        assert histogram.percentile(50) == 51.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            obs.Histogram("h").percentile(101)

    def test_concurrent_observations_exact_totals(self):
        histogram = obs.Histogram("h")

        def work():
            for i in range(5_000):
                histogram.observe(float(i))

        threads = [threading.Thread(target=work) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert histogram.count == 20_000
        assert histogram.min == 0.0
        assert histogram.max == 4999.0


class TestTimerAndRegistry:
    def test_timer_records(self):
        registry = obs.MetricsRegistry()
        with registry.timer("t.seconds") as timer:
            pass
        assert timer.elapsed is not None and timer.elapsed >= 0.0
        assert registry.histogram("t.seconds").count == 1

    def test_get_or_create_is_stable(self):
        registry = obs.MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")
        assert len(registry) == 2

    def test_snapshot_shape(self):
        registry = obs.MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["histograms"]["h"]["values"] == [1.5]
        json.dumps(snapshot)  # JSON-able by contract

    def test_snapshot_empty_histogram_min_max_none(self):
        registry = obs.MetricsRegistry()
        registry.histogram("h")
        data = registry.snapshot()["histograms"]["h"]
        assert data["min"] is None and data["max"] is None

    def test_merge_adds(self):
        a, b = obs.MetricsRegistry(), obs.MetricsRegistry()
        for registry, amount in ((a, 2), (b, 5)):
            registry.counter("c").inc(amount)
            registry.histogram("h").observe(float(amount))
        a.merge(b)
        assert a.counter("c").value == 7
        assert a.histogram("h").count == 2
        assert a.histogram("h").max == 5.0

    def test_merge_accepts_snapshots_and_is_grouping_independent(self):
        parts = []
        for i in range(4):
            registry = obs.MetricsRegistry()
            registry.counter("c").inc(i + 1)
            registry.histogram("h").observe(float(i))
            parts.append(registry.snapshot())
        merged = obs.merge_snapshots(parts)
        pairwise = obs.merge_snapshots(
            [obs.merge_snapshots(parts[:2]), obs.merge_snapshots(parts[2:])]
        )
        assert merged["counters"] == pairwise["counters"] == {"c": 10}
        assert (
            merged["histograms"]["h"]["count"]
            == pairwise["histograms"]["h"]["count"]
            == 4
        )


class TestTracer:
    def test_nested_spans(self):
        tracer = obs.Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent == "outer"
        assert outer.parent is None
        assert outer.attributes == {"kind": "test"}
        names = [s.name for s in tracer.finished]
        assert names == ["inner", "outer"]
        assert all(s.duration >= 0.0 for s in tracer.finished)

    def test_to_record_is_jsonable(self):
        tracer = obs.Tracer()
        with tracer.span("s", n=3):
            pass
        record = tracer.finished[0].to_record()
        json.dumps(record)
        assert record["name"] == "s"

    def test_bounded(self):
        tracer = obs.Tracer(max_spans=5)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.finished) == 5
        assert tracer.finished[-1].name == "s9"


class TestTelemetry:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with obs.TelemetrySink(path) as sink:
            sink.emit({"event": "estimate", "value": 1.5})
            sink.emit({"event": "query", "mre": math.inf})
        assert sink.emitted == 2
        records = obs.read_telemetry(path)
        assert records[0] == {"event": "estimate", "value": 1.5}
        assert records[1]["mre"] == math.inf  # Python-JSON flavor

    def test_memory_sink(self):
        sink, buffer = obs.memory_sink()
        sink.emit({"event": "span", "name": "probe"})
        records = obs.read_telemetry(io.StringIO(buffer.getvalue()))
        assert records == [{"event": "span", "name": "probe"}]


class TestObserve:
    def test_disabled_by_default(self):
        assert not obs.enabled()

    def test_swap_and_restore(self):
        registry = obs.MetricsRegistry()
        outer = obs.get_registry()
        with obs.observe(registry=registry) as installed:
            assert installed is registry
            assert obs.get_registry() is registry
            assert obs.enabled()
        assert not obs.enabled()
        assert obs.get_registry() is outer

    def test_force_disable_inside(self):
        with obs.observe():
            with obs.observe(enabled=False):
                assert not obs.enabled()
            assert obs.enabled()

    def test_phase_timer_noop_when_disabled(self):
        timer = obs.phase_timer("PL", "estimate")
        with timer:
            pass
        assert not isinstance(timer, obs.Timer)


class TestEstimatorInstrumentation:
    def test_estimate_records_metrics(self, figure1_tree):
        a, d = figure1_tree
        with obs.observe() as registry:
            result = PLHistogramEstimator(num_buckets=5).estimate(a, d)
        counters = registry.counters()
        assert counters["estimator.PL.calls"] == 1
        assert counters["estimator.PL.num_buckets"] == 5
        assert registry.histogram("estimator.PL.seconds").count == 1
        assert registry.histogram("phase.PL.summary_build.seconds").count > 0
        assert registry.histogram("phase.PL.estimate.seconds").count == 1
        assert result.value >= 0.0

    def test_estimate_identical_with_and_without(self, figure1_tree):
        a, d = figure1_tree
        bare = PLHistogramEstimator(num_buckets=5).estimate(a, d)
        with obs.observe():
            observed = PLHistogramEstimator(num_buckets=5).estimate(a, d)
        assert observed.value == bare.value
        assert observed.details == bare.details

    def test_disabled_records_nothing(self, figure1_tree):
        a, d = figure1_tree
        registry = obs.get_registry()
        before = len(registry)
        PLHistogramEstimator(num_buckets=5).estimate(a, d)
        assert len(registry) == before

    def test_sink_receives_estimate_events(self, figure1_tree):
        a, d = figure1_tree
        sink, buffer = obs.memory_sink()
        with obs.observe(sink=sink):
            PLHistogramEstimator(num_buckets=5).estimate(a, d)
            obs.emit_summary()
        records = obs.read_telemetry(io.StringIO(buffer.getvalue()))
        events = [r["event"] for r in records]
        assert events == ["estimate", "summary"]
        assert records[0]["estimator"] == "PL"
        assert records[0]["seconds"] >= 0.0
        assert records[1]["metrics"]["counters"]["estimator.PL.calls"] == 1


class TestCacheCounters:
    def test_ambient_cache_hits_and_misses(self, figure1_tree):
        a, d = figure1_tree
        cache = SummaryCache()
        with obs.observe() as registry:
            with use_cache(cache):
                for __ in range(3):
                    PLHistogramEstimator(num_buckets=5).estimate(a, d)
        counters = registry.counters()
        stats = cache.stats()
        assert counters["cache.misses"] == stats["misses"] > 0
        assert counters["cache.hits"] == stats["hits"] > 0

    def test_evictions_counted(self):
        cache = SummaryCache(maxsize=1)
        with obs.observe() as registry:
            for key, value in (("k1", "a"), ("k2", "b")):
                for __ in range(2):  # stored on its second miss
                    cache.get_or_build(key, lambda: value)
        assert registry.counters()["cache.evictions"] == 1
        assert cache.stats()["evictions"] == 1

    def test_nbytes_tracked(self):
        cache = SummaryCache(maxsize=2)
        for __ in range(2):  # stored on its second miss
            cache.get_or_build("k1", lambda: list(range(100)))
        assert cache.stats()["nbytes"] > 0
        cache.clear()
        assert cache.stats()["nbytes"] == 0


class TestHarnessMerge:
    """The harness records its queries into the ambient registry."""

    def test_query_counter_matches_rows(self, dblp):
        queries = dblp_queries()[:4]
        methods = paper_methods(SpaceBudget(200))
        with obs.observe() as registry:
            rows = evaluate(dblp, queries, methods, runs=2, seed=0)
        counters = registry.snapshot()["counters"]
        assert counters["harness.queries"] == len(rows)

    def test_query_events_streamed_serial(self, dblp):
        sink, buffer = obs.memory_sink()
        queries = dblp_queries()[:2]
        with obs.observe(sink=sink):
            evaluate(
                dblp, queries, paper_methods(SpaceBudget(200)),
                runs=1, seed=0,
            )
        records = obs.read_telemetry(io.StringIO(buffer.getvalue()))
        query_events = [r for r in records if r["event"] == "query"]
        assert [q["query"] for q in query_events] == [
            q.id for q in queries
        ]


class TestReport:
    def test_render_report_sections(self, figure1_tree):
        a, d = figure1_tree
        sink, buffer = obs.memory_sink()
        with obs.observe(sink=sink):
            PLHistogramEstimator(num_buckets=5).estimate(a, d)
            obs.record_query("Q1", 6, {"PL": 12.5}, {"PL": 5.25})
            obs.emit_summary()
        records = obs.read_telemetry(io.StringIO(buffer.getvalue()))
        report = obs.render_report(records)
        assert "Estimator calls" in report
        assert "PL" in report
        assert "Relative error" in report
        assert "Counters" in report
        assert "Phase timings" in report

    def test_summarize_counts(self):
        records = [
            {"event": "estimate", "estimator": "IM", "seconds": 0.01},
            {"event": "estimate", "estimator": "IM", "seconds": 0.02},
            {"event": "query", "query": "Q", "true_size": 3,
             "errors": {"IM": 1.0}, "estimates": {"IM": 3.0}},
        ]
        summary = obs.summarize_telemetry(records)
        assert len(summary["latencies"]["IM"]) == 2

    def test_render_empty(self):
        assert "no telemetry" in obs.render_report([]).lower()
