"""Unit tests for the repro.obs building blocks: spans, metrics,
event log, profiling hooks and the disabled-telemetry null objects."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.perf import PerfCounters
from repro.obs import (
    DISABLED,
    EventLog,
    MetricsRegistry,
    NULL_SPAN,
    NULL_TRACER,
    SolveTelemetry,
    Tracer,
    read_events,
    resolve_telemetry,
    worker_tracer,
)
from repro.obs import profiling


class TestSpans:
    def test_nesting_tracks_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # finished in exit order: inner first
        assert [s["name"] for s in tracer.finished] == ["inner", "outer"]

    def test_span_records_timing_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", seed=7) as span:
            span.set(p=3)
        record = tracer.finished[0]
        assert record["attrs"] == {"seed": 7, "p": 3}
        assert record["end"] >= record["start"] > 0
        assert record["status"] == "ok"
        assert record["trace_id"] == tracer.trace_id

    def test_exception_marks_span_as_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        record = tracer.finished[0]
        assert record["status"] == "error"
        assert record["attrs"]["exception"] == "ValueError"

    def test_exception_unwinds_nested_spans(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("deep")
        assert tracer.open_span_names() == []
        assert len(tracer.finished) == 2

    def test_open_span_names_reports_leaks(self):
        tracer = Tracer()
        span = tracer.span("leaky")
        span.__enter__()
        assert tracer.open_span_names() == ["leaky"]
        span.__exit__(None, None, None)
        assert tracer.open_span_names() == []

    def test_span_ids_are_unique(self):
        tracer = Tracer()
        for _ in range(50):
            with tracer.span("s"):
                pass
        ids = [s["span_id"] for s in tracer.finished]
        assert len(set(ids)) == 50


class TestCrossProcessStitching:
    def test_worker_tracer_roots_under_parent_context(self):
        parent = Tracer()
        with parent.span("solve") as root:
            context = parent.context()
            worker = worker_tracer(context)
            with worker.span("pass"):
                pass
            parent.adopt(worker.finished)
        assert worker.trace_id == parent.trace_id
        adopted = [s for s in parent.finished if s["name"] == "pass"]
        assert adopted[0]["parent_id"] == root.span_id

    def test_worker_tracer_none_context_is_null(self):
        assert worker_tracer(None) is NULL_TRACER

    def test_context_outside_any_span_is_rootless(self):
        tracer = Tracer()
        trace_id, parent_id, verbosity = tracer.context()
        assert trace_id == tracer.trace_id
        assert parent_id is None
        assert verbosity == 2

    def test_worker_tracer_inherits_parent_verbosity(self):
        parent = Tracer(verbosity=1)
        worker = worker_tracer(parent.context())
        assert worker.verbosity == 1
        with worker.span("pass") as span:
            assert span.verbosity == 1


class TestMetricsRegistry:
    def test_counter_inc_and_identity(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(2)
        assert registry.counter("hits").current() == 3.0
        assert len(registry) == 1

    def test_counter_set_to_never_moves_backwards(self):
        counter = MetricsRegistry().counter("total")
        counter.set_to(5.0)
        counter.set_to(3.0)
        assert counter.current() == 5.0
        counter.set_to(8.0)
        assert counter.current() == 8.0

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("rate")
        gauge.set(0.8)
        gauge.set(0.2)
        assert gauge.current() == 0.2

    def test_histogram_summary(self):
        hist = MetricsRegistry().histogram("seconds")
        for value in (0.5, 1.5, 1.0):
            hist.observe(value)
        assert hist.current() == {
            "count": 3, "sum": 3.0, "min": 0.5, "max": 1.5,
        }
        assert hist.mean == 1.0

    def test_labels_distinguish_instruments(self):
        registry = MetricsRegistry()
        registry.counter("phase_seconds", phase="tabu").set_to(1.0)
        registry.counter("phase_seconds", phase="grow").set_to(2.0)
        assert registry.label_values("phase_seconds", "phase") == {
            "tabu": 1.0,
            "grow": 2.0,
        }

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_renders_label_keys(self):
        registry = MetricsRegistry()
        registry.counter("phase_seconds", phase="tabu").set_to(1.25)
        registry.gauge("hit_rate").set(0.5)
        registry.histogram("pass_seconds").observe(0.8)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {'phase_seconds{phase="tabu"}': 1.25}
        assert snapshot["gauges"] == {"hit_rate": 0.5}
        assert snapshot["histograms"]["pass_seconds"]["count"] == 1

    def test_delta_against_previous_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("n").inc(3)
        registry.gauge("g").set(1.0)
        registry.histogram("h").observe(2.0)
        before = registry.snapshot()
        registry.counter("n").inc(4)
        registry.gauge("g").set(9.0)
        registry.histogram("h").observe(3.0)
        delta = registry.delta(before)
        assert delta["counters"]["n"] == 4.0
        assert delta["gauges"]["g"] == 9.0  # gauges report current value
        assert delta["histograms"]["h"] == {"count": 1, "sum": 3.0}

    def test_absorb_perf_is_idempotent_on_cumulative_structs(self):
        perf = PerfCounters()
        perf.contiguity_checks = 10
        registry = MetricsRegistry()
        registry.absorb_perf(perf)
        registry.absorb_perf(perf)  # same cumulative struct again
        assert registry.counter("perf_contiguity_checks").current() == 10.0
        perf.contiguity_checks = 12
        registry.absorb_perf(perf)
        assert registry.counter("perf_contiguity_checks").current() == 12.0


class TestEventLog:
    def test_in_memory_emit(self):
        log = EventLog()
        record = log.emit("test.kind", payload=1)
        assert record["kind"] == "test.kind"
        assert record["payload"] == 1
        assert set(record) >= {"schema", "kind", "ts", "mono"}
        assert len(log) == 1

    def test_file_backed_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        log = EventLog(str(path))
        log.emit("a", x=1)
        log.emit("b", y="text")
        log.close()
        events = read_events(str(path))
        assert [e["kind"] for e in events] == ["a", "b"]
        assert events[0]["x"] == 1

    def test_periodic_flush_before_close(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        log = EventLog(str(path))
        for i in range(40):  # crosses the 32-record flush threshold
            log.emit("tick", i=i)
        assert path.exists()
        # every line on disk is complete JSON even before close
        for line in path.read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        log = EventLog(str(path))
        log.emit("only")
        log.close()
        log.close()
        assert len(read_events(str(path))) == 1

    def test_flushes_write_a_fresh_serialization_of_every_record(
        self, tmp_path
    ):
        path = tmp_path / "trace.jsonl"
        log = EventLog(str(path))

        def fresh() -> str:
            lines = [
                json.dumps(record, sort_keys=True, default=str)
                for record in log.records
            ]
            return "\n".join(lines) + "\n"

        for flush in range(4):
            for i in range(flush + 1):
                # A module object serializes through default=str.
                log.emit("tick", flush=flush, i=i, clock=time)
            log.flush()
            assert path.read_text() == fresh()
        log.emit("run.end")  # a terminal kind flushes at once
        assert path.read_text() == fresh()
        log.close()
        assert path.read_text() == fresh()
        assert len(read_events(str(path))) == 11


class TestProfilingHooks:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profiling.begin("solve") is None

    def test_tracemalloc_attrs(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "tracemalloc")
        handle = profiling.begin("solve")
        assert handle is not None
        junk = [bytearray(1024) for _ in range(64)]
        attrs = profiling.finish(handle)
        del junk
        assert "tracemalloc_kb" in attrs
        assert attrs["tracemalloc_peak_kb"] >= 0

    def test_cprofile_attrs(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "cprofile")
        handle = profiling.begin("solve")
        assert handle is not None
        sum(range(1000))
        attrs = profiling.finish(handle)
        assert isinstance(attrs["cprofile_top"], list)
        assert attrs["cprofile_top"]

    def test_span_name_filter(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "tracemalloc:tabu+search")
        assert profiling.begin("solve") is None
        handle = profiling.begin("tabu")
        assert handle is not None
        profiling.finish(handle)

    def test_unknown_modes_are_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "flamegraph, ,")
        assert profiling.begin("solve") is None

    def test_profiled_span_carries_attrs(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "tracemalloc")
        tracer = Tracer()
        with tracer.span("solve"):
            pass
        assert "tracemalloc_kb" in tracer.finished[0]["attrs"]


class TestSolveTelemetry:
    def test_run_start_is_first_event(self):
        telemetry = SolveTelemetry()
        assert telemetry.events.records[0]["kind"] == "run.start"
        assert telemetry.events.records[0]["trace_id"] == (
            telemetry.tracer.trace_id
        )

    def test_spans_land_in_event_log(self):
        telemetry = SolveTelemetry()
        with telemetry.tracer.span("solve"):
            pass
        kinds = [r["kind"] for r in telemetry.events.records]
        assert kinds == ["run.start", "span.start", "span"]

    def test_adopt_spans_emits_paired_events(self):
        telemetry = SolveTelemetry()
        with telemetry.tracer.span("solve"):
            worker = worker_tracer(telemetry.span_context())
            with worker.span("pass"):
                pass
            telemetry.adopt_spans(worker.finished)
        kinds = [r["kind"] for r in telemetry.events.records]
        assert kinds.count("span.start") == 2
        assert kinds.count("span") == 2
        assert len(telemetry.tracer.finished) == 2

    def test_verbosity_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_VERBOSITY", "1")
        assert SolveTelemetry().tracer.verbosity == 1

    def test_verbosity_defaults_and_garbage(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_VERBOSITY", raising=False)
        assert SolveTelemetry().tracer.verbosity == 2
        monkeypatch.setenv("REPRO_TRACE_VERBOSITY", "chatty")
        assert SolveTelemetry().tracer.verbosity == 2

    def test_explicit_verbosity_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_VERBOSITY", "1")
        assert SolveTelemetry(verbosity=2).tracer.verbosity == 2

    def test_snapshot_metrics_records_delta(self):
        telemetry = SolveTelemetry()
        telemetry.metrics.counter("n").inc(2)
        telemetry.snapshot_metrics("construction")
        telemetry.metrics.counter("n").inc(3)
        telemetry.snapshot_metrics("tabu")
        snapshots = [
            r for r in telemetry.events.records
            if r["kind"] == "metrics.snapshot"
        ]
        assert snapshots[0]["delta"]["counters"]["n"] == 2.0
        assert snapshots[1]["delta"]["counters"]["n"] == 3.0

    def test_close_idempotent_and_keeps_first_status(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        telemetry = SolveTelemetry(trace_path=str(path))
        telemetry.close(status="cancelled")
        telemetry.close(status="error")
        ends = [
            r for r in read_events(str(path)) if r["kind"] == "run.end"
        ]
        assert [e["status"] for e in ends] == ["cancelled"]

    def test_summary_shape(self):
        telemetry = SolveTelemetry()
        with telemetry.tracer.span("solve"):
            pass
        summary = telemetry.summary()
        assert summary["total_spans"] == 1
        assert summary["total_events"] == 3
        assert summary["phase_seconds"] == {}

    def test_metrics_dump_prometheus_and_json(self, tmp_path):
        prom = tmp_path / "metrics.prom"
        telemetry = SolveTelemetry(metrics_path=str(prom))
        telemetry.metrics.counter("hits").inc()
        telemetry.close()
        assert "# TYPE repro_hits counter" in prom.read_text()

        as_json = tmp_path / "metrics.json"
        telemetry = SolveTelemetry(metrics_path=str(as_json))
        telemetry.metrics.counter("hits").inc()
        telemetry.close()
        assert json.loads(as_json.read_text())["counters"]["hits"] == 1.0


class TestDisabledTelemetry:
    def test_resolve_defaults_to_disabled(self):
        assert resolve_telemetry(None) is DISABLED
        assert resolve_telemetry(None, None, None) is DISABLED

    def test_resolve_builds_from_paths(self, tmp_path):
        telemetry = resolve_telemetry(None, str(tmp_path / "t.jsonl"), None)
        assert telemetry.enabled
        telemetry.close()

    def test_explicit_bundle_wins(self, tmp_path):
        bundle = SolveTelemetry()
        assert resolve_telemetry(bundle, str(tmp_path / "t.jsonl")) is bundle

    def test_null_objects_are_inert(self):
        span = NULL_TRACER.span("anything", x=1)
        assert span is NULL_SPAN
        assert not span.recording
        with span as entered:
            entered.set(y=2)
        assert span.attrs == {}
        assert NULL_TRACER.context() is None
        assert DISABLED.span_context() is None
        assert DISABLED.snapshot_metrics("phase") == {}
        DISABLED.event("ignored")
        DISABLED.adopt_spans([{"name": "x"}])
        DISABLED.close()
        assert not DISABLED.enabled

    def test_disabled_overhead_smoke(self):
        # The no-op path must stay allocation- and syscall-free enough
        # that 100k span enters cost well under a second even on slow CI.
        started = time.perf_counter()
        for _ in range(100_000):
            with DISABLED.tracer.span("hot", index=0) as span:
                if span.recording:  # never true: attrs not computed
                    raise AssertionError("null span claims to record")
        assert time.perf_counter() - started < 1.0
