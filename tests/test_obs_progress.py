"""The derived-signal layer: progress/ETA folds, the stall watchdog,
health journaling, Prometheus escaping, event-log flush policy and the
operations console (``obs top`` / ``obs tail``).

Everything here is deterministic: the progress fold and the stall
classifier are pure functions of (events, job, now), clocks are
injected, and the console tests drive a real ``serve()`` instance over
loopback exactly the way the CLI does.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.request

import pytest

from repro.obs import (
    SolveTelemetry,
    escape_label_value,
    prometheus_text,
    read_events,
    validate_events,
)
from repro.obs.console import FleetClient, FleetTop, render_top, run_tail, run_top
from repro.obs.events import EventLog
from repro.obs.health import HealthState, StallDetector
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import ProgressModel, eta_error
from repro.service import JobSpec, JobStore, ServiceWorker
from repro.service.api import health_sweep, serve


SPEC = {"dataset": "2k", "scale": 0.05, "config": {"rng_seed": 7}}


def ev(kind: str, ts: float, **payload) -> dict:
    """A synthetic, structurally valid event record."""
    record = {"schema": 1, "kind": kind, "ts": float(ts), "mono": float(ts)}
    record.update(payload)
    return record


# ----------------------------------------------------------------------
# EventLog flush policy
# ----------------------------------------------------------------------
class TestEventLogFlush:
    def test_noncritical_records_stay_buffered(self, tmp_path):
        log = EventLog(str(tmp_path / "log.jsonl"))
        log.emit("span.start", name="solve")
        assert not (tmp_path / "log.jsonl").exists()

    def test_critical_kinds_flush_immediately(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(str(path))
        log.emit("span.start", name="solve")
        for kind in ("run.interrupted", "health", "run.end"):
            log.emit(kind)
            records = read_events(str(path))
            assert records[-1]["kind"] == kind  # tail on disk, no close()

    def test_emits_after_close_flush_immediately(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(str(path))
        log.close()
        log.emit("span", name="late")
        assert read_events(str(path))[-1]["name"] == "late"

    def test_wall_clock_deadline_forces_a_flush(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(str(path))
        log._last_flush_mono -= 10.0  # oldest buffered record is stale
        log.emit("span.start", name="slow")
        assert read_events(str(path))[0]["name"] == "slow"


# ----------------------------------------------------------------------
# Prometheus text escaping
# ----------------------------------------------------------------------
class TestPrometheusEscaping:
    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        assert escape_label_value("plain") == "plain"

    def test_hostile_label_values_stay_one_line(self):
        registry = MetricsRegistry()
        registry.gauge("jobs", label='evil"} 1\ninjected 2').set(3.0)
        text = prometheus_text(registry.snapshot())
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(lines) == 1  # no injected sample line
        assert 'label="evil\\"} 1\\ninjected 2"' in lines[0]

    def test_help_lines_render_escaped(self):
        registry = MetricsRegistry()
        registry.gauge("service_jobs", state="queued").set(1.0)
        text = prometheus_text(
            registry.snapshot(),
            help_text={"service_jobs": "jobs by state\\per fleet\nnow"},
        )
        assert (
            "# HELP repro_service_jobs jobs by state\\\\per fleet\\nnow"
            in text
        )
        assert "# TYPE repro_service_jobs gauge" in text


# ----------------------------------------------------------------------
# ProgressModel fold
# ----------------------------------------------------------------------
class TestProgressModel:
    WEIGHTS = {"feasibility": 0.1, "construction": 0.3, "tabu": 0.6}

    def _events(self):
        return [
            ev("run.start", 0.0),
            ev("progress", 0.5, phase="feasibility", done=1, total=1),
            ev("metrics.snapshot", 0.6, phase="feasibility"),
            ev("progress", 1.0, phase="construction", done=1, total=4),
            ev("progress", 2.0, phase="construction", done=3, total=4),
            ev("metrics.snapshot", 2.5, phase="construction"),
            ev("progress", 3.0, phase="tabu.search", done=64, total=400),
            ev("progress", 5.0, phase="tabu.search", done=256, total=400),
            ev("metrics.snapshot", 6.0, phase="tabu"),
            ev("run.end", 6.5, status="complete"),
        ]

    def test_fraction_is_monotone_over_prefixes(self):
        model = ProgressModel(self.WEIGHTS)
        events = self._events()
        last = -1.0
        for cut in range(len(events) + 1):
            fraction = model.snapshot(events[:cut])["fraction"]
            assert 0.0 <= fraction <= 1.0
            assert fraction >= last
            last = fraction

    def test_phase_markers_complete_earlier_phases(self):
        model = ProgressModel(self.WEIGHTS)
        snap = model.snapshot(self._events()[:6])  # through construction
        assert snap["phases"]["feasibility"] == 1.0
        assert snap["phases"]["construction"] == 1.0
        assert snap["phase"] == "tabu"
        assert snap["fraction"] == pytest.approx(0.4)

    def test_suffixed_phases_roll_up(self):
        model = ProgressModel(self.WEIGHTS)
        snap = model.snapshot(self._events()[:8])
        assert snap["phases"]["tabu"] == pytest.approx(256 / 400)

    def test_run_end_pins_completion(self):
        snap = ProgressModel(self.WEIGHTS).snapshot(self._events())
        assert snap["fraction"] == 1.0
        assert snap["phase"] == "done"
        assert snap["eta_seconds"] == 0.0
        assert snap["status"] == "complete"
        assert snap["progress_events"] == 5

    def test_live_eta_is_proportional(self):
        model = ProgressModel(self.WEIGHTS)
        snap = model.snapshot(self._events()[:6], now=4.0)
        # 40% done after 4s of wall -> 6s left.
        assert snap["elapsed_seconds"] == pytest.approx(4.0)
        assert snap["eta_seconds"] == pytest.approx(6.0)

    def test_empty_log_folds_to_zero(self):
        snap = ProgressModel().snapshot([])
        assert snap["fraction"] == 0.0
        assert snap["phase"] is None
        assert snap["eta_seconds"] is None


class TestEtaError:
    WEIGHTS = {"feasibility": 0.0, "construction": 0.0, "tabu": 1.0}

    def test_perfect_midpoint_prediction_scores_zero(self):
        events = [
            ev("run.start", 0.0),
            ev("progress", 2.0, phase="tabu", done=50, total=100),
            ev("run.end", 4.0, status="complete"),
        ]
        report = eta_error(events, weights=self.WEIGHTS)
        assert report["actual_wall_seconds"] == pytest.approx(4.0)
        assert report["predicted_wall_seconds"] == pytest.approx(4.0)
        assert report["final_error_ratio"] == pytest.approx(0.0)
        assert report["mean_error_ratio"] == pytest.approx(0.0)

    def test_unfinished_or_silent_runs_return_none(self):
        assert eta_error([ev("run.start", 0.0)]) is None
        assert (
            eta_error([ev("run.start", 0.0), ev("run.end", 1.0)]) is None
        )


# ----------------------------------------------------------------------
# Stall watchdog
# ----------------------------------------------------------------------
class TestStallDetector:
    def _detector(self):
        return StallDetector(stall_after_seconds=10.0, clock=lambda: 100.0)

    def test_inactive_states_are_healthy(self):
        detector = self._detector()
        for state in ("queued", "completed", "failed", "dead"):
            verdict, _ = detector.classify({"state": state}, [])
            assert verdict == HealthState.HEALTHY

    def test_lease_expiry_pending(self):
        verdict, reason = self._detector().classify(
            {"state": "running", "updated_at": 99.0, "lease_expires_at": 95.0},
            [ev("progress", 99.0, phase="tabu", done=1, total=2)],
        )
        assert verdict == HealthState.STALLED
        assert reason.startswith("lease-expiry-pending")

    def test_dead_worker(self):
        verdict, reason = self._detector().classify(
            {"state": "running", "updated_at": 80.0, "lease_expires_at": 200.0},
            [ev("progress", 99.0, phase="tabu", done=1, total=2)],
        )
        assert verdict == HealthState.STALLED
        assert reason.startswith("dead-worker")

    def test_no_progress_plateau(self):
        # Heartbeats flow (updated_at fresh) but the event stream died.
        verdict, reason = self._detector().classify(
            {"state": "running", "updated_at": 99.0, "lease_expires_at": 200.0},
            [ev("progress", 80.0, phase="tabu", done=1, total=2)],
        )
        assert verdict == HealthState.STALLED
        assert reason.startswith("no-progress")

    def test_slow_band_between_thresholds(self):
        verdict, _ = self._detector().classify(
            {"state": "running", "updated_at": 93.0, "lease_expires_at": 200.0},
            [ev("progress", 93.0, phase="tabu", done=1, total=2)],
        )
        assert verdict == HealthState.SLOW

    def test_fresh_signals_are_healthy(self):
        verdict, _ = self._detector().classify(
            {"state": "running", "updated_at": 99.5, "lease_expires_at": 200.0},
            [ev("progress", 99.5, phase="tabu", done=1, total=2)],
        )
        assert verdict == HealthState.HEALTHY


class TestHealthJournal:
    """record_health / health_sweep: journaled, deduped, replayable."""

    def _active_job(self, store):
        store.submit(JobSpec(**SPEC))
        job = store.claim("w-health")
        return store.start_running(job.job_id, "w-health")

    def test_health_verdicts_fold_and_replay(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job = self._active_job(store)
        store.record_health(job.job_id, "stalled", "dead-worker: test")
        assert store.get(job.job_id).health == "stalled"
        payload = store.get(job.job_id).as_dict()
        assert payload["health"] == "stalled"
        assert payload["health_detail"] == "dead-worker: test"
        # A brand-new store over the same journal folds the same view.
        replayed = JobStore(tmp_path / "store")
        assert replayed.get(job.job_id).health == "stalled"

    def test_unchanged_verdicts_are_not_rejournaled(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job = self._active_job(store)
        for _ in range(3):
            store.record_health(job.job_id, "slow", "quiet")
        journal = (tmp_path / "store" / "journal.jsonl").read_text()
        health_lines = [
            line for line in journal.splitlines()
            if json.loads(line).get("kind") == "health"
        ]
        assert len(health_lines) == 1

    def test_state_transitions_clear_health(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job = self._active_job(store)
        store.record_health(job.job_id, "stalled", "plateau")
        store.complete(job.job_id, "w-health")
        assert store.get(job.job_id).health is None
        # And terminal jobs refuse further verdicts.
        store.record_health(job.job_id, "stalled")
        assert store.get(job.job_id).health is None

    def test_health_records_do_not_mask_heartbeat_age(self, tmp_path):
        store = JobStore(tmp_path / "store")
        job = self._active_job(store)
        before = store.get(job.job_id).updated_at
        store.record_health(job.job_id, "stalled", "dead-worker: test")
        assert store.get(job.job_id).updated_at == before

    def test_sweep_classifies_then_recovers(self, tmp_path):
        now = {"t": 1000.0}
        store = JobStore(
            tmp_path / "store", clock=lambda: now["t"], lease_seconds=300.0
        )
        job = self._active_job(store)
        detector = StallDetector(
            stall_after_seconds=5.0, clock=lambda: now["t"]
        )
        verdicts = health_sweep(store, detector)
        assert [(v[0], v[1]) for v in verdicts] == [
            (job.job_id, HealthState.HEALTHY)
        ]
        assert store.get(job.job_id).health == HealthState.HEALTHY

        now["t"] += 10.0  # silence past the stall threshold
        verdicts = health_sweep(store, detector)
        assert [(v[0], v[1]) for v in verdicts] == [
            (job.job_id, HealthState.STALLED)
        ]
        stalled = store.get(job.job_id)
        assert stalled.health == HealthState.STALLED
        assert "dead-worker" in stalled.health_detail

        store.renew(job.job_id, "w-health")  # heartbeat resumes
        verdicts = health_sweep(store, detector)
        assert [(v[0], v[1]) for v in verdicts] == [
            (job.job_id, HealthState.HEALTHY)
        ]
        assert store.get(job.job_id).health == HealthState.HEALTHY

    def test_fleet_stats_fold_from_the_journal(self, tmp_path):
        store = JobStore(tmp_path / "store")
        store.submit(JobSpec(**SPEC))
        ServiceWorker(store, worker_id="w-fleet").run_once()
        stats = store.fleet_stats()
        assert stats["completions"] == 1
        assert stats["leases"] >= 1
        assert len(stats["solve_durations"]) == 1
        assert stats["solve_durations"][0] >= 0.0
        assert len(stats["queue_waits"]) >= 1
        # Replayed store agrees exactly.
        assert JobStore(tmp_path / "store").fleet_stats() == stats


# ----------------------------------------------------------------------
# Solver integration: progress events in real traces
# ----------------------------------------------------------------------
class TestSolverProgress:
    def test_traced_solve_emits_valid_progress(
        self, tiny_census, tmp_path
    ):
        from repro.core import ConstraintSet
        from repro.data.schema import default_constraints
        from repro.fact import FaCT, FaCTConfig

        trace = tmp_path / "trace.jsonl"
        FaCT(
            FaCTConfig(rng_seed=3, tabu_portfolio=2, trace_path=str(trace))
        ).solve(tiny_census, ConstraintSet(default_constraints()))
        events = read_events(str(trace))
        assert validate_events(events) == []
        progress = [e for e in events if e["kind"] == "progress"]
        assert progress  # phase boundaries at minimum
        phases = {e["phase"].split(".", 1)[0] for e in progress}
        assert phases >= {"feasibility", "construction", "tabu"}
        snap = ProgressModel().snapshot(events)
        assert snap["fraction"] == 1.0
        assert snap["status"] == "complete"

    def test_summary_reports_progress_and_eta_error(
        self, tiny_census
    ):
        from repro.core import ConstraintSet
        from repro.data.schema import default_constraints
        from repro.fact import FaCT, FaCTConfig

        telemetry = SolveTelemetry()
        FaCT(FaCTConfig(rng_seed=3)).solve(
            tiny_census,
            ConstraintSet(default_constraints()),
            telemetry=telemetry,
        )
        summary = telemetry.summary()
        assert summary["progress_events"] > 0
        assert "eta_error" in summary
        report = summary["eta_error"]
        if report is not None:
            assert report["actual_wall_seconds"] > 0

    def test_validator_rejects_malformed_progress_and_health(self):
        base = [
            ev("run.start", 0.0),
            ev("run.end", 1.0, status="complete", open_spans=[]),
        ]
        bad_progress = base[:1] + [
            ev("progress", 0.5, phase="tabu", done=5, total=2)
        ] + base[1:]
        assert any(
            "progress" in problem for problem in validate_events(bad_progress)
        )
        bad_health = base[:1] + [
            ev("health", 0.5, health="zombie")
        ] + base[1:]
        assert any(
            "health" in problem for problem in validate_events(bad_health)
        )


# ----------------------------------------------------------------------
# Operations console
# ----------------------------------------------------------------------
class TestRenderTop:
    def test_table_shape(self):
        rows = [
            {
                "job_id": "j-abc123",
                "state": "running",
                "phase": "tabu",
                "fraction": 0.631,
                "eta_seconds": 95.0,
                "health": "healthy",
                "worker": "serve-w0",
                "attempts": 1,
            }
        ]
        text = render_top(rows)
        header, line = text.splitlines()[:2]
        assert header.startswith("JOB")
        assert "j-abc123" in line and "63.1%" in line
        assert "1.6m" in line and "healthy" in line

    def test_empty_fleet(self):
        assert "(no jobs)" in render_top([])


class TestConsoleOverHTTP:
    @pytest.fixture
    def fleet(self, tmp_path):
        store = JobStore(tmp_path / "store")
        server, reaper = serve(store, port=0, stall_seconds=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        yield store, url
        server.shutdown()
        reaper.stop()
        server.server_close()

    def test_top_once_renders_the_fleet(self, fleet):
        store, url = fleet
        job = store.submit(JobSpec(**SPEC))
        ServiceWorker(store, worker_id="w-top").run_once()
        out = io.StringIO()
        assert run_top(url, once=True, stream=out) == 0
        text = out.getvalue()
        assert job.job_id[:16] in text
        assert "completed" in text
        assert "100.0%" in text  # run.end pins the fold at 1.0

    def test_top_uses_only_the_public_events_api(self, fleet):
        store, url = fleet
        store.submit(JobSpec(**SPEC))
        ServiceWorker(store, worker_id="w-pub").run_once()
        top = FleetTop(FleetClient(url))
        rows = top.rows()
        assert rows and rows[0]["fraction"] == 1.0
        # Second poll is incremental: offsets advanced past the log.
        offsets = {f.offset for f in top._follows.values()}
        assert offsets and min(offsets) > 0
        assert top.rows()[0]["fraction"] == 1.0

    def test_tail_streams_to_terminal_state(self, fleet):
        store, url = fleet
        job = store.submit(JobSpec(**SPEC))
        ServiceWorker(store, worker_id="w-tail").run_once()
        out = io.StringIO()
        assert run_tail(url, job.job_id, stream=out) == 0
        text = out.getvalue()
        assert "progress" in text
        assert "run.end" in text
        assert f"job {job.job_id}: completed" in text

    def test_tail_unknown_job_is_an_error(self, fleet):
        _store, url = fleet
        out = io.StringIO()
        assert run_tail(url, "j-missing", stream=out) == 1
        assert "HTTP 404" in out.getvalue()

    def test_top_unreachable_service_is_an_error(self):
        out = io.StringIO()
        assert run_top("http://127.0.0.1:9", once=True, stream=out) == 1
        assert "cannot reach" in out.getvalue()

    def test_job_metrics_endpoint_over_http(self, fleet):
        store, url = fleet
        job = store.submit(JobSpec(**SPEC))
        ServiceWorker(store, worker_id="w-prom").run_once()
        with urllib.request.urlopen(
            f"{url}/jobs/{job.job_id}/metrics", timeout=30
        ) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        assert "repro_job_progress_fraction 1.0" in text
        assert 'repro_job_state{state="completed"} 1.0' in text
