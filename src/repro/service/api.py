"""Zero-dependency HTTP API over the durable job store.

Built on :mod:`http.server` (``ThreadingHTTPServer``) so the service
runs anywhere the library does. Every response is JSON except
``/metrics`` (Prometheus text exposition, reusing
:func:`repro.obs.exporters.prometheus_text`).

Endpoints
---------
===========================================  =================================
``POST /jobs``                               submit a job (JSON body =
                                             :class:`~repro.service.jobs.JobSpec`;
                                             ``422`` + preflight report
                                             for provably doomed specs)
``GET /jobs``                                list jobs (``?state=queued`` …)
``GET /jobs/<id>``                           job status (state machine view)
``POST /jobs/<id>/cancel``                   request cancellation
``GET /jobs/<id>/result``                    final result (404 until done)
``GET /jobs/<id>/certificate``               the solution certificate
``GET /jobs/<id>/events``                    live progress from the solve's
                                             event log (``?offset=N`` for
                                             incremental polls)
``GET /jobs/<id>/metrics``                   per-job Prometheus text: the
                                             solve's live metrics snapshot
                                             plus progress/health gauges
``GET /healthz``                             liveness + per-state job counts
``GET /metrics``                             fleet Prometheus text: per-state
                                             gauges, worker/lease/retry/
                                             quarantine counters, lease-age
                                             and queue-wait gauges,
                                             solve/phase-duration histograms
===========================================  =================================

Every error payload is ``{"error": <message>, "code": <identifier>}``
where ``code`` is the stable machine-readable code declared by the
:mod:`repro.exceptions` class that produced it (``"bad-request"`` for
non-library validation errors), so clients match on the field instead
of parsing prose.

The server owns a background *reaper* thread: expired leases are
re-queued on a fixed cadence even when every worker is dead — the
store's liveness guarantee must not depend on worker processes. The
same thread runs the stall watchdog: every sweep classifies each
active job with :class:`repro.obs.health.StallDetector` and journals
the verdict (a ``health`` record, surfaced in job status and firing
the ``service.stalled`` checkpoint on a stall).
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..exceptions import InfeasibleProblemError, JobError, ReproError
from ..obs.exporters import final_metrics_snapshot, prometheus_text
from ..obs.health import HealthState, StallDetector
from ..obs.metrics import MetricsRegistry
from ..obs.progress import ProgressModel
from ..preflight import run_preflight
from .jobs import JobSpec, JobState
from .store import JobStore

__all__ = ["ServiceAPI", "health_sweep", "serve"]

_JOB_ROUTE = re.compile(
    r"^/jobs/(?P<job_id>[A-Za-z0-9_.-]+)"
    r"(?:/(?P<action>cancel|result|certificate|events|metrics))?$"
)

_PROM_CONTENT_TYPE = "text/plain; version=0.0.4"

# HELP catalogue for the fleet exposition (escaped on render).
_FLEET_HELP = {
    "service_jobs": "Jobs per state, from journal replay.",
    "service_workers": "Distinct workers holding an active lease.",
    "service_leases_total": "Leases granted since the journal began.",
    "service_retries_total": "Failure/reap requeues (drain requeues excluded).",
    "service_quarantines_total": "Poison jobs dead-lettered on a repeated fault signature.",
    "service_completions_total": "Jobs finalized COMPLETED.",
    "service_failures_total": "Jobs finalized FAILED.",
    "service_cancellations_total": "Jobs finalized CANCELLED.",
    "service_dead_total": "Jobs dead-lettered.",
    "service_heartbeats_total": "Lease renewals journaled.",
    "service_rejected_submits_total": "Journaled submits replay could not parse (job dropped).",
    "service_stalled_jobs": "Active jobs currently classified stalled.",
    "service_lease_age_seconds": "Oldest active lease's age (now - last renewal).",
    "service_queue_oldest_seconds": "Age of the oldest queued job.",
    "service_solve_seconds": "RUNNING-to-terminal wall clock per job.",
    "service_queue_wait_seconds": "Submit/requeue-to-lease wall clock per lease.",
    "service_phase_seconds": "Solver phase wall clock of completed jobs.",
}

_JOB_HELP = {
    "job_progress_fraction": "Phase-weighted completion in [0, 1].",
    "job_progress_eta_seconds": "Naive proportional ETA (-1 when unknown).",
    "job_elapsed_seconds": "Wall clock since the solve's run.start.",
    "job_events_total": "Events in the solve's event log.",
    "job_state": "1 on the job's current state label.",
    "job_health": "1 on the watchdog's current classification.",
}


def _error(error, **extra) -> dict:
    """JSON error payload carrying the stable machine-readable code.

    Every :class:`~repro.exceptions.ReproError` subclass declares a
    class-level ``code``; non-library errors (``TypeError`` on a
    malformed spec, say) fall back to ``"bad-request"`` so clients can
    always match on the field.
    """
    payload = {
        "error": str(error),
        "code": getattr(error, "code", "bad-request"),
    }
    payload.update(extra)
    return payload


class ServiceAPI:
    """Transport-independent request handling over a :class:`JobStore`.

    Each public method maps to one endpoint and returns
    ``(http_status, payload)`` with a JSON-plain payload, so the
    stdlib handler and the tests share one implementation.
    """

    def __init__(self, store: JobStore):
        self.store = store
        # job_id -> {phase: seconds} of completed jobs; a completed
        # job's event log is immutable, so one read per job suffices.
        self._phase_cache: dict[str, dict[str, float]] = {}

    # -- submit / query -------------------------------------------------
    def submit(self, payload: dict) -> tuple[int, dict]:
        """Validate, preflight-gate and enqueue one job.

        Unless the spec's config disables preflight, the dataset and
        constraints are preflighted *before* the job is journaled: a
        provably unsolvable job is rejected here with ``422`` and the
        full :class:`~repro.preflight.PreflightReport` (per-constraint
        slack numbers included) instead of occupying a worker just to
        fail deterministically.
        """
        try:
            spec = JobSpec.from_dict(payload)
            rejection = self._preflight_gate(spec)
            if rejection is not None:
                return rejection
            job = self.store.submit(spec)
        except (JobError, ReproError, TypeError, ValueError) as error:
            return 400, _error(error)
        return 201, job.as_dict()

    def _preflight_gate(self, spec: JobSpec) -> tuple[int, dict] | None:
        """422 rejection payload for a doomed spec, or None to admit."""
        if not spec.build_config().preflight:
            return None
        report = run_preflight(
            spec.build_collection(), spec.build_constraints()
        )
        try:
            report.raise_if_failed()
        except InfeasibleProblemError as error:
            return 422, _error(error, preflight=report.as_dict())
        return None

    def list_jobs(self, state: str | None = None) -> tuple[int, dict]:
        try:
            jobs = self.store.jobs(state=state)
        except JobError as error:
            return 400, _error(error)
        return 200, {
            "jobs": [job.as_dict() for job in jobs],
            "counts": self.store.counts(),
        }

    def status(self, job_id: str) -> tuple[int, dict]:
        try:
            return 200, self.store.get(job_id).as_dict()
        except JobError as error:
            return 404, _error(error)

    def cancel(self, job_id: str) -> tuple[int, dict]:
        try:
            return 200, self.store.cancel(job_id).as_dict()
        except JobError as error:
            return 404, _error(error)

    def result(self, job_id: str) -> tuple[int, dict]:
        status, payload = self.status(job_id)
        if status != 200:
            return status, payload
        result = self.store.read_result(job_id)
        if result is None:
            return 404, {
                "error": f"job {job_id!r} has no result yet",
                "state": payload["state"],
            }
        return 200, result

    def certificate(self, job_id: str) -> tuple[int, dict]:
        status, payload = self.status(job_id)
        if status != 200:
            return status, payload
        certificate = self.store.read_certificate(job_id)
        if certificate is None:
            return 404, {
                "error": f"job {job_id!r} has no certificate",
                "state": payload["state"],
            }
        return 200, certificate

    def events(self, job_id: str, offset: int = 0) -> tuple[int, dict]:
        """Live progress: the job's solve events from *offset* on."""
        status, payload = self.status(job_id)
        if status != 200:
            return status, payload
        events = self.store.read_events(job_id)
        offset = max(0, min(int(offset), len(events)))
        return 200, {
            "job_id": job_id,
            "state": payload["state"],
            "events": events[offset:],
            "next_offset": len(events),
        }

    def job_metrics(self, job_id: str) -> tuple[int, dict] | tuple[int, str, str]:
        """Per-job Prometheus text: the solve's live metrics snapshot
        (the last ``metrics.snapshot`` in its event log) merged with
        progress, state and health gauges derived client-visibly from
        the same events."""
        status, payload = self.status(job_id)
        if status != 200:
            return status, payload
        events = self.store.read_events(job_id)
        snapshot = final_metrics_snapshot(events) or {}
        merged = {
            "counters": dict(snapshot.get("counters") or {}),
            "gauges": dict(snapshot.get("gauges") or {}),
            "histograms": dict(snapshot.get("histograms") or {}),
        }
        active = payload["state"] in (JobState.LEASED, JobState.RUNNING)
        progress = ProgressModel().snapshot(
            events, now=self.store.clock() if active else None
        )
        extra = MetricsRegistry()
        extra.gauge("job_progress_fraction").set(progress["fraction"])
        eta = progress["eta_seconds"]
        extra.gauge("job_progress_eta_seconds").set(
            eta if eta is not None else -1.0
        )
        if progress["elapsed_seconds"] is not None:
            extra.gauge("job_elapsed_seconds").set(
                progress["elapsed_seconds"]
            )
        extra.counter("job_events_total").inc(len(events))
        extra.gauge("job_state", state=payload["state"]).set(1.0)
        if payload.get("health"):
            extra.gauge("job_health", health=payload["health"]).set(1.0)
        if progress["phase"]:
            extra.gauge(
                "job_progress_phase", phase=progress["phase"]
            ).set(1.0)
        extra_view = extra.snapshot()
        for kind in ("counters", "gauges", "histograms"):
            merged[kind].update(extra_view.get(kind, {}))
        text = prometheus_text(merged, help_text=_JOB_HELP)
        return 200, text, _PROM_CONTENT_TYPE

    # -- operational ----------------------------------------------------
    def healthz(self) -> tuple[int, dict]:
        return 200, {"ok": True, "counts": self.store.counts()}

    def metrics_text(self) -> str:
        """Fleet metrics in Prometheus text exposition.

        Everything routes through a real :class:`MetricsRegistry`, so
        label values (states, worker ids) are escaped per the text
        format — never interpolated raw into metric keys.
        """
        registry = MetricsRegistry()
        for state, count in sorted(self.store.counts().items()):
            registry.gauge("service_jobs", state=state).set(count)
        stats = self.store.fleet_stats()
        for name in (
            "leases",
            "retries",
            "quarantines",
            "completions",
            "failures",
            "cancellations",
            "dead",
            "heartbeats",
            "rejected_submits",
        ):
            registry.counter(f"service_{name}_total").set_to(stats[name])
        now = self.store.clock()
        workers: set[str] = set()
        lease_age = 0.0
        stalled = 0
        oldest_queued = 0.0
        for job in self.store.jobs():
            if job.state == JobState.QUEUED:
                oldest_queued = max(oldest_queued, now - job.created_at)
            elif job.state in (JobState.LEASED, JobState.RUNNING):
                if job.worker_id:
                    workers.add(job.worker_id)
                lease_age = max(lease_age, now - job.updated_at)
                if job.health == HealthState.STALLED:
                    stalled += 1
        registry.gauge("service_workers").set(len(workers))
        registry.gauge("service_stalled_jobs").set(stalled)
        registry.gauge("service_lease_age_seconds").set(lease_age)
        registry.gauge("service_queue_oldest_seconds").set(oldest_queued)
        for seconds in stats["solve_durations"]:
            registry.histogram("service_solve_seconds").observe(seconds)
        for seconds in stats["queue_waits"]:
            registry.histogram("service_queue_wait_seconds").observe(seconds)
        for phase, seconds in self._completed_phase_seconds():
            registry.histogram(
                "service_phase_seconds", phase=phase
            ).observe(seconds)
        return prometheus_text(registry.snapshot(), help_text=_FLEET_HELP)

    def _completed_phase_seconds(self):
        """``(phase, seconds)`` samples over completed jobs' final
        metric snapshots (one event-log read per job, then cached)."""
        samples: list[tuple[str, float]] = []
        for job in self.store.jobs(state=JobState.COMPLETED):
            phases = self._phase_cache.get(job.job_id)
            if phases is None:
                phases = {}
                snapshot = final_metrics_snapshot(
                    self.store.read_events(job.job_id)
                )
                for key, value in (
                    (snapshot or {}).get("counters") or {}
                ).items():
                    if key.startswith('phase_seconds{phase="'):
                        phases[key[len('phase_seconds{phase="'):-2]] = float(
                            value
                        )
                self._phase_cache[job.job_id] = phases
            samples.extend(phases.items())
        return samples

    # -- dispatch (shared by stdlib handler and tests) ------------------
    def dispatch(
        self, method: str, path: str, query: dict, body: dict | None
    ) -> tuple[int, dict] | tuple[int, str, str]:
        """Route one request; returns ``(status, json_payload)`` or
        ``(status, text, content_type)`` for non-JSON endpoints."""
        if method == "GET" and path == "/healthz":
            return self.healthz()
        if method == "GET" and path == "/metrics":
            return 200, self.metrics_text(), _PROM_CONTENT_TYPE
        if path == "/jobs":
            if method == "POST":
                return self.submit(body or {})
            if method == "GET":
                return self.list_jobs(state=query.get("state"))
            return 405, {"error": f"{method} not allowed on {path}"}
        match = _JOB_ROUTE.match(path)
        if match is None:
            return 404, {"error": f"no route for {path!r}"}
        job_id, action = match.group("job_id"), match.group("action")
        if action == "cancel":
            if method != "POST":
                return 405, {"error": "cancel requires POST"}
            return self.cancel(job_id)
        if method != "GET":
            return 405, {"error": f"{method} not allowed on {path}"}
        if action is None:
            return self.status(job_id)
        if action == "result":
            return self.result(job_id)
        if action == "certificate":
            return self.certificate(job_id)
        if action == "metrics":
            return self.job_metrics(job_id)
        offset = query.get("offset", "0")
        try:
            offset = int(offset)
        except ValueError:
            return 400, {"error": f"offset must be an integer, got {offset!r}"}
        return self.events(job_id, offset=offset)


class _Handler(BaseHTTPRequestHandler):
    """stdlib glue: parse → :meth:`ServiceAPI.dispatch` → JSON."""

    api: ServiceAPI  # set by serve()
    protocol_version = "HTTP/1.1"

    # Quiet by default; the CLI decides what to log.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _respond(self) -> None:
        path, _, query_text = self.path.partition("?")
        query = {}
        for pair in query_text.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                query[key] = value
        body = None
        length = int(self.headers.get("Content-Length") or 0)
        if length:
            try:
                body = json.loads(self.rfile.read(length).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                self._send(400, {"error": f"request body is not JSON: {error}"})
                return
        try:
            outcome = self.api.dispatch(self.command, path, query, body)
        except Exception as error:  # noqa: BLE001 - server must survive
            self._send(500, _error(error, code="internal-error"))
            return
        if len(outcome) == 3:
            status, text, content_type = outcome
            self._send_raw(status, text.encode("utf-8"), content_type)
        else:
            status, payload = outcome
            self._send(status, payload)

    def _send(self, status: int, payload: dict) -> None:
        self._send_raw(
            status,
            (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"),
            "application/json",
        )

    def _send_raw(self, status: int, data: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    do_GET = _respond
    do_POST = _respond


def health_sweep(store: JobStore, detector: StallDetector) -> list[tuple]:
    """One watchdog pass: classify every active job and journal the
    verdicts that changed. Returns ``(job_id, state, reason)`` per
    classified job (tests call this synchronously; the server's reaper
    thread calls it every interval)."""
    verdicts = []
    for job in store.jobs():
        if job.state not in (JobState.LEASED, JobState.RUNNING):
            continue
        state, reason = detector.classify(
            job.as_dict(), store.read_events(job.job_id)
        )
        store.record_health(job.job_id, state, reason)
        verdicts.append((job.job_id, state, reason))
    return verdicts


class _Reaper(threading.Thread):
    """Re-queues expired leases and runs the stall watchdog, on one
    fixed cadence."""

    def __init__(
        self,
        store: JobStore,
        interval_seconds: float,
        detector: StallDetector | None = None,
    ):
        super().__init__(name="lease-reaper", daemon=True)
        self.store = store
        self.interval_seconds = interval_seconds
        self.detector = detector
        self._stop = threading.Event()

    def stop(self) -> None:
        self._stop.set()

    def run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            try:
                self.store.reap_expired()
            except Exception:  # noqa: BLE001 - reaper must survive
                pass
            if self.detector is None:
                continue
            try:
                health_sweep(self.store, self.detector)
            except Exception:  # noqa: BLE001 - watchdog must survive
                pass


def serve(
    store: JobStore,
    host: str = "127.0.0.1",
    port: int = 8008,
    reap_seconds: float = 1.0,
    stall_seconds: float = 10.0,
) -> tuple[ThreadingHTTPServer, _Reaper]:
    """Build the HTTP server + reaper/watchdog thread (not yet
    serving).

    The caller drives ``server.serve_forever()`` (the CLI does, with
    SIGTERM wired to ``shutdown`` for graceful drain) and is
    responsible for ``reaper.stop()`` on the way out. *stall_seconds*
    is the watchdog's silence threshold (``0`` disables the watchdog);
    the sweep cadence is *reap_seconds*, so a dead worker's job is
    reported STALLED within one interval of crossing the threshold.
    """
    api = ServiceAPI(store)
    handler = type("Handler", (_Handler,), {"api": api})
    server = ThreadingHTTPServer((host, port), handler)
    detector = (
        StallDetector(
            stall_after_seconds=stall_seconds, clock=store.clock
        )
        if stall_seconds > 0
        else None
    )
    reaper = _Reaper(store, reap_seconds, detector=detector)
    reaper.start()
    return server, reaper

