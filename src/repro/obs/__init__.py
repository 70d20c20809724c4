"""``repro.obs`` — unified solve telemetry (zero-dependency).

Four pieces, designed to cost nothing when off:

- **structured spans** (:mod:`~repro.obs.spans`): nested, timed,
  attributed units of work — ``solve → construction → attempt →
  pass → grow/enclave/extrema/adjust``, ``tabu → member → search``,
  ``certify``, ``checkpoint.write`` — stitched across worker
  processes via serializable span contexts;
- **metrics registry** (:mod:`~repro.obs.metrics`):
  counters/gauges/histograms with labels, per-phase snapshots and
  deltas; absorbs the solver's ``PerfCounters`` hot-path counters;
- **run event log** (:mod:`~repro.obs.events`): an append-only JSONL
  record of spans, metric snapshots, budget/cancellation,
  fault-injection, pool retry/degradation and certification events,
  written atomically;
- **exporters + profiling** (:mod:`~repro.obs.exporters`,
  :mod:`~repro.obs.profiling`): timeline report, Chrome
  ``trace_event`` JSON, Prometheus text exposition, and per-span
  ``cProfile``/``tracemalloc`` hooks gated by ``REPRO_PROFILE``.

On top of that substrate sits the derived-signal layer:

- **progress/ETA** (:mod:`~repro.obs.progress`): a deterministic
  :class:`ProgressModel` folding ``progress`` events into a
  phase-weighted completion fraction + ETA under one constant set of
  phase weights (:data:`DEFAULT_WEIGHTS`);
- **health** (:mod:`~repro.obs.health`): :class:`StallDetector`
  classifying running jobs HEALTHY / SLOW / STALLED from heartbeats
  and event recency;
- **console** (:mod:`~repro.obs.console`): ``python -m repro obs top``
  / ``obs tail`` — a live fleet table and per-job event follower over
  the service's offset-poll HTTP API.

Entry point: build a :class:`SolveTelemetry` (or set
``FaCTConfig.trace_path`` / ``--trace-output``) and pass it to
:meth:`repro.fact.solver.FaCT.solve`. The default is
:data:`DISABLED` — no-op singletons all the way down.
"""

from .events import SCHEMA_VERSION, EventLog
from .exporters import (
    chrome_trace,
    final_metrics_snapshot,
    prometheus_text,
    read_events,
    render_report,
    span_records,
    validate_events,
)
from .health import HealthState, StallDetector
from .metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
)
from .progress import (
    DEFAULT_WEIGHTS,
    ProgressModel,
    eta_error,
)
from .spans import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer, worker_tracer
from .telemetry import DISABLED, SolveTelemetry, resolve_telemetry

__all__ = [
    "Counter",
    "DEFAULT_WEIGHTS",
    "DISABLED",
    "EventLog",
    "Gauge",
    "HealthState",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "ProgressModel",
    "SCHEMA_VERSION",
    "SolveTelemetry",
    "Span",
    "StallDetector",
    "Tracer",
    "chrome_trace",
    "escape_label_value",
    "eta_error",
    "final_metrics_snapshot",
    "prometheus_text",
    "read_events",
    "render_report",
    "resolve_telemetry",
    "span_records",
    "validate_events",
    "worker_tracer",
]
