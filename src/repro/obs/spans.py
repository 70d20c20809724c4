"""Structured spans: nested, timed, attributed units of solver work.

A :class:`Tracer` produces :class:`Span` objects used as context
managers::

    tracer = Tracer()
    with tracer.span("solve", rng_seed=7) as span:
        with tracer.span("feasibility"):
            ...
        if span.recording:
            span.set(p=12)

Nesting is tracked by the tracer (a plain stack — the solver is
single-threaded per process), so a span's parent is whatever span was
open when it started. Finished spans accumulate as plain dicts on
:attr:`Tracer.finished`, ready for JSONL serialization.

Cross-process stitching
-----------------------
Worker tasks cannot share the parent's tracer object, so the parent
captures a *span context* — the serializable pair
``(trace_id, current_span_id)`` from :meth:`Tracer.context` — and
ships it with the task arguments. The worker builds its own tracer
with :func:`worker_tracer`, which roots every worker-side span under
the parent's current span, and returns ``list(tracer.finished)`` with
its result; the parent adopts those dicts into its own trace. Span ids
embed the producing process id plus a per-tracer random prefix, so ids
are unique across the pool without any coordination.

Disabled-telemetry cost
-----------------------
The default tracer everywhere is :data:`NULL_TRACER`: ``span()``
returns the shared :data:`NULL_SPAN` singleton whose ``__enter__`` /
``__exit__`` / ``set`` are empty methods, and whose ``recording``
attribute is ``False`` so call sites can skip computing expensive
attributes entirely. No timestamps are taken and nothing allocates.

Timestamps are wall-clock (``time.time()``) because spans from
different processes must land on one comparable timeline; the event
log additionally records a monotonic clock for intra-process ordering.
"""

from __future__ import annotations

import os
import time

from . import profiling

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "worker_tracer",
]


class Span:
    """One timed unit of work; use as a context manager.

    Attributes become part of the span's serialized form. Cheap
    attributes can be passed to :meth:`Tracer.span` directly; guard
    expensive ones with :attr:`recording`::

        if span.recording:
            span.set(heterogeneity=state.total_heterogeneity())
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "start",
        "end",
        "attrs",
        "status",
        "pid",
        "verbosity",
        "_tracer",
        "_profile",
    )

    recording = True

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self._tracer = tracer
        self.name = name
        self.verbosity = tracer.verbosity
        self.attrs = dict(attrs)
        self.span_id = ""
        self.parent_id = None
        self.trace_id = tracer.trace_id
        self.start = 0.0
        self.end = None
        self.status = "ok"
        self.pid = os.getpid()
        self._profile = None

    def set(self, **attrs) -> "Span":
        """Attach attributes to this span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        self.parent_id = tracer._current_id()
        tracer._stack.append(self)
        self.start = time.time()
        tracer._started(self)
        self._profile = profiling.begin(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._profile is not None:
            self.attrs.update(profiling.finish(self._profile))
            self._profile = None
        self.end = time.time()
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("exception", exc_type.__name__)
        stack = self._tracer._stack
        if self in stack:  # tolerate exceptions unwinding several spans
            while stack and stack[-1] is not self:
                stack.pop()
            stack.pop()
        self._tracer._finish(self)
        return False

    @property
    def duration(self) -> float:
        """Wall-clock seconds (0.0 while the span is still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def as_dict(self) -> dict:
        """The span's serialized (JSON-ready) form."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "pid": self.pid,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Produces spans and collects their finished forms.

    Parameters
    ----------
    trace_id:
        Identity of the whole run's trace; generated when omitted.
        Worker tracers inherit the parent's so all spans of one solve
        share a single trace.
    root_parent:
        Span id adopted as the parent of this tracer's top-level spans
        (how worker spans attach under the parent's current span).
    on_start / on_finish:
        Optional callbacks receiving each span (start) or its dict
        form (finish) — the event log's hook.
    verbosity:
        Attribute detail level inherited by every span this tracer
        produces: ``2`` (the default) records everything, ``1`` tells
        call sites to skip *expensive* attributes (anything that walks
        the whole partition — see ``repro.fact.growing
        ._set_state_attrs``), ``0`` is the null span's level. Shipped
        through :meth:`context` so worker spans keep the parent's
        level.
    """

    enabled = True

    def __init__(
        self,
        trace_id: str | None = None,
        root_parent: str | None = None,
        on_start=None,
        on_finish=None,
        verbosity: int = 2,
    ):
        self.verbosity = verbosity
        self.trace_id = trace_id or os.urandom(6).hex()
        self._root_parent = root_parent
        # Unique-without-coordination span ids: random per-tracer
        # prefix + sequence number + pid.
        self._prefix = f"{os.getpid():x}-{os.urandom(3).hex()}"
        self._seq = 0
        self._stack: list[Span] = []
        self.finished: list[dict] = []
        self._on_start = on_start
        self._on_finish = on_finish

    # -- span production ----------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        """A new span; enter it with ``with`` to start the clock."""
        return Span(self, name, attrs)

    def _next_id(self) -> str:
        self._seq += 1
        return f"{self._prefix}-{self._seq}"

    def _current_id(self) -> str | None:
        if self._stack:
            return self._stack[-1].span_id
        return self._root_parent

    def _started(self, span: Span) -> None:
        if self._on_start is not None:
            self._on_start(span)

    def _finish(self, span: Span) -> None:
        record = span.as_dict()
        self.finished.append(record)
        if self._on_finish is not None:
            self._on_finish(record)

    # -- cross-process stitching --------------------------------------
    def context(self) -> tuple[str, str | None, int]:
        """Serializable ``(trace_id, current_span_id, verbosity)``
        triple to ship to a worker; feed it to :func:`worker_tracer`
        there."""
        return (self.trace_id, self._current_id(), self.verbosity)

    def adopt(self, span_dicts) -> None:
        """Fold finished span dicts from a worker tracer into this
        trace (callbacks are NOT fired — the caller decides how
        adopted spans reach the event log)."""
        self.finished.extend(span_dicts)

    def open_span_names(self) -> list[str]:
        """Names of spans entered but not yet exited (outermost
        first) — non-empty at close time means a span leak."""
        return [span.name for span in self._stack]


class _NullSpan:
    """Shared no-op span: no clock reads, no allocation, not recording."""

    __slots__ = ()
    recording = False
    verbosity = 0
    name = ""
    attrs: dict = {}

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer: the disabled-telemetry default everywhere."""

    enabled = False
    verbosity = 0
    trace_id = None
    finished: tuple = ()

    def span(self, name: str, **attrs) -> _NullSpan:
        return NULL_SPAN

    def context(self) -> None:
        return None

    def adopt(self, span_dicts) -> None:
        pass

    def open_span_names(self) -> list:
        return []


NULL_TRACER = NullTracer()


def worker_tracer(span_context) -> Tracer | NullTracer:
    """The tracer a worker task should use for *span_context* (a
    :meth:`Tracer.context` triple, or ``None`` for disabled telemetry).
    """
    if span_context is None:
        return NULL_TRACER
    trace_id, parent_id, verbosity = span_context
    return Tracer(
        trace_id=trace_id, root_parent=parent_id, verbosity=verbosity
    )
