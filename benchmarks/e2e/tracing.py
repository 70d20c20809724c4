"""Timing wrappers installed from outside the program, for traced runs.

The traced run replaces a fixed list of public names with wrappers that
time every call. Each wrapper is installed in the namespace where the
caller looks the name up at call time, so the program itself is
unchanged. Two kinds of targets exist:

- phase-level calls (``SPAN``) record one span (name, parent, start,
  end) per call;
- hot methods (``HOT``, called thousands of times per solve) only feed
  the per-(name, parent) aggregate of call count and seconds.

Both kinds feed the aggregate, so a layer's self time is its total
minus the time of the traced calls made directly inside it. A target
whose module or attribute no longer exists is listed in ``untraced``
and its metrics are left out, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

SPAN = "span"
HOT = "hot"

# (key, module, attribute path, kind, result attributes counted)
TARGETS = (
    ("preflight.scan", "repro.fact.solver", "scan_structure", SPAN, ()),
    ("preflight.report", "repro.fact.solver", "build_report", SPAN, ()),
    ("fact.feasibility", "repro.fact.solver", "check_feasibility", SPAN, ()),
    ("fact.construction", "repro.fact.solver", "construct", SPAN, ()),
    ("fact.portfolio", "repro.fact.solver", "improve_portfolio", SPAN, ()),
    ("certify", "repro.fact.solver", "certify_partition", SPAN, ()),
    ("fact.seeding", "repro.fact.construction", "select_seeds", SPAN, ()),
    # Both are imported inside the pool's pass function at call time.
    ("fact.growing", "repro.fact.growing", "grow_regions", SPAN, ()),
    ("fact.adjustment", "repro.fact.adjustment", "adjust_counting", SPAN, ()),
    (
        "fact.tabu",
        "repro.fact.portfolio",
        "tabu_improve",
        SPAN,
        ("iterations", "moves_applied"),
    ),
    ("fact.state.move", "repro.fact.state", "SolutionState.move", HOT, ()),
    (
        "fact.state.from_labels",
        "repro.fact.state",
        "SolutionState.from_labels",
        SPAN,
        (),
    ),
    (
        "core.region.removable_areas",
        "repro.core.region",
        "Region.removable_areas",
        HOT,
        (),
    ),
    (
        "core.arrays.collection_arrays",
        "repro.core.arrays",
        "collection_arrays",
        HOT,
        (),
    ),
    ("data.load_dataset", "repro.data.datasets", "load_dataset", SPAN, ()),
    ("preflight.gate", "repro.service.api", "run_preflight", SPAN, ()),
    (
        "runtime.atomic.append_line",
        "repro.service.store",
        "append_line",
        SPAN,
        (),
    ),
    (
        "runtime.atomic.atomic_write_text",
        "repro.service.store",
        "atomic_write_text",
        SPAN,
        (),
    ),
    ("service.store.submit", "repro.service.store", "JobStore.submit", SPAN, ()),
    (
        "service.store.write_result",
        "repro.service.store",
        "JobStore.write_result",
        SPAN,
        (),
    ),
    (
        "service.store.write_certificate",
        "repro.service.store",
        "JobStore.write_certificate",
        SPAN,
        (),
    ),
    (
        "service.jobspec.build_collection",
        "repro.service.jobs",
        "JobSpec.build_collection",
        SPAN,
        (),
    ),
    ("fact.solve", "repro.fact.solver", "FaCT.solve", SPAN, ()),
    ("obs.events.flush", "repro.obs.events", "EventLog.flush", SPAN, ()),
)

# Calls used to calibrate the per-call cost of a wrapper.
_CALIBRATION_CALLS = 20_000


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) or None when missing.

    The raw attribute comes from the owner's ``__dict__`` for classes,
    so a classmethod is seen as the classmethod object itself.
    """
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attribute = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attribute)
    else:
        raw = getattr(owner, attribute, None)
    if raw is None:
        return None
    return owner, attribute, raw


class Trace:
    """In-memory record of traced calls for one process.

    ``aggregate`` maps ``(name, parent)`` to ``[calls, seconds,
    self_seconds]``; ``spans`` holds ``[name, parent, start, end]`` for
    phase-level calls; ``counters`` sums the counted result attributes
    (``fact.tabu.iterations`` …). Times are ``time.perf_counter``
    seconds. Thread-safe: the service worker renews leases from a
    second thread.
    """

    def __init__(self) -> None:
        self.aggregate: dict[tuple[str, str | None], list[float]] = {}
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.untraced: list[str] = []
        self.wrapper_cost_s = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, name, parent, kind, start, end, child_seconds) -> None:
        seconds = end - start
        with self._lock:
            entry = self.aggregate.setdefault((name, parent), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += seconds
            entry[2] += seconds - child_seconds
            if kind == SPAN:
                self.spans.append([name, parent, start, end])

    def record(self, name: str, start: float, end: float) -> None:
        """Record a call the benchmark timed itself (no wrapper)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += end - start
        self._finish(name, parent, SPAN, start, end, 0.0)

    def wrap(self, name: str, function, kind: str = SPAN, counted=()):
        """A wrapper around *function* recording each call as *name*."""
        trace = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = trace._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                trace._finish(name, parent, kind, start, end, frame[1])
            for attribute in counted:
                key = f"{name}.{attribute}"
                value = getattr(result, attribute, None)
                with trace._lock:
                    if value is not None:
                        trace.counters[key] = trace.counters.get(key, 0) + value
                    elif key not in trace.untraced:
                        trace.untraced.append(key)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self, targets=TARGETS) -> "Trace":
        """Wrap every target that exists; list the others as untraced."""
        for name, module_name, path, kind, counted in targets:
            found = _resolve(module_name, path)
            if found is None:
                self.untraced.append(name)
                continue
            owner, attribute, raw = found
            if isinstance(raw, classmethod):
                # Wrap the function under the descriptor: a wrapped bound
                # method would lose the class binding on later lookups.
                replacement = classmethod(
                    self.wrap(name, raw.__func__, kind, counted)
                )
            else:
                replacement = self.wrap(name, raw, kind, counted)
            setattr(owner, attribute, replacement)
            self._restore.append((owner, attribute, raw))
        self.wrapper_cost_s = self._calibrate()
        return self

    def uninstall(self) -> None:
        """Put every wrapped attribute back (tests share one process)."""
        while self._restore:
            owner, attribute, raw = self._restore.pop()
            setattr(owner, attribute, raw)

    def _calibrate(self) -> float:
        """Seconds one wrapped call adds over a bare call, measured here."""
        probe = Trace()
        wrapped = probe.wrap("calibration", _noop, HOT)
        started = time.perf_counter()
        for _ in range(_CALIBRATION_CALLS):
            _noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(_CALIBRATION_CALLS):
            wrapped()
        traced = time.perf_counter() - started
        return max(traced - bare, 0.0) / _CALIBRATION_CALLS

    # -- export ---------------------------------------------------------
    def as_dict(self) -> dict:
        calls = sum(entry[0] for entry in self.aggregate.values())
        return {
            "aggregate": [
                [name, parent, *entry]
                for (name, parent), entry in sorted(
                    self.aggregate.items(), key=lambda item: str(item[0])
                )
            ],
            "spans": self.spans,
            "counters": self.counters,
            "untraced": self.untraced,
            "overhead_s": calls * self.wrapper_cost_s,
        }


def _noop():
    return None


class TraceView:
    """Merged traces of every process in one run, with the queries the
    per-layer metrics are built from."""

    def __init__(self, traces: list[dict]):
        self.aggregate: dict[tuple[str, str | None], list[float]] = {}
        self.durations: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.untraced: set[str] = set()
        self.overhead_s = 0.0
        for trace in traces:
            for name, parent, calls, seconds, self_seconds in trace["aggregate"]:
                entry = self.aggregate.setdefault((name, parent), [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += self_seconds
            for name, _parent, start, end in trace["spans"]:
                self.durations.setdefault(name, []).append(end - start)
            for key, value in trace["counters"].items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.untraced.update(trace["untraced"])
            self.overhead_s += trace["overhead_s"]

    def calls(self, name: str, parents=None) -> int:
        return sum(
            entry[0]
            for (key, parent), entry in self.aggregate.items()
            if key == name and (parents is None or parents(parent))
        )

    def seconds(self, name: str, parents=None) -> float:
        return sum(
            entry[1]
            for (key, parent), entry in self.aggregate.items()
            if key == name and (parents is None or parents(parent))
        )

    def self_seconds(self, name: str) -> float:
        return sum(
            entry[2]
            for (key, _parent), entry in self.aggregate.items()
            if key == name
        )
