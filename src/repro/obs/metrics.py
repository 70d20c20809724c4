"""Metrics registry: counters, gauges and histograms with labels.

One :class:`MetricsRegistry` serves one solve (bundled in
:class:`repro.obs.SolveTelemetry`). The solver writes its per-phase
wall-clock straight into it as ``phase_seconds{phase=...}`` counters
and folds the :class:`repro.core.perf.PerfCounters` hot-path counters
in at phase boundaries (:meth:`MetricsRegistry.absorb_perf`).

Instruments are identified by ``(name, sorted labels)``; requesting
the same identity twice returns the same instrument::

    registry.counter("pool_task_failures").inc()
    registry.counter("phase_seconds", phase="tabu").set_to(1.25)
    registry.histogram("pass_seconds").observe(0.8)

:meth:`MetricsRegistry.snapshot` produces a JSON-ready view and
:meth:`MetricsRegistry.delta` the numeric difference against an
earlier snapshot — the per-phase snapshot/delta records in the run
event log. Everything is plain picklable Python.

The null objects (:data:`NULL_METRICS`) make the disabled path free:
every instrument method is a no-op on a shared singleton.
"""

from __future__ import annotations

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "escape_label_value",
]


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set_to(self, value: float) -> None:
        """Set the absolute cumulative value (used when absorbing an
        externally accumulated total, e.g. a ``PerfCounters`` field);
        never moves backwards."""
        value = float(value)
        if value > self.value:
            self.value = value

    def current(self):
        return self.value


class Gauge:
    """Point-in-time value that may move both ways."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def current(self):
        return self.value


class Histogram:
    """Streaming summary (count / sum / min / max) of observations.

    Deliberately bucket-free: the consumers here want totals and
    extremes, and a fixed bucket layout would be wrong for every
    dataset scale at once.
    """

    __slots__ = ("count", "total", "min", "max")
    kind = "histogram"

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def current(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text-format 0.0.4 spec:
    backslash, double-quote and newline become ``\\\\``, ``\\"`` and
    ``\\n``. Applied when rendering keys, so arbitrary strings (worker
    ids, dataset names, error details) are always safe to exposit."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r"\"")
        .replace("\n", r"\n")
    )


def _render_key(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in label_key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create instrument store keyed by name + labels."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, tuple], object] = {}

    def _get(self, factory, name: str, labels: dict):
        key = (str(name), _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory()
            self._instruments[key] = instrument
        elif not isinstance(instrument, factory):
            raise TypeError(
                f"metric {_render_key(*key)!r} already registered as "
                f"{instrument.kind}, not {factory.kind}"
            )
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def __len__(self) -> int:
        return len(self._instruments)

    # -- views ---------------------------------------------------------
    def label_values(self, name: str, label: str) -> dict[str, float]:
        """``{label value: instrument value}`` over every instrument
        named *name* carrying *label* (e.g. ``phase_seconds`` by
        ``phase``)."""
        out: dict[str, float] = {}
        for (metric_name, label_key), instrument in self._instruments.items():
            if metric_name != name:
                continue
            labels = dict(label_key)
            if label in labels:
                out[labels[label]] = instrument.current()
        return out

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready view: ``{kind: {rendered key: value}}``, keys
        sorted for stable serialization."""
        view: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, label_key), instrument in sorted(self._instruments.items()):
            rendered = _render_key(name, label_key)
            view[instrument.kind + "s"][rendered] = instrument.current()
        return view

    def delta(self, previous: dict | None) -> dict[str, dict]:
        """Numeric difference of the current snapshot against an
        earlier :meth:`snapshot` (``None`` diffs against zero). Gauges
        report their current value, not a difference."""
        current = self.snapshot()
        previous = previous or {}
        out: dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        prev_counters = previous.get("counters", {})
        for key, value in current["counters"].items():
            out["counters"][key] = value - prev_counters.get(key, 0.0)
        out["gauges"] = dict(current["gauges"])
        prev_hist = previous.get("histograms", {})
        for key, value in current["histograms"].items():
            before = prev_hist.get(key, {})
            out["histograms"][key] = {
                "count": value["count"] - before.get("count", 0),
                "sum": value["sum"] - before.get("sum", 0.0),
            }
        return out

    # -- PerfCounters absorption --------------------------------------
    def absorb_perf(self, perf) -> None:
        """Fold a :class:`repro.core.perf.PerfCounters` into this
        registry: each counter field becomes ``perf_<field>``.

        Uses set-to (absolute) semantics so repeated absorption of the
        same cumulative struct at successive phase boundaries yields
        monotonic counters, not double counting.
        """
        for field in perf._COUNTER_FIELDS:
            self.counter(f"perf_{field}").set_to(getattr(perf, field))
        self.gauge("perf_oracle_hit_rate").set(perf.oracle_hit_rate)
        self.gauge("perf_delta_fastpath_rate").set(perf.delta_fastpath_rate)


class _NullInstrument:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set_to(self, value: float) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """No-op registry for the disabled-telemetry path."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def label_values(self, name: str, label: str) -> dict:
        return {}

    def snapshot(self) -> dict:
        return {}

    def delta(self, previous) -> dict:
        return {}

    def absorb_perf(self, perf) -> None:
        pass


NULL_METRICS = NullMetrics()
