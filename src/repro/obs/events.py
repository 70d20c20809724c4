"""The run event log: an append-only JSONL record of one solve.

Every record is one JSON object per line carrying at minimum::

    {"schema": 1, "kind": "...", "ts": <wall clock>, "mono": <monotonic>}

``ts`` (``time.time()``) places events on the cross-process timeline
the spans use; ``mono`` (``time.monotonic()``) gives a clock that
cannot step backwards for intra-process ordering. ``schema`` versions
the record layout so future readers can accept old logs.

Kinds emitted by :class:`repro.obs.SolveTelemetry`:

- ``run.start`` / ``run.end`` — trace identity, final status, open
  (leaked) spans, total span count;
- ``span.start`` / ``span`` — a span opening and its finished form;
- ``metrics.snapshot`` — per-phase registry snapshot plus the delta
  against the previous snapshot;
- ``fault.injected`` — a chaos fault applied at a checkpoint;
- ``checkpoint.replay`` / ``checkpoint.write`` — ledger activity;
- ``pool.task_failed`` / ``pool.task_retry`` / ``pool.task_degraded``
  / ``pool.restarted`` / ``pool.task_timeout`` — worker-pool fault
  handling;
- ``run.interrupted`` — budget expiry or cancellation;
- ``certify.start`` / ``certify.done`` — certification passes;
- ``progress`` — compact phase/done/total samples folded by
  :class:`repro.obs.progress.ProgressModel` into percent + ETA;
- ``health`` — a watchdog classification (see
  :class:`repro.obs.health.StallDetector`).

Durability follows the repo's checkpoint discipline: the sink buffers
records and periodically rewrites the whole file through
:func:`repro.runtime.atomic.atomic_write_text` (sibling temp file +
``os.replace``), so a reader — including a crash-time reader — always
sees complete lines, never a torn tail. One solve's log is small
(hundreds of records), so whole-file rewrites stay cheap.

Three situations force an immediate flush rather than waiting for the
periodic window (whose worst case used to drop the tail of the log on
a SIGTERM drain, which the health layer would misread as a stall):

- terminal kinds (``run.end``, ``run.interrupted``, ``health``) — the
  records an operator most needs to see on disk;
- any emit after :meth:`EventLog.close` — late events on shutdown
  paths must not require a second explicit flush;
- a wall-clock deadline (:data:`_FLUSH_SECONDS`) — live readers
  polling the file (``obs tail``, the progress endpoints) see events
  within about a second even when the solve emits slowly.
"""

from __future__ import annotations

import json
import time

from ..runtime.atomic import atomic_write_text

__all__ = ["EventLog", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

# Buffered records between automatic flushes of a file-backed log.
_FLUSH_EVERY = 32

# Maximum seconds a buffered record may wait before a flush.
_FLUSH_SECONDS = 1.0

# Kinds that flush immediately: losing these to a buffered window on
# process exit turns an orderly interrupt into an apparent stall.
_CRITICAL_KINDS = frozenset({"run.end", "run.interrupted", "health"})


class EventLog:
    """Ordered event sink, optionally persisted as JSONL.

    Parameters
    ----------
    path:
        Target JSONL file; ``None`` keeps the log in memory only
        (used by the bench harness for telemetry summaries).
    """

    def __init__(self, path: str | None = None):
        self.path = str(path) if path is not None else None
        self.records: list[dict] = []
        # JSON lines of the records flushed so far, serialized once.
        self._lines: list[str] = []
        self._pending = 0
        self._closed = False
        self._last_flush_mono = time.monotonic()

    def emit(self, kind: str, **payload) -> dict:
        """Append one record; flushes to disk periodically, and
        immediately for terminal kinds, post-close emits, or when the
        oldest buffered record is older than :data:`_FLUSH_SECONDS`."""
        record = {
            "schema": SCHEMA_VERSION,
            "kind": str(kind),
            "ts": time.time(),
            "mono": time.monotonic(),
        }
        record.update(payload)
        self.records.append(record)
        self._pending += 1
        if self.path is not None and (
            record["kind"] in _CRITICAL_KINDS
            or self._closed
            or self._pending >= _FLUSH_EVERY
            or record["mono"] - self._last_flush_mono >= _FLUSH_SECONDS
        ):
            self.flush()
        return record

    def __len__(self) -> int:
        return len(self.records)

    def flush(self) -> None:
        """Atomically rewrite the backing file with every record so
        far (no-op for in-memory logs). Each record is serialized once,
        at its first flush."""
        self._last_flush_mono = time.monotonic()
        if self.path is None or not self._pending:
            return
        lines = self._lines
        lines.extend(
            json.dumps(record, sort_keys=True, default=str)
            for record in self.records[len(lines):]
        )
        atomic_write_text(self.path, "\n".join(lines) + "\n")
        self._pending = 0

    def close(self) -> None:
        """Final flush; further emits are still accepted (idempotent
        close keeps shutdown paths simple) and flush immediately."""
        self.flush()
        self._closed = True
