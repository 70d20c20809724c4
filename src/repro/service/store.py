"""The durable job store: an append-only journal of state transitions.

Durability model
----------------
One directory holds everything the service must never lose::

    <root>/
      journal.jsonl          # append-only: every state transition
      lock                   # flock'd around every mutation
      jobs/<job_id>/         # per-job artifacts
        spec.json            # human-readable copy of the spec
        checkpoint.json      # SolveLedger file (resume-from on re-lease)
        events.jsonl         # repro.obs event log of the running solve
        result.json          # final summary + labels
        certificate.json     # independent certificate of the result

The journal is the single source of truth. Every record is one JSON
line appended via :func:`repro.runtime.atomic.append_line` (``O_APPEND``
write + file fsync + directory fsync), so a crash at any instant loses
at most a torn final line — which :meth:`JobStore._refresh` detects
and drops, and which the next append repairs by prefixing a newline.
Recovery is journal replay: fold the transitions in order and every
job's current state falls out; no state lives anywhere else.

Multi-process safety: the API server, the reaper and every worker open
the same store. All mutations (and the reads feeding them) run under
an ``fcntl.flock`` on ``<root>/lock`` plus an in-process re-entrant
lock, and replay is *incremental* — each process remembers its byte
offset and folds only the records appended since.

Waking idle workers: every writer appends to the journal, so its size
is the wake signal. :meth:`JobStore.wait_for_change` polls it with one
``stat`` every :data:`_WAKE_TICK_SECONDS` and returns on the first
append from any process; no wake can be lost and no FIFO, socket or
extra file is needed.

Fault injection: the store fires the ``service.*`` checkpoints
(:data:`repro.service.SERVICE_CHECKPOINTS`) before each journal append
and around lease/result activity, so chaos tests can kill the service
at exact points and assert that no job is ever lost or stuck.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid

from ..exceptions import JobError, ReproError
from ..runtime.atomic import append_line, atomic_write_text
from ..runtime.faults import fire_checkpoint
from ..runtime.retry import RetryPolicy
from .jobs import (
    ACTIVE_STATES,
    Job,
    JobSpec,
    JobState,
    TERMINAL_STATES,
    check_transition,
)

try:  # POSIX cross-process lock; single-process fallback elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

__all__ = ["JobStore"]

_JOURNAL = "journal.jsonl"
_LOCKFILE = "lock"
_RECORD_VERSION = 1
# How often an idle wait re-reads the journal size: the worst-case
# pickup delay after an append, against ~200 stat calls a second.
_WAKE_TICK_SECONDS = 0.005


class JobStore:
    """Crash-recoverable multi-process job store over one directory.

    Parameters
    ----------
    root:
        Store directory (created if missing).
    retry_policy:
        Default :class:`repro.runtime.RetryPolicy` for re-leasing
        failed/expired jobs; a job spec may override it.
    lease_seconds:
        Default lease duration granted by :meth:`claim`; a job config's
        ``lease_seconds`` overrides it per job.
    clock:
        Injectable wall clock (tests freeze it). Lease arithmetic uses
        this single clock for every process sharing the store.
    """

    def __init__(
        self,
        root,
        retry_policy: RetryPolicy | None = None,
        lease_seconds: float = 30.0,
        clock=time.time,
    ):
        self.root = os.fspath(root)
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay_seconds=0.5, max_delay_seconds=30.0
        )
        if lease_seconds <= 0:
            raise JobError(
                f"lease_seconds must be positive, got {lease_seconds!r}"
            )
        self.lease_seconds = float(lease_seconds)
        self.clock = clock
        os.makedirs(os.path.join(self.root, "jobs"), exist_ok=True)
        self._journal_path = os.path.join(self.root, _JOURNAL)
        self._lock_path = os.path.join(self.root, _LOCKFILE)
        self._local_lock = threading.RLock()
        self._jobs: dict[str, Job] = {}
        self._offset = 0
        # Journal size at our last read; differs from _offset by a torn
        # tail, which must not count as a change to wait for.
        self._seen_size = 0
        self._seq = 0
        # Fleet counters, folded deterministically from the journal —
        # every process sharing the store derives the same numbers.
        self._fleet = {
            "leases": 0,
            "retries": 0,
            "quarantines": 0,
            "completions": 0,
            "failures": 0,
            "cancellations": 0,
            "dead": 0,
            "heartbeats": 0,
            "rejected_submits": 0,
        }
        self._solve_durations: list[float] = []
        self._queue_waits: list[float] = []

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    class _Locked:
        def __init__(self, store: "JobStore"):
            self.store = store
            self.fd: int | None = None

        def __enter__(self):
            self.store._local_lock.acquire()
            if fcntl is not None:
                self.fd = os.open(
                    self.store._lock_path, os.O_RDWR | os.O_CREAT, 0o644
                )
                fcntl.flock(self.fd, fcntl.LOCK_EX)
            return self

        def __exit__(self, *exc_info):
            if self.fd is not None:
                fcntl.flock(self.fd, fcntl.LOCK_UN)
                os.close(self.fd)
            self.store._local_lock.release()

    def _locked(self) -> "_Locked":
        return JobStore._Locked(self)

    # ------------------------------------------------------------------
    # journal replay
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Fold journal records appended since our last offset.

        Only complete (newline-terminated) lines are consumed; a torn
        tail from a crashed writer is left un-folded — the next append
        repairs it and replay then skips the unparseable line.
        """
        try:
            size = os.path.getsize(self._journal_path)
        except OSError:
            return
        self._seen_size = size
        if size <= self._offset:
            return
        with open(self._journal_path, "rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        end = chunk.rfind(b"\n")
        if end < 0:
            return  # only a torn tail so far
        for raw in chunk[: end + 1].split(b"\n"):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                continue  # repaired torn line from a crashed writer
            if isinstance(record, dict):
                self._fold(record)
        self._offset += end + 1

    def _fold(self, record: dict) -> None:
        kind = record.get("kind")
        job_id = record.get("job")
        if kind == "submit":
            try:
                spec = JobSpec.from_dict(record.get("spec") or {})
            except (ReproError, TypeError, ValueError):
                # A spec this version no longer accepts (say, a config
                # option that was removed): the job cannot be rebuilt,
                # so its later transitions fold into nothing. Count it
                # so the loss shows on the fleet metrics.
                self._fleet["rejected_submits"] += 1
                return
            self._seq += 1
            self._jobs[job_id] = Job(
                job_id=job_id,
                spec=spec,
                state=JobState.QUEUED,
                created_at=float(record.get("ts", 0.0)),
                updated_at=float(record.get("ts", 0.0)),
                not_before=float(record.get("not_before", 0.0)),
                created_seq=self._seq,
            )
            return
        job = self._jobs.get(job_id)
        if job is None:
            return
        if kind == "transition":
            target = record.get("state", job.state)
            ts = float(record.get("ts", job.updated_at))
            if target != job.state:
                self._fold_fleet(job, target, record, ts)
                # A state change invalidates the last watchdog verdict;
                # the next sweep re-classifies.
                job.health = None
                job.health_detail = None
            job.state = target
            job.updated_at = ts
            for name in (
                "worker_id",
                "error",
                "detail",
                "result_status",
                "fault_signature",
            ):
                if name in record:
                    setattr(job, name, record[name])
            if "attempts" in record:
                job.attempts = int(record["attempts"])
            if "lease_expires_at" in record:
                job.lease_expires_at = record["lease_expires_at"]
            if "not_before" in record:
                job.not_before = float(record["not_before"])
            if job.state in TERMINAL_STATES:
                job.lease_expires_at = None
        elif kind == "heartbeat":
            self._fleet["heartbeats"] += 1
            if "lease_expires_at" in record:
                job.lease_expires_at = record["lease_expires_at"]
            job.updated_at = float(record.get("ts", job.updated_at))
        elif kind == "cancel.request":
            job.cancel_requested = True
            job.updated_at = float(record.get("ts", job.updated_at))
        elif kind == "health":
            # Watchdog verdict: surfaced on the job but deliberately
            # NOT folded into updated_at — health records are observer
            # output, not worker liveness.
            job.health = record.get("health")
            job.health_detail = record.get("detail")

    def _fold_fleet(
        self, job: Job, target: str, record: dict, ts: float
    ) -> None:
        """Accumulate fleet counters for one state change (called with
        the job's *previous* state still in place)."""
        if target == JobState.LEASED:
            self._fleet["leases"] += 1
            self._queue_waits.append(
                max(0.0, ts - max(job.created_at, job.not_before))
            )
        elif target == JobState.RUNNING:
            job.running_since = ts
        elif target == JobState.QUEUED:
            # Drain requeues ("requeued on worker drain") are operator
            # intent, not failures; only failure/reap requeues count.
            if not str(record.get("detail", "")).startswith("requeued on"):
                self._fleet["retries"] += 1
        elif target == JobState.COMPLETED:
            self._fleet["completions"] += 1
        elif target == JobState.FAILED:
            self._fleet["failures"] += 1
        elif target == JobState.CANCELLED:
            self._fleet["cancellations"] += 1
        elif target == JobState.DEAD:
            self._fleet["dead"] += 1
            if str(record.get("detail", "")).startswith("quarantined"):
                self._fleet["quarantines"] += 1
        if target in TERMINAL_STATES and job.running_since is not None:
            self._solve_durations.append(max(0.0, ts - job.running_since))
            job.running_since = None

    def _append(self, record: dict) -> None:
        """Durably append one journal record.

        The ``service.journal.append`` checkpoint fires first: a
        ``fail`` fault there simulates dying immediately *before* the
        entry hits the disk — the worst instant, since the in-memory
        decision is then lost and replay must cope.
        """
        fire_checkpoint("service.journal.append")
        record = {"v": _RECORD_VERSION, "ts": self.clock(), **record}
        line = json.dumps(record, sort_keys=True)
        # Repair a torn tail left by a crashed writer so our line stays
        # parseable on its own.
        try:
            with open(self._journal_path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                torn = handle.read(1) != b"\n"
        except OSError:
            torn = False
        append_line(self._journal_path, ("\n" if torn else "") + line)
        self._fold(record)
        self._offset = self._seen_size = os.path.getsize(self._journal_path)

    # ------------------------------------------------------------------
    # waiting
    # ------------------------------------------------------------------
    def wait_for_change(self, timeout: float, stop=None) -> bool:
        """Block until the journal changes or timed work comes due.

        Returns ``True`` as soon as the journal's size differs from
        what this handle last read: any record from any process (a
        submit, a cancel, a requeue) wakes every waiting handle.
        Returns ``False`` when *stop* (a zero-argument callable) turns
        true, when the earliest timed transition the folded state
        knows of comes due (a queued job's retry window ending, a
        lease expiring), or after *timeout* seconds, whichever is
        first. No lock is taken while waiting.
        """
        started = time.monotonic()
        limit = started + max(0.0, timeout)
        now = self.clock()
        due = self._next_due(now)
        if due is not None:
            limit = min(limit, started + (due - now))
        while True:
            try:
                size = os.path.getsize(self._journal_path)
            except OSError:
                size = 0
            if size != self._seen_size:
                return True
            if stop is not None and stop():
                return False
            remaining = limit - time.monotonic()
            if remaining <= 0:
                return False
            time.sleep(min(_WAKE_TICK_SECONDS, remaining))

    def _next_due(self, now: float) -> float | None:
        """The earliest future retry-window end or lease expiry."""
        with self._local_lock:
            due = [
                job.not_before
                if job.state == JobState.QUEUED
                else job.lease_expires_at
                for job in self._jobs.values()
                if job.state in ACTIVE_STATES
            ]
        return min((t for t in due if t is not None and t > now), default=None)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.root, "jobs", job_id)

    def checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "checkpoint.json")

    def events_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "events.jsonl")

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "result.json")

    def certificate_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), "certificate.json")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._locked():
            self._refresh()
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id!r}")
            return job

    def jobs(self, state: str | None = None) -> list[Job]:
        """All jobs in submission order, optionally filtered by state."""
        with self._locked():
            self._refresh()
            items = sorted(
                self._jobs.values(), key=lambda job: job.created_seq
            )
        if state is not None:
            state = JobState.validate(state)
            items = [job for job in items if job.state == state]
        return items

    def counts(self) -> dict[str, int]:
        """Jobs per state (every state present, zeros included)."""
        totals = {state: 0 for state in JobState.ALL}
        for job in self.jobs():
            totals[job.state] += 1
        return totals

    def fleet_stats(self) -> dict:
        """Fleet-level counters + raw duration samples, all derived
        from journal replay (identical in every process)."""
        with self._locked():
            self._refresh()
            stats = dict(self._fleet)
            stats["solve_durations"] = list(self._solve_durations)
            stats["queue_waits"] = list(self._queue_waits)
            return stats

    def policy_for(self, job: Job) -> RetryPolicy:
        return job.spec.retry_policy(self.retry_policy)

    def lease_for(self, job: Job) -> float:
        lease = job.spec.config.get("lease_seconds")
        return float(lease) if lease else self.lease_seconds

    # ------------------------------------------------------------------
    # lifecycle mutations
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec, job_id: str | None = None) -> Job:
        """Queue one job; returns its folded view."""
        if job_id is None:
            job_id = f"j-{uuid.uuid4().hex[:12]}"
        with self._locked():
            self._refresh()
            if job_id in self._jobs:
                raise JobError(f"job id {job_id!r} already exists")
            os.makedirs(self.job_dir(job_id), exist_ok=True)
            atomic_write_text(
                os.path.join(self.job_dir(job_id), "spec.json"),
                json.dumps(spec.as_dict(), indent=1, sort_keys=True) + "\n",
            )
            self._append(
                {"kind": "submit", "job": job_id, "spec": spec.as_dict()}
            )
            return self._jobs[job_id]

    def claim(self, worker_id: str, now: float | None = None) -> Job | None:
        """Lease the next runnable job to *worker_id*, or ``None``.

        Selection is by priority (higher first), ties to submission
        order; jobs still inside a retry backoff window
        (``not_before``) are skipped. Queued jobs with a pending cancel
        request are finalized to CANCELLED instead of dispatched.
        """
        from .queue import select_next

        with self._locked():
            self._refresh()
            now = self.clock() if now is None else now
            queued = [
                job
                for job in self._jobs.values()
                if job.state == JobState.QUEUED
            ]
            for job in queued:
                if job.cancel_requested:
                    self._transition(
                        job, JobState.CANCELLED, detail="cancelled while queued"
                    )
            job = select_next(
                (j for j in queued if not j.cancel_requested), now
            )
            if job is None:
                return None
            fire_checkpoint("service.lease.claim")
            self._transition(
                job,
                JobState.LEASED,
                worker_id=worker_id,
                attempts=job.attempts + 1,
                lease_expires_at=now + self.lease_for(job),
            )
            return job

    def renew(
        self, job_id: str, worker_id: str, now: float | None = None
    ) -> Job:
        """Heartbeat: extend *worker_id*'s lease on *job_id*.

        Raises :class:`repro.exceptions.JobError` when the lease is no
        longer held — the job was reaped, cancelled or re-leased to
        another worker. The caller must stop publishing results for it.
        """
        with self._locked():
            self._refresh()
            job = self._owned(job_id, worker_id)
            fire_checkpoint("service.lease.renew")
            now = self.clock() if now is None else now
            self._append(
                {
                    "kind": "heartbeat",
                    "job": job_id,
                    "worker_id": worker_id,
                    "lease_expires_at": now + self.lease_for(job),
                }
            )
            return job

    def start_running(self, job_id: str, worker_id: str) -> Job:
        with self._locked():
            self._refresh()
            job = self._owned(job_id, worker_id)
            self._transition(job, JobState.RUNNING, worker_id=worker_id)
            return job

    def complete(
        self, job_id: str, worker_id: str, result_status: str = "complete"
    ) -> Job:
        """Finalize a RUNNING job as COMPLETED (result already written)."""
        with self._locked():
            self._refresh()
            job = self._owned(job_id, worker_id)
            fire_checkpoint("service.job.finalize")
            self._transition(
                job, JobState.COMPLETED, result_status=result_status
            )
            return job

    def fail(
        self,
        job_id: str,
        worker_id: str | None,
        error: str,
        retryable: bool = True,
        signature: str | None = None,
    ) -> Job:
        """Record a failed attempt; re-queue, dead-letter or fail hard.

        Non-retryable failures (infeasible problem, malformed spec,
        certification rejection — deterministic, so retrying cannot
        help) go straight to FAILED. Retryable ones follow the job's
        :class:`repro.runtime.RetryPolicy`: QUEUED with a backoff
        window while attempts remain, DEAD once exhausted.

        ``signature`` is the worker's normalized fault signature
        (exception type plus digit-masked message). When a retryable
        attempt fails with the *same* signature as the previous
        attempt, the job is a poison job — it crashes the same way
        every time, so burning the remaining retry budget (and worker
        time) on it is pure waste. The store short-circuits: the
        ``service.quarantine`` checkpoint fires, then the job goes
        straight to DEAD with the signature recorded in the journal
        transition for post-mortem matching.
        """
        with self._locked():
            self._refresh()
            job = self._owned(job_id, worker_id)
            fire_checkpoint("service.job.finalize")
            if not retryable:
                self._transition(job, JobState.FAILED, error=error)
                return job
            if signature is not None and signature == job.fault_signature:
                fire_checkpoint("service.quarantine")
                self._transition(
                    job,
                    JobState.DEAD,
                    error=error,
                    detail=(
                        "quarantined: repeated fault signature "
                        f"{signature!r} (attempt {job.attempts})"
                    ),
                    fault_signature=signature,
                )
                return job
            verdict, delay = self.policy_for(job).decide(
                job.attempts, key=job_id
            )
            if verdict == "retry":
                self._transition(
                    job,
                    JobState.QUEUED,
                    error=error,
                    detail=f"retrying after failure (attempt {job.attempts})",
                    not_before=self.clock() + delay,
                    lease_expires_at=None,
                    worker_id=None,
                    fault_signature=signature,
                )
            else:
                self._transition(
                    job,
                    JobState.DEAD,
                    error=error,
                    detail=f"attempts exhausted ({job.attempts})",
                    fault_signature=signature,
                )
            return job

    def cancel(self, job_id: str) -> Job:
        """Request cancellation.

        QUEUED jobs cancel immediately. LEASED/RUNNING jobs get a
        sticky cancel request which the owning worker observes at its
        next heartbeat (its budget token is cancelled, the solver
        checkpoints best-so-far and the worker finalizes CANCELLED);
        if the worker is already dead, the reaper finalizes instead.
        Terminal jobs are returned unchanged.
        """
        with self._locked():
            self._refresh()
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id!r}")
            if job.terminal:
                return job
            if job.state == JobState.QUEUED:
                self._transition(
                    job, JobState.CANCELLED, detail="cancelled while queued"
                )
            elif not job.cancel_requested:
                self._append({"kind": "cancel.request", "job": job_id})
            return job

    def finalize_cancel(self, job_id: str, worker_id: str | None) -> Job:
        """Worker-side acknowledgement of a cancel request."""
        with self._locked():
            self._refresh()
            job = self._owned(job_id, worker_id)
            fire_checkpoint("service.job.finalize")
            self._transition(
                job, JobState.CANCELLED, detail="cancelled while running"
            )
            return job

    def requeue_drained(self, job_id: str, worker_id: str) -> Job:
        """Give a job back on graceful drain (SIGTERM).

        The in-flight solve already checkpointed, so the next lease
        resumes instead of restarting; the drained attempt is *not*
        held against the job's retry budget — drain is operator
        intent, not failure.
        """
        with self._locked():
            self._refresh()
            job = self._owned(job_id, worker_id)
            self._transition(
                job,
                JobState.QUEUED,
                detail="requeued on worker drain",
                attempts=max(job.attempts - 1, 0),
                lease_expires_at=None,
                worker_id=None,
                not_before=0.0,
            )
            return job

    def record_health(
        self, job_id: str, health: str, detail: str | None = None
    ) -> Job:
        """Journal a watchdog classification for an active job.

        Unchanged verdicts are not re-journaled (the watchdog sweeps
        every interval; only edges are worth a record). A STALLED
        verdict fires the ``service.stalled`` fault checkpoint first,
        so the chaos harness can arm faults at the exact moment a
        stall is detected.
        """
        with self._locked():
            self._refresh()
            job = self._jobs.get(job_id)
            if job is None:
                raise JobError(f"unknown job {job_id!r}")
            if job.terminal or job.health == health:
                return job
            if health == "stalled":
                fire_checkpoint("service.stalled")
            self._append(
                {
                    "kind": "health",
                    "job": job_id,
                    "health": str(health),
                    "detail": detail,
                }
            )
            return job

    def reap_expired(self, now: float | None = None) -> list[Job]:
        """Re-queue (or dead-letter) every job whose lease expired.

        This is the crash-recovery path: a SIGKILLed worker stops
        heartbeating, its lease runs out, and the job returns to the
        queue — where the next worker resumes it from its checkpoint.
        Jobs with a pending cancel request finalize to CANCELLED
        instead. Returns the reaped jobs.
        """
        with self._locked():
            self._refresh()
            now = self.clock() if now is None else now
            reaped = []
            for job in sorted(
                self._jobs.values(), key=lambda j: j.created_seq
            ):
                if not job.lease_expired(now):
                    continue
                fire_checkpoint("service.lease.reap")
                if job.cancel_requested:
                    self._transition(
                        job,
                        JobState.CANCELLED,
                        detail="cancel requested; lease expired",
                        worker_id=None,
                    )
                    reaped.append(job)
                    continue
                verdict, delay = self.policy_for(job).decide(
                    job.attempts, key=job.job_id
                )
                if verdict == "retry":
                    self._transition(
                        job,
                        JobState.QUEUED,
                        detail=(
                            f"lease expired (attempt {job.attempts}); "
                            "requeued"
                        ),
                        not_before=now + delay,
                        lease_expires_at=None,
                        worker_id=None,
                    )
                else:
                    self._transition(
                        job,
                        JobState.DEAD,
                        detail=(
                            f"lease expired; attempts exhausted "
                            f"({job.attempts})"
                        ),
                        worker_id=None,
                    )
                reaped.append(job)
            return reaped

    # ------------------------------------------------------------------
    # artifacts
    # ------------------------------------------------------------------
    def write_result(self, job_id: str, payload: dict) -> str:
        """Atomically write a job's result document."""
        fire_checkpoint("service.result.write")
        path = self.result_path(job_id)
        atomic_write_text(
            path, json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        return path

    def write_certificate(self, job_id: str, payload: dict) -> str:
        path = self.certificate_path(job_id)
        atomic_write_text(
            path, json.dumps(payload, indent=1, sort_keys=True) + "\n"
        )
        return path

    def read_json(self, path: str) -> dict | None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None

    def read_result(self, job_id: str) -> dict | None:
        return self.read_json(self.result_path(job_id))

    def read_certificate(self, job_id: str) -> dict | None:
        return self.read_json(self.certificate_path(job_id))

    def read_events(self, job_id: str) -> list[dict]:
        """The job's solve event log (empty before the solve starts)."""
        from ..obs.exporters import read_events

        try:
            return read_events(self.events_path(job_id))
        except OSError:
            return []

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _owned(self, job_id: str, worker_id: str | None) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobError(f"unknown job {job_id!r}")
        if worker_id is not None and job.worker_id != worker_id:
            raise JobError(
                f"job {job_id!r} is not leased to worker {worker_id!r} "
                f"(current owner: {job.worker_id!r}, state {job.state!r})"
            )
        if job.state not in ACTIVE_STATES or job.state == JobState.QUEUED:
            raise JobError(
                f"job {job_id!r} holds no active lease (state {job.state!r})"
            )
        return job

    def _transition(self, job: Job, target: str, **fields) -> None:
        check_transition(job.job_id, job.state, target)
        record = {
            "kind": "transition",
            "job": job.job_id,
            "state": target,
            **fields,
        }
        self._append(record)
