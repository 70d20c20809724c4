"""The service worker end to end: solve, retry, cancel, drain, resume.

Everything here runs the real FaCT solver on a small registry dataset
through the real store — only the failure modes are injected.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.fact import FaCT, FaCTConfig
from repro.obs import validate_events
from repro.runtime import FaultInjector, RetryPolicy, inject
from repro.service import JobSpec, JobState, JobStore, ServiceWorker

pytestmark = pytest.mark.chaos

_CONFIG = {"rng_seed": 11, "construction_iterations": 2}


def make_store(tmp_path, **overrides) -> JobStore:
    options = dict(
        retry_policy=RetryPolicy(
            max_attempts=2, base_delay_seconds=0.0, jitter_ratio=0.0
        ),
        lease_seconds=30.0,
    )
    options.update(overrides)
    return JobStore(tmp_path / "store", **options)


def make_spec(**overrides) -> JobSpec:
    options = dict(dataset="2k", scale=0.05, config=dict(_CONFIG))
    options.update(overrides)
    return JobSpec(**options)


def reference_labels(spec: JobSpec) -> dict[str, int]:
    """Labels of an uninterrupted plain solve of the same spec."""
    solution = FaCT(spec.build_config()).solve(
        spec.build_collection(), spec.build_constraints()
    )
    return {
        str(area): int(region)
        for area, region in solution.partition.labels().items()
    }


class TestHappyPath:
    def test_worker_completes_job_with_artifacts(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(make_spec(label="happy"))
        worker = ServiceWorker(store, worker_id="w-happy")

        assert worker.run_once()
        final = store.get(job.job_id)
        assert final.state == JobState.COMPLETED
        assert final.result_status == "complete"
        assert final.attempts == 1

        result = store.read_result(job.job_id)
        assert result["labels"]
        assert result["summary"]["status"] == "complete"
        assert result["labels"] == reference_labels(job.spec)

        certificate = store.read_certificate(job.job_id)
        assert certificate["valid"] is True

        events = store.read_events(job.job_id)
        assert validate_events(events) == []

        # The ledger is retained for audit (keep_on_complete).
        assert os.path.exists(store.checkpoint_path(job.job_id))

    def test_idle_worker_reports_no_work(self, tmp_path):
        store = make_store(tmp_path)
        assert not ServiceWorker(store).run_once()


class TestFailureRouting:
    def test_crashing_solve_retries_then_dead_letters(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(make_spec())
        worker = ServiceWorker(store, worker_id="w-crash")

        injector = FaultInjector()
        injector.fail("construction.pass.start", on_visit=1)
        injector.fail("construction.pass.start", on_visit=2)
        with inject(injector):
            worker.run_once()  # attempt 1 crashes -> re-queued
            assert store.get(job.job_id).state == JobState.QUEUED
            assert "injected fault" in store.get(job.job_id).error
            worker.run_once()  # attempt 2 crashes -> attempts exhausted
        final = store.get(job.job_id)
        assert final.state == JobState.DEAD
        assert final.attempts == 2

    def test_infeasible_job_fails_permanently(self, tmp_path):
        store = make_store(tmp_path)
        # No region of <= 117 areas can ever hold 50000 of them.
        job = store.submit(make_spec(constraints=["COUNT::50000:-"]))
        ServiceWorker(store, worker_id="w-inf").run_once()
        final = store.get(job.job_id)
        assert final.state == JobState.FAILED
        assert final.attempts == 1  # deterministic rejection: no retry

    def test_deadline_expiry_completes_with_flagged_result(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(make_spec(deadline_seconds=0.5))
        injector = FaultInjector()
        injector.delay("feasibility.checked", seconds=0.8)
        with inject(injector):
            ServiceWorker(store, worker_id="w-late").run_once()
        final = store.get(job.job_id)
        assert final.state == JobState.COMPLETED
        assert final.result_status == "deadline_exceeded"
        assert store.read_result(job.job_id)["summary"]["status"] == (
            "deadline_exceeded"
        )


class TestCancel:
    def test_cancel_mid_solve_finalizes_cancelled(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(make_spec())
        worker = ServiceWorker(
            store, worker_id="w-cxl", heartbeat_seconds=0.1
        )

        injector = FaultInjector()
        # Hold the solve at its first construction pass long enough for
        # the operator cancel below to land deterministically.
        injector.delay("construction.pass.start", seconds=2.0)
        with inject(injector):
            thread = threading.Thread(target=worker.run_once)
            thread.start()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if store.get(job.job_id).state == JobState.RUNNING:
                    break
                time.sleep(0.02)
            store.cancel(job.job_id)
            thread.join(timeout=30.0)
        assert not thread.is_alive()
        final = store.get(job.job_id)
        assert final.state == JobState.CANCELLED
        # Best-so-far result is still persisted for inspection.
        assert store.read_result(job.job_id) is not None


class TestDrainAndResume:
    def test_interrupted_solve_requeues_and_resumes_bit_identical(
        self, tmp_path
    ):
        """A drain-style interruption mid-solve costs no attempt and the
        resumed solve is bit-identical to an uninterrupted one."""
        store = make_store(tmp_path)
        job = store.submit(make_spec())

        injector = FaultInjector()
        # Cancels the budget token at the first Tabu iteration —
        # exactly what SIGTERM-drain does, after construction already
        # checkpointed.
        injector.cancel("tabu.iteration", on_visit=1)
        with inject(injector):
            ServiceWorker(store, worker_id="w-drained").run_once()

        requeued = store.get(job.job_id)
        assert requeued.state == JobState.QUEUED
        assert requeued.attempts == 0  # drain does not burn an attempt
        assert os.path.exists(store.checkpoint_path(job.job_id))

        ServiceWorker(store, worker_id="w-resumer").run_once()
        final = store.get(job.job_id)
        assert final.state == JobState.COMPLETED
        result = store.read_result(job.job_id)
        assert result["labels"] == reference_labels(job.spec)
        # The resumed attempt replayed recorded construction passes.
        events = store.read_events(job.job_id)
        assert any(e.get("kind") == "checkpoint.replay" for e in events)
        assert validate_events(events) == []

    def test_draining_worker_processes_nothing(self, tmp_path):
        store = make_store(tmp_path)
        store.submit(make_spec())
        worker = ServiceWorker(store, worker_id="w-idle")
        worker.drain()
        assert worker.run_forever() == 0


def wait_until(predicate, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestIdleWake:
    """An idle worker waits on the journal, not on a fixed sleep.

    Every worker here has ``poll_seconds=30``, so anything that happens
    within a few seconds happened because the wait woke early.
    """

    @staticmethod
    def start_idle(store: JobStore, worker_id: str):
        worker = ServiceWorker(store, worker_id=worker_id, poll_seconds=30.0)
        thread = threading.Thread(target=worker.run_forever, daemon=True)
        thread.start()
        return worker, thread

    @staticmethod
    def stop(worker: ServiceWorker, thread: threading.Thread) -> None:
        worker.drain()
        thread.join(timeout=5.0)
        assert not thread.is_alive()

    def test_submit_from_another_handle_wakes_the_worker(self, tmp_path):
        store = make_store(tmp_path)
        worker, thread = self.start_idle(store, "w-wake")
        time.sleep(0.3)  # past the first (empty) claim pass
        other = JobStore(store.root)
        job = other.submit(make_spec())
        try:
            assert wait_until(
                lambda: other.get(job.job_id).state == JobState.COMPLETED,
                timeout=5.0,
            )
        finally:
            self.stop(worker, thread)
        assert worker.jobs_run == 1

    def test_drain_ends_the_idle_wait(self, tmp_path):
        store = make_store(tmp_path)
        worker, thread = self.start_idle(store, "w-drain")
        time.sleep(0.3)
        started = time.monotonic()
        worker.drain()
        thread.join(timeout=1.0)
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0

    def test_retry_window_end_wakes_the_worker(self, tmp_path):
        store = make_store(tmp_path)
        failing = JobStore(
            store.root,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.5, jitter_ratio=0.0
            ),
        )
        job = failing.submit(make_spec())
        failing.claim("w-gone")
        failing.fail(job.job_id, "w-gone", "boom", retryable=True)
        requeued = failing.get(job.job_id)
        assert requeued.state == JobState.QUEUED
        assert requeued.not_before > time.time()
        failed_at = time.monotonic()
        worker, thread = self.start_idle(store, "w-retry")
        try:
            assert wait_until(
                lambda: store.get(job.job_id).attempts == 2, timeout=2.0
            )
            assert time.monotonic() - failed_at >= 0.4
            assert wait_until(
                lambda: store.get(job.job_id).state == JobState.COMPLETED,
                timeout=10.0,
            )
        finally:
            self.stop(worker, thread)

    def test_lease_expiry_wakes_the_reaper(self, tmp_path):
        store = make_store(tmp_path)
        short = JobStore(store.root, lease_seconds=0.5)
        job = short.submit(make_spec())
        short.claim("w-crashed")  # never heartbeats, never appends again
        worker, thread = self.start_idle(store, "w-reaper")
        try:
            assert wait_until(
                lambda: store.get(job.job_id).state == JobState.COMPLETED,
                timeout=5.0,
            )
        finally:
            self.stop(worker, thread)
        final = store.get(job.job_id)
        assert final.attempts == 2
        assert final.worker_id == "w-reaper"

    def test_unchanged_journal_costs_one_claim_per_window(self, tmp_path):
        store = make_store(tmp_path)
        calls = []
        claim = store.claim

        def counting_claim(*args, **kwargs):
            calls.append(time.monotonic())
            return claim(*args, **kwargs)

        store.claim = counting_claim
        worker = ServiceWorker(store, worker_id="w-quiet", poll_seconds=0.5)
        thread = threading.Thread(target=worker.run_forever, daemon=True)
        thread.start()
        time.sleep(1.6)
        self.stop(worker, thread)
        # Claims at 0, 0.5, 1.0 and 1.5 s: at most one per window.
        assert 1 <= len(calls) <= 4


class TestServiceConfigKnobs:
    """FaCTConfig carries the service execution contract; bad values
    must bounce at construction (satellite: config validation)."""

    @pytest.mark.parametrize("field", ["lease_seconds", "heartbeat_seconds"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf")])
    def test_rejects_non_positive_lease_and_heartbeat(self, field, value):
        from repro.exceptions import BudgetError

        with pytest.raises(BudgetError, match=field):
            FaCTConfig(**{field: value})

    def test_rejects_heartbeat_not_shorter_than_lease(self):
        from repro.exceptions import BudgetError

        with pytest.raises(BudgetError, match="heartbeat"):
            FaCTConfig(lease_seconds=5.0, heartbeat_seconds=5.0)

    def test_rejects_non_bool_keep_on_complete(self):
        from repro.exceptions import InvalidConstraintError

        with pytest.raises(InvalidConstraintError):
            FaCTConfig(checkpoint_keep_on_complete="yes")

    def test_pool_retry_policy_derives_from_config(self):
        config = FaCTConfig(
            pool_task_retries=2, pool_retry_backoff_seconds=0.25
        )
        policy = config.pool_retry_policy()
        assert policy.max_attempts == 3
        assert policy.base_delay_seconds == 0.25


class TestQuarantine:
    """Poison-job detection: same fault signature twice -> DEAD now."""

    def test_poison_job_short_circuits_remaining_retries(self, tmp_path):
        store = make_store(
            tmp_path,
            retry_policy=RetryPolicy(
                max_attempts=5, base_delay_seconds=0.0, jitter_ratio=0.0
            ),
        )
        job = store.submit(make_spec())
        worker = ServiceWorker(store, worker_id="w-poison")

        injector = FaultInjector()
        for visit in range(1, 6):
            injector.fail("construction.pass.start", on_visit=visit)
        with inject(injector):
            worker.run_once()  # attempt 1: retryable crash, re-queued
            after_first = store.get(job.job_id)
            assert after_first.state == JobState.QUEUED
            assert after_first.fault_signature is not None
            # The visit ordinal in the fault message is digit-masked,
            # so the next identical crash produces the same signature.
            assert "#" in after_first.fault_signature
            worker.run_once()  # attempt 2: same signature -> quarantine

        final = store.get(job.job_id)
        assert final.state == JobState.DEAD
        assert final.attempts == 2  # three budgeted attempts never ran
        assert "quarantined" in final.detail
        assert final.fault_signature == after_first.fault_signature

    def test_signature_survives_journal_replay(self, tmp_path):
        store = make_store(tmp_path)
        job = store.submit(make_spec())
        worker = ServiceWorker(store, worker_id="w-replay")
        injector = FaultInjector()
        injector.fail("construction.pass.start", on_visit=1)
        injector.fail("construction.pass.start", on_visit=2)
        with inject(injector):
            worker.run_once()
            worker.run_once()
        final = store.get(job.job_id)
        assert final.state == JobState.DEAD
        assert final.fault_signature

        # The signature is a journal fact, not an in-memory one: a
        # fresh store folds it back, and the DEAD transition record
        # carries it verbatim for post-mortem matching.
        import json

        with open(
            os.path.join(store.root, "journal.jsonl"), encoding="utf-8"
        ) as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        dead = [
            r
            for r in records
            if r.get("kind") == "transition" and r.get("state") == "dead"
        ]
        assert dead and dead[-1]["fault_signature"] == final.fault_signature

        replayed = JobStore(store.root)
        assert (
            replayed.get(job.job_id).fault_signature
            == final.fault_signature
        )

    def test_different_signatures_do_not_quarantine(self, tmp_path):
        store = make_store(
            tmp_path,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay_seconds=0.0, jitter_ratio=0.0
            ),
        )
        job = store.submit(make_spec())
        worker = ServiceWorker(store, worker_id="w-vary")

        injector = FaultInjector()
        # Attempt 1 dies in construction; attempt 2 dies at the
        # feasibility checkpoint (a different signature); attempt 3 is
        # fault-free. A naive "two failures -> dead" heuristic would
        # kill this job; signature matching lets it recover.
        injector.fail("construction.pass.start", on_visit=1)
        injector.fail("feasibility.checked", on_visit=2)
        with inject(injector):
            worker.run_once()
            assert store.get(job.job_id).state == JobState.QUEUED
            worker.run_once()
            assert store.get(job.job_id).state == JobState.QUEUED
            worker.run_once()

        final = store.get(job.job_id)
        assert final.state == JobState.COMPLETED
        assert final.attempts == 3
