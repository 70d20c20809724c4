"""The durable job store: journal replay, leases, retries, chaos.

The invariant under test everywhere: **no job is ever lost or stuck**.
Whatever process dies at whatever instant, replaying the journal
yields a store in which every job is either terminal or still
drivable to a terminal state through the public operations.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exceptions import JobError
from repro.runtime import FaultInjector, InjectedFault, RetryPolicy, inject
from repro.service import (
    SERVICE_CHECKPOINTS,
    JobSpec,
    JobState,
    JobStore,
)
from repro.service.jobs import TERMINAL_STATES, check_transition
from repro.service.queue import select_next


class FakeClock:
    """A hand-cranked wall clock so lease arithmetic is exact."""

    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def store(tmp_path, clock) -> JobStore:
    return JobStore(
        tmp_path / "store",
        retry_policy=RetryPolicy(
            max_attempts=3, base_delay_seconds=1.0, jitter_ratio=0.0
        ),
        lease_seconds=10.0,
        clock=clock,
    )


def spec(**overrides) -> JobSpec:
    options = dict(dataset="2k", scale=0.05, config={"rng_seed": 1})
    options.update(overrides)
    return JobSpec(**options)


class TestStateMachine:
    def test_every_state_reaches_only_allowed_targets(self):
        check_transition("j", JobState.QUEUED, JobState.LEASED)
        check_transition("j", JobState.RUNNING, JobState.COMPLETED)
        with pytest.raises(JobError, match="illegal transition"):
            check_transition("j", JobState.QUEUED, JobState.COMPLETED)
        for terminal in TERMINAL_STATES:
            for target in JobState.ALL:
                with pytest.raises(JobError):
                    check_transition("j", terminal, target)

    def test_spec_validation_rejects_bad_jobs_at_submit(self, store):
        with pytest.raises(JobError, match="scale"):
            store.submit(spec(scale=-1.0))
        with pytest.raises(JobError, match="invalid job config"):
            store.submit(spec(config={"no_such_knob": 1}))
        with pytest.raises(Exception, match="deadline"):
            store.submit(spec(deadline_seconds=-3.0))


class TestSubmitAndQuery:
    def test_submit_queues_and_persists_spec(self, store):
        job = store.submit(spec(label="first"))
        assert job.state == JobState.QUEUED
        assert store.get(job.job_id).spec.label == "first"
        spec_file = os.path.join(store.job_dir(job.job_id), "spec.json")
        assert json.load(open(spec_file))["label"] == "first"

    def test_unknown_job_raises(self, store):
        with pytest.raises(JobError, match="unknown job"):
            store.get("j-nope")

    def test_counts_cover_every_state(self, store):
        store.submit(spec())
        counts = store.counts()
        assert counts[JobState.QUEUED] == 1
        assert set(counts) == set(JobState.ALL)


class TestClaimOrdering:
    def test_priority_wins_then_fifo(self, store, clock):
        low = store.submit(spec(priority=0, label="low"))
        high = store.submit(spec(priority=5, label="high"))
        low2 = store.submit(spec(priority=0, label="low2"))
        assert store.claim("w").job_id == high.job_id
        assert store.claim("w").job_id == low.job_id
        assert store.claim("w").job_id == low2.job_id
        assert store.claim("w") is None

    def test_backoff_window_defers_job(self, store, clock):
        job = store.submit(spec())
        store.claim("w")
        store.start_running(job.job_id, "w")
        store.fail(job.job_id, "w", "transient")
        # RetryPolicy: base 1.0s, no jitter → not_before = now + 1.0
        assert store.claim("w") is None
        clock.advance(1.01)
        assert store.claim("w").job_id == job.job_id

    def test_select_next_is_pure_over_runnable(self, store, clock):
        store.submit(spec(priority=1))
        jobs = store.jobs()
        assert select_next(jobs, clock()).spec.priority == 1
        assert select_next([], clock()) is None


class TestLeases:
    def test_claim_sets_lease_and_attempt(self, store, clock):
        job = store.submit(spec())
        leased = store.claim("w-1")
        assert leased.state == JobState.LEASED
        assert leased.attempts == 1
        assert leased.worker_id == "w-1"
        assert leased.lease_expires_at == clock() + 10.0

    def test_renew_extends_lease(self, store, clock):
        job = store.submit(spec())
        store.claim("w-1")
        clock.advance(5.0)
        renewed = store.renew(job.job_id, "w-1")
        assert renewed.lease_expires_at == clock() + 10.0

    def test_foreign_worker_cannot_renew_or_finish(self, store):
        job = store.submit(spec())
        store.claim("w-1")
        with pytest.raises(JobError, match="not leased to"):
            store.renew(job.job_id, "w-2")
        with pytest.raises(JobError, match="not leased to"):
            store.complete(job.job_id, "w-2")

    def test_per_job_lease_override(self, store, clock):
        job = store.submit(spec(config={"rng_seed": 1, "lease_seconds": 2.0}))
        leased = store.claim("w")
        assert leased.lease_expires_at == clock() + 2.0

    def test_expired_lease_is_reaped_to_queue(self, store, clock):
        job = store.submit(spec())
        store.claim("w-1")
        clock.advance(11.0)
        reaped = store.reap_expired()
        assert [j.job_id for j in reaped] == [job.job_id]
        assert store.get(job.job_id).state == JobState.QUEUED
        assert store.get(job.job_id).worker_id is None

    def test_lease_exhaustion_dead_letters(self, store, clock):
        job = store.submit(spec())
        for _ in range(3):  # max_attempts = 3
            clock.advance(5.0)
            assert store.claim("w") is not None
            clock.advance(11.0)
            store.reap_expired()
        assert store.get(job.job_id).state == JobState.DEAD
        assert "attempts exhausted" in store.get(job.job_id).detail

    def test_old_owner_cannot_publish_after_reap(self, store, clock):
        """The split-brain case: a slow worker must not overwrite the
        re-leased job's outcome."""
        job = store.submit(spec())
        store.claim("w-old")
        clock.advance(11.0)
        store.reap_expired()
        store.claim("w-new")
        with pytest.raises(JobError):
            store.complete(job.job_id, "w-old")


class TestFailureRouting:
    def test_retryable_failure_requeues_with_backoff(self, store, clock):
        job = store.submit(spec())
        store.claim("w")
        store.start_running(job.job_id, "w")
        failed = store.fail(job.job_id, "w", "boom", retryable=True)
        assert failed.state == JobState.QUEUED
        assert failed.error == "boom"
        assert failed.not_before == clock() + 1.0

    def test_retryable_failures_exhaust_to_dead(self, store, clock):
        job = store.submit(spec())
        for _ in range(3):
            clock.advance(10.0)
            store.claim("w")
            store.start_running(job.job_id, "w")
            store.fail(job.job_id, "w", "boom", retryable=True)
        assert store.get(job.job_id).state == JobState.DEAD

    def test_non_retryable_failure_is_final(self, store):
        job = store.submit(spec())
        store.claim("w")
        store.start_running(job.job_id, "w")
        failed = store.fail(job.job_id, "w", "infeasible", retryable=False)
        assert failed.state == JobState.FAILED

    def test_job_retry_override_beats_store_policy(self, store, clock):
        job = store.submit(
            spec(retry={"max_attempts": 1, "jitter_ratio": 0.0})
        )
        store.claim("w")
        store.start_running(job.job_id, "w")
        failed = store.fail(job.job_id, "w", "boom", retryable=True)
        assert failed.state == JobState.DEAD

    def test_drain_requeue_does_not_burn_an_attempt(self, store):
        job = store.submit(spec())
        store.claim("w")
        drained = store.requeue_drained(job.job_id, "w")
        assert drained.state == JobState.QUEUED
        assert drained.attempts == 0


class TestCancel:
    def test_cancel_queued_is_immediate(self, store):
        job = store.submit(spec())
        assert store.cancel(job.job_id).state == JobState.CANCELLED

    def test_cancel_running_is_sticky_until_acknowledged(self, store):
        job = store.submit(spec())
        store.claim("w")
        store.start_running(job.job_id, "w")
        cancelled = store.cancel(job.job_id)
        assert cancelled.state == JobState.RUNNING
        assert cancelled.cancel_requested
        final = store.finalize_cancel(job.job_id, "w")
        assert final.state == JobState.CANCELLED

    def test_cancel_requested_job_finalizes_on_reap(self, store, clock):
        job = store.submit(spec())
        store.claim("w")
        store.cancel(job.job_id)
        clock.advance(11.0)
        store.reap_expired()
        assert store.get(job.job_id).state == JobState.CANCELLED

    def test_cancelled_job_is_not_dispatched(self, store):
        job = store.submit(spec())
        store.cancel(job.job_id)
        assert store.claim("w") is None

    def test_cancel_terminal_job_is_a_no_op(self, store):
        job = store.submit(spec())
        store.claim("w")
        store.start_running(job.job_id, "w")
        store.complete(job.job_id, "w")
        assert store.cancel(job.job_id).state == JobState.COMPLETED


class TestJournalRecovery:
    def drive(self, store, clock):
        job = store.submit(spec(label="drive"))
        store.claim("w")
        store.start_running(job.job_id, "w")
        store.complete(job.job_id, "w")
        clock.advance(1.0)
        return job

    def test_fresh_store_replays_identical_state(self, store, clock):
        jobs = [self.drive(store, clock) for _ in range(3)]
        queued = store.submit(spec(label="still-queued"))
        replayed = JobStore(store.root, clock=clock)
        for job in jobs:
            assert replayed.get(job.job_id).state == JobState.COMPLETED
        assert replayed.get(queued.job_id).state == JobState.QUEUED
        originals = {j.job_id: j.as_dict() for j in store.jobs()}
        assert {j.job_id: j.as_dict() for j in replayed.jobs()} == originals

    def test_replay_is_incremental_across_instances(self, store, clock):
        """Two store handles over one directory see each other's writes."""
        other = JobStore(store.root, clock=clock)
        job = store.submit(spec())
        assert other.get(job.job_id).state == JobState.QUEUED
        other.claim("w-other")
        assert store.get(job.job_id).state == JobState.LEASED

    def test_torn_journal_tail_is_tolerated_and_repaired(self, store, clock):
        job = store.submit(spec())
        # A writer died mid-append: raw partial JSON, no newline.
        with open(os.path.join(store.root, "journal.jsonl"), "ab") as handle:
            handle.write(b'{"kind": "transi')
        replayed = JobStore(store.root, clock=clock)
        assert replayed.get(job.job_id).state == JobState.QUEUED
        # The next append repairs the tail; every line parses again.
        replayed.claim("w")
        with open(os.path.join(store.root, "journal.jsonl"), "rb") as handle:
            lines = handle.read().decode().splitlines()
        parsed = []
        for line in lines:
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError:
                parsed.append(None)
        assert parsed[-1] is not None  # the repaired append is intact
        assert sum(1 for p in parsed if p is None) == 1  # just the torn line
        assert store.get(job.job_id).state == JobState.LEASED

    def test_waiting_handle_wakes_on_appends_not_on_a_torn_tail(
        self, store, clock
    ):
        other = JobStore(store.root, clock=clock)
        store.submit(spec())
        assert other.wait_for_change(5.0)  # another handle's submit
        with open(os.path.join(store.root, "journal.jsonl"), "ab") as handle:
            handle.write(b'{"kind": "transi')
        other.jobs()  # folds up to the torn tail and no further
        started = time.monotonic()
        assert not other.wait_for_change(0.2)
        assert time.monotonic() - started >= 0.15
        store.claim("w")  # repairs the tail with a complete record
        assert other.wait_for_change(5.0)

    def test_unparseable_submit_is_counted_not_silently_dropped(
        self, store, clock
    ):
        kept = store.submit(spec(label="kept"))
        # A submit journaled with a config option this version no
        # longer accepts, followed by a transition of that job.
        stale = {"v": 1, "ts": clock(), "kind": "submit", "job": "j-stale",
                 "spec": dict(spec().as_dict(), config={"backend": "numpy"})}
        lease = {"v": 1, "ts": clock(), "kind": "transition",
                 "job": "j-stale", "state": JobState.LEASED}
        with open(os.path.join(store.root, "journal.jsonl"), "a") as handle:
            handle.write(json.dumps(stale) + "\n")
            handle.write(json.dumps(lease) + "\n")
        replayed = JobStore(store.root, clock=clock)
        assert replayed.fleet_stats()["rejected_submits"] == 1
        assert replayed.get(kept.job_id).state == JobState.QUEUED
        with pytest.raises(JobError):
            replayed.get("j-stale")


@pytest.mark.chaos
class TestChaos:
    """Crash the store at every service checkpoint; demand liveness.

    A ``fail`` fault at a checkpoint models the process dying at that
    exact instant (the journal append it guarded never happens). After
    the crash, a *fresh* store replays the journal and normal
    operations must still drive every surviving job to a terminal
    state — the acceptance invariant of the service.
    """

    @pytest.mark.parametrize("checkpoint", SERVICE_CHECKPOINTS)
    def test_every_job_terminates_despite_crash(
        self, tmp_path, checkpoint
    ):
        clock = FakeClock()
        root = tmp_path / "store"
        policy = RetryPolicy(
            max_attempts=3, base_delay_seconds=0.0, jitter_ratio=0.0
        )
        store = JobStore(root, retry_policy=policy, lease_seconds=10.0,
                         clock=clock)
        injector = FaultInjector()
        # The first journal appends are the two submits; crashing those
        # only proves unacknowledged work vanishes. Crash the third
        # append (the first lease transition) instead.
        injector.fail(
            checkpoint,
            on_visit=3 if checkpoint == "service.journal.append" else 1,
        )

        submitted = []
        with inject(injector):
            try:
                # A scripted "day in the life" that visits every
                # service checkpoint: solve job a end to end (claim,
                # renew, result, finalize), let job b's lease expire
                # and reap it before finishing it too, then poison
                # job c until it is quarantined.
                submitted.append(store.submit(spec(label="a")).job_id)
                submitted.append(store.submit(spec(label="b")).job_id)
                job_a = store.claim("w-crashy")
                store.start_running(job_a.job_id, "w-crashy")
                store.renew(job_a.job_id, "w-crashy")
                store.write_result(job_a.job_id, {"labels": {}})
                store.complete(job_a.job_id, "w-crashy")
                job_b = store.claim("w-crashy")
                store.start_running(job_b.job_id, "w-crashy")
                clock.advance(11.0)
                # The watchdog notices job b's silence before the
                # reaper does: a STALLED verdict fires the
                # service.stalled checkpoint on its way to the journal.
                store.record_health(
                    job_b.job_id, "stalled", "lease-expiry-pending"
                )
                store.reap_expired()
                job_b = store.claim("w-crashy")
                store.start_running(job_b.job_id, "w-crashy")
                store.write_result(job_b.job_id, {"labels": {}})
                store.complete(job_b.job_id, "w-crashy")
                # Job c crashes the same way twice: the second failure
                # matches the recorded fault signature and the store
                # quarantines it (service.quarantine fires) instead of
                # burning the rest of the retry budget.
                submitted.append(store.submit(spec(label="c")).job_id)
                for attempt in (1, 2):
                    job_c = store.claim("w-crashy")
                    store.start_running(job_c.job_id, "w-crashy")
                    store.fail(
                        job_c.job_id,
                        "w-crashy",
                        f"boom at visit {attempt}",
                        signature="ValueError:boom at visit #",
                    )
            except InjectedFault:
                pass  # the "process" died here
        assert injector.visited(checkpoint) >= 1

        # Recovery: a fresh process replays the journal and finishes
        # the work. Leases the dead process held must expire away.
        recovered = JobStore(root, retry_policy=policy, lease_seconds=10.0,
                             clock=clock)
        for _ in range(8):
            clock.advance(11.0)
            recovered.reap_expired()
            job = recovered.claim("w-recovery")
            if job is None:
                continue
            recovered.start_running(job.job_id, "w-recovery")
            recovered.write_result(job.job_id, {"labels": {}})
            recovered.complete(job.job_id, "w-recovery")

        for job_id in submitted:
            job = recovered.get(job_id)
            assert job.terminal, (
                f"job {job_id} stuck in {job.state!r} after crash at "
                f"{checkpoint!r}"
            )
        counts = recovered.counts()
        assert counts[JobState.LEASED] == 0
        assert counts[JobState.RUNNING] == 0
