"""Persistent worker pool for the parallel parts of a solve.

One :class:`SolverPool` is created per :meth:`FaCT.solve` call when
``n_jobs > 1`` and lives across *all* parallel stages of that call —
every construction pass of every retry attempt, then every Tabu
portfolio member. The heavy, immutable payload (area collection,
constraint set, excluded areas, config) is shipped to each worker
process exactly once, through the executor's *initializer*; individual
task submissions then carry only the per-task scalars (a seed, a label
snapshot, a deadline). This replaces the earlier scheme of pickling the
whole dataset into every submitted future, which dominated dispatch
cost for large collections.

Worker tasks rebuild live solver state with
:meth:`repro.fact.state.SolutionState.from_labels` (the canonical
renumbering), so a task's result depends only on its arguments — never
on which process ran it or in what order. The reductions on the parent
side are deterministic for the same reason, which is what makes solve
results bit-identical across ``n_jobs`` values.

Budgets do not cross process boundaries (the parent's cancellation
token is invisible here), so each task receives the parent budget's
*remaining seconds* and enforces it with a local
:class:`~repro.runtime.Budget`; the parent additionally polls its own
budget while waiting and cancels still-pending futures on interrupt.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool

from ..core.area import AreaCollection
from ..core.constraints import ConstraintSet
from ..core.perf import PerfCounters
from ..obs.spans import worker_tracer
from ..obs.telemetry import DISABLED
from ..runtime import Budget, Interrupted, RetryPolicy, RunStatus
from .config import FaCTConfig
from .state import SolutionState

__all__ = ["SolverPool"]

# The per-process payload installed by the pool initializer. One tuple
# (collection, constraints, excluded, config) per worker process.
_WORKER_CONTEXT: tuple | None = None


def _init_worker(payload: tuple) -> None:
    """Executor initializer: install the solve's shared payload."""
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = payload


def _worker_context() -> tuple:
    if _WORKER_CONTEXT is None:  # pragma: no cover - defensive
        raise RuntimeError(
            "solver pool worker used without initialization; tasks must "
            "be submitted through SolverPool"
        )
    return _WORKER_CONTEXT


def _local_budget(deadline_seconds: float | None) -> Budget | None:
    if deadline_seconds is None:
        return None
    return Budget(deadline_seconds=deadline_seconds).start()


def construction_pass_task(
    seeding,
    pass_seed: int,
    config_override: FaCTConfig | None = None,
    deadline_seconds: float | None = None,
    budget: Budget | None = None,
    span_context=None,
    pass_index: int | None = None,
) -> tuple:
    """One construction pass against the installed worker context.

    Returns ``(score_key, labels, (p, n_unassigned), status, perf,
    spans)``. Regions travel back as labels because live states are
    cheaper to rebuild than to pickle. *config_override* carries a
    retry attempt's config (same knobs, different base seed); the
    actual randomness comes from *pass_seed* either way. In-process
    callers pass their live *budget* (cancellation token included);
    worker submissions pass *deadline_seconds* instead and get a local
    one.

    *span_context* (a :meth:`repro.obs.Tracer.context` value) roots
    this pass's telemetry under the parent's current span; the
    finished span dicts travel back in the result for the parent to
    adopt. ``None`` — the default — records nothing.
    """
    from .adjustment import adjust_counting, dissolve_infeasible
    from .construction import _score_key
    from .growing import grow_regions

    collection, constraints, excluded, config = _worker_context()
    if config_override is not None:
        config = config_override
    state = SolutionState(collection, constraints, excluded=excluded)
    rng = random.Random(pass_seed)
    if budget is None:
        budget = _local_budget(deadline_seconds)
    tracer = worker_tracer(span_context)
    status: RunStatus | None = None
    with tracer.span("pass", index=pass_index, seed=pass_seed) as pass_span:
        try:
            grow_regions(state, seeding, config, rng, budget=budget,
                         tracer=tracer)
            adjust_counting(state, config, rng, budget=budget, tracer=tracer)
        except Interrupted as signal:
            status = signal.status
            dissolve_infeasible(state)
        if pass_span.recording:
            pass_span.set(
                p=state.p,
                n_unassigned=state.n_unassigned,
                status=None if status is None else status.value,
            )
    labels = {
        area_id: region_id
        for area_id, region_id in state.assignment.items()
        if region_id is not None
    }
    return (
        _score_key(state),
        labels,
        (state.p, state.n_unassigned),
        status,
        state.perf,
        list(tracer.finished),
    )


def portfolio_member_task(
    labels: dict[int, int],
    member_index: int,
    tabu_seed: int,
    perturbation_moves: int,
    objective=None,
    deadline_seconds: float | None = None,
    budget: Budget | None = None,
    span_context=None,
) -> tuple:
    """One Tabu portfolio member against the installed worker context.

    Rebuilds the member's starting state canonically from *labels*,
    runs the full Tabu search (perturbed first when
    ``perturbation_moves > 0``) and returns ``(best_score,
    best_labels, stats, perf, spans)``. Deterministic in its arguments
    — the serial portfolio path calls this very function in-process.

    *span_context* roots the member's telemetry under the parent's
    ``tabu`` span (see :func:`construction_pass_task`).
    """
    from .tabu import tabu_improve

    collection, constraints, excluded, config = _worker_context()
    state = SolutionState.from_labels(
        collection, constraints, labels, excluded=excluded
    )
    tracer = worker_tracer(span_context)
    with tracer.span(
        "member",
        index=member_index,
        seed=tabu_seed,
        perturbation_moves=perturbation_moves,
    ) as member_span:
        result = tabu_improve(
            state,
            config,
            objective=objective,
            budget=(
                budget
                if budget is not None
                else _local_budget(deadline_seconds)
            ),
            rng=random.Random(tabu_seed),
            perturbation_moves=perturbation_moves,
            tracer=tracer,
        )
        if member_span.recording:
            member_span.set(
                heterogeneity_after=result.heterogeneity_after,
                iterations=result.iterations,
                status=result.status.value,
            )
    best_labels = result.partition.labels()
    stats = {
        "member": member_index,
        "heterogeneity_before": result.heterogeneity_before,
        "heterogeneity_after": result.heterogeneity_after,
        "iterations": result.iterations,
        "moves_applied": result.moves_applied,
        "elapsed_seconds": result.elapsed_seconds,
        "status": result.status,
    }
    return (
        result.heterogeneity_after,
        best_labels,
        stats,
        state.perf,
        list(tracer.finished),
    )


class SolverPool:
    """A process pool bound to one solve's immutable payload.

    The executor is created lazily on the first submission, so building
    a :class:`SolverPool` is free when no parallel stage ends up
    running. ``run_local`` executes the same task functions in-process
    (after installing the payload as the in-process context), which is
    how ``n_jobs=1`` and worker execution stay behaviorally identical.
    """

    def __init__(
        self,
        collection: AreaCollection,
        constraints: ConstraintSet,
        excluded,
        config: FaCTConfig,
        max_workers: int,
    ):
        self._payload = (
            collection,
            constraints,
            frozenset(excluded),
            config,
        )
        self._max_workers = max(1, int(max_workers))
        self._executor: ProcessPoolExecutor | None = None

    @property
    def max_workers(self) -> int:
        return self._max_workers

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                initializer=_init_worker,
                initargs=(self._payload,),
            )
        return self._executor

    def submit(self, task, *args) -> Future:
        """Submit one of this module's task functions to the pool."""
        return self._ensure_executor().submit(task, *args)

    def restart(self) -> None:
        """Tear down the (possibly broken) executor; the next
        submission lazily builds a fresh one with the same payload.

        This is the recovery move after ``BrokenProcessPool``: the
        stdlib executor marks itself permanently broken once any
        worker dies, so resubmission requires a new executor.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def collect_resilient(
        self,
        task,
        submit_args: list[tuple],
        local_args: list[tuple],
        *,
        budget: Budget | None = None,
        perf: PerfCounters | None = None,
        retries: int = 1,
        retry_policy: RetryPolicy | None = None,
        task_deadline: float | None = None,
        on_result=None,
        poll_seconds: float = 0.05,
        telemetry=None,
    ) -> tuple[dict[int, object], RunStatus | None]:
        """Fan *task* out over the pool and survive worker failure.

        Submits ``task(*submit_args[i])`` for every index and gathers
        results into ``{index: result}``, preserving determinism: a
        result depends only on its arguments, so the caller's
        index-ordered reduction is unaffected by *where* each task
        eventually ran. Re-dispatch follows *retry_policy* (a
        :class:`repro.runtime.RetryPolicy`; when omitted, one is built
        from *retries* with immediate resubmission — the historical
        behaviour). A policy with a non-zero base delay defers
        resubmission by its deterministically jittered backoff instead
        of hammering a struggling pool. The failure escalation:

        - a task that raises (worker crash, unpicklable return value)
          is resubmitted while the policy allows another attempt, then
          **degraded** — the pool's dead-letter: the same task
          function is re-run in-process via :meth:`run_local` on
          ``local_args[i]``;
        - ``BrokenProcessPool`` (a worker died hard, killing the whole
          executor) triggers :meth:`restart` and resubmission of every
          unfinished task — tasks whose attempts are already exhausted
          degrade instead;
        - a task still unfinished after *task_deadline* seconds is
          abandoned (the stdlib cannot kill a running future, so its
          eventual result is simply ignored) and degraded;
        - arguments that fail to pickle at submission degrade
          immediately.

        Every event lands in *perf* (``pool_task_failures``,
        ``pool_task_retries``, ``pool_tasks_degraded``,
        ``pool_broken_restarts``, ``pool_task_timeouts``) and — when a
        :class:`repro.obs.SolveTelemetry` is passed as *telemetry* —
        in the run event log as ``pool.*`` events. Each collected
        result fires the ``pool.result`` fault checkpoint and the
        optional ``on_result(index, result)`` callback (the solve
        ledger records completed units there). When *budget* expires
        or is cancelled, pending futures are cancelled and the partial
        results are returned with the interruption status.
        """
        perf = perf if perf is not None else PerfCounters()
        telemetry = telemetry if telemetry is not None else DISABLED
        if retry_policy is None:
            retry_policy = RetryPolicy(max_attempts=retries + 1)
        results: dict[int, object] = {}
        # attempts[i] counts *failed* attempts of task i so far.
        attempts = [0] * len(submit_args)
        future_index: dict[Future, int] = {}
        submitted_at: dict[int, float] = {}
        # (ready_at, index) pairs waiting out a backoff delay.
        deferred: list[tuple[float, int]] = []

        def _accept(index: int, result) -> None:
            results[index] = result
            if budget is not None:
                try:
                    budget.checkpoint("pool.result")
                except Interrupted:
                    pass  # observed at the loop's status check
            if on_result is not None:
                on_result(index, result)

        def _degrade(index: int) -> None:
            perf.pool_tasks_degraded += 1
            telemetry.event("pool.task_degraded", index=index)
            _accept(index, self.run_local(task, *local_args[index]))

        def _submit(index: int) -> None:
            try:
                future = self.submit(task, *submit_args[index])
            except Exception:
                perf.pool_task_failures += 1
                telemetry.event("pool.task_failed", index=index,
                                stage="submit")
                _degrade(index)
                return
            future_index[future] = index
            submitted_at[index] = time.monotonic()

        def _retry_or_degrade(index: int) -> None:
            """One failed attempt is on the books; re-dispatch per the
            retry policy or dead-letter to in-process degradation."""
            attempts[index] += 1
            if not retry_policy.allows(attempts[index]):
                _degrade(index)
                return
            perf.pool_task_retries += 1
            telemetry.event("pool.task_retry", index=index,
                            attempt=attempts[index])
            delay = retry_policy.delay_seconds(attempts[index],
                                               key=str(index))
            if delay <= 0.0:
                _submit(index)
            else:
                deferred.append((time.monotonic() + delay, index))

        for index in range(len(submit_args)):
            _submit(index)

        while future_index or deferred:
            if deferred:
                now = time.monotonic()
                ready = sorted(
                    item for item in deferred if item[0] <= now
                )
                for item in ready:
                    deferred.remove(item)
                    _submit(item[1])
            if not future_index:
                # Everything unfinished is waiting out a backoff delay.
                if deferred:
                    time.sleep(
                        max(
                            0.0,
                            min(
                                poll_seconds,
                                min(t for t, _ in deferred)
                                - time.monotonic(),
                            ),
                        )
                    )
                if budget is not None:
                    status = budget.status()
                    if status is not None:
                        return results, status
                continue
            done, _ = wait(set(future_index), timeout=poll_seconds)
            broken = False
            for future in sorted(done, key=future_index.__getitem__):
                index = future_index.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    future_index[future] = index  # handled below
                except Exception:
                    perf.pool_task_failures += 1
                    telemetry.event("pool.task_failed", index=index,
                                    stage="result")
                    _retry_or_degrade(index)
                else:
                    _accept(index, result)
            if broken:
                # Every in-flight future on a broken executor is lost.
                perf.pool_broken_restarts += 1
                telemetry.event(
                    "pool.restarted",
                    unfinished=sorted(future_index.values()),
                )
                unfinished = sorted(future_index.values())
                future_index.clear()
                self.restart()
                for index in unfinished:
                    _retry_or_degrade(index)
            if task_deadline is not None:
                now = time.monotonic()
                overdue = [
                    (future, index)
                    for future, index in future_index.items()
                    if now - submitted_at[index] > task_deadline
                ]
                for future, index in sorted(overdue, key=lambda p: p[1]):
                    future.cancel()
                    del future_index[future]
                    perf.pool_task_timeouts += 1
                    telemetry.event("pool.task_timeout", index=index)
                    _degrade(index)
            if budget is not None:
                status = budget.status()
                if status is not None:
                    for future in future_index:
                        future.cancel()
                    return results, status
        return results, None

    def run_local(self, task, *args):
        """Run a task function in-process against the same payload."""
        global _WORKER_CONTEXT
        previous = _WORKER_CONTEXT
        _WORKER_CONTEXT = self._payload
        try:
            return task(*args)
        finally:
            _WORKER_CONTEXT = previous

    def shutdown(self) -> None:
        """Tear the executor down without waiting on cancelled work."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SolverPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
