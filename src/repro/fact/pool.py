"""The solve's work-unit runner and its worker pool.

FaCT keeps the best of several independent construction passes and,
at ``tabu_portfolio > 1``, of several seeded Tabu members. Each pass
and each member is one *work unit*: a task function of this module
that returns a :class:`UnitResult` depending only on its arguments.
One :class:`SolverPool` is created per :meth:`FaCT.solve` call and
runs every unit of it through :meth:`SolverPool.run_units` — ledger
replay, run, record, progress, span adoption and the status
reduction, in that order, for both unit kinds and at any ``n_jobs``.

At ``n_jobs == 1`` units run in-process on the live budget. Above it
they fan out over a process pool, created lazily on the first
submission and shared by every parallel stage of the solve. The heavy,
immutable payload (area collection, constraint set, excluded areas,
config) is shipped to each worker process exactly once, through the
executor's *initializer*; individual task submissions then carry only
the per-task scalars (a seed, a label snapshot, a deadline).

Worker tasks rebuild live solver state with
:meth:`repro.fact.state.SolutionState.from_labels` (the canonical
renumbering), so a task's result depends only on its arguments — never
on which process ran it or in what order — and :meth:`run_units`
returns results in unit-index order. That is what makes solve results
bit-identical across ``n_jobs`` values.

Budgets do not cross process boundaries (the parent's cancellation
token is invisible there), so each fanned-out task receives the parent
budget's *remaining seconds* and enforces it with a local
:class:`~repro.runtime.Budget`; the parent additionally polls its own
budget while waiting and cancels still-pending futures on interrupt.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple
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

__all__ = ["SolverPool", "UnitResult"]

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


class UnitResult(NamedTuple):
    """What one work unit — a construction pass or a Tabu portfolio
    member — hands back to :meth:`SolverPool.run_units`.

    ``score`` orders units (a pass's ``(-p, n_unassigned, H)`` key, a
    member's final objective score); ``stats`` is a pass's
    ``(p, n_unassigned)`` or a member's search statistics dict;
    ``status`` is ``None`` for a completed unit, else the interruption
    that cut it short. The first three fields are what the solve ledger
    persists; ``perf`` and ``spans`` are diagnostics.
    """

    score: object
    labels: dict[int, int]
    stats: object
    status: RunStatus | None
    perf: PerfCounters
    spans: list


def construction_pass_task(
    seeding,
    pass_seed: int,
    config_override: FaCTConfig | None = None,
    pass_index: int | None = None,
    deadline_seconds: float | None = None,
    budget: Budget | None = None,
    span_context=None,
) -> UnitResult:
    """One construction pass against the installed worker context.

    Regions travel back as labels because live states are cheaper to
    rebuild than to pickle. *config_override* carries a retry
    attempt's config (same knobs, different base seed); the actual
    randomness comes from *pass_seed* either way. In-process callers
    pass their live *budget* (cancellation token included); worker
    submissions pass *deadline_seconds* instead and get a local one.

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
    return UnitResult(
        score=_score_key(state),
        labels=labels,
        stats=(state.p, state.n_unassigned),
        status=status,
        perf=state.perf,
        spans=list(tracer.finished),
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
) -> UnitResult:
    """One Tabu portfolio member against the installed worker context.

    Rebuilds the member's starting state canonically from *labels* and
    runs the full Tabu search (perturbed first when
    ``perturbation_moves > 0``). The result's score is the member's
    final objective score and its labels the best partition found.
    Deterministic in its arguments, wherever it runs.

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
    stats = {
        "member": member_index,
        "heterogeneity_before": result.heterogeneity_before,
        "heterogeneity_after": result.heterogeneity_after,
        "iterations": result.iterations,
        "moves_applied": result.moves_applied,
        "elapsed_seconds": result.elapsed_seconds,
    }
    return UnitResult(
        score=result.heterogeneity_after,
        labels=result.partition.labels(),
        stats=stats,
        status=None if result.status is RunStatus.COMPLETE else result.status,
        perf=state.perf,
        spans=list(tracer.finished),
    )


class SolverPool:
    """A process pool bound to one solve's immutable payload.

    The executor is created lazily on the first submission, so building
    a :class:`SolverPool` is free when every unit runs in-process
    (``max_workers == 1``). ``run_local`` executes the same task
    functions in-process (after installing the payload as the
    in-process context), which is how ``n_jobs=1`` and worker
    execution stay behaviorally identical.
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

    def run_units(
        self,
        task,
        specs: list[tuple],
        *,
        phase: str,
        unit: str,
        budget: Budget,
        key_prefix: str,
        context: dict | None = None,
        start_checkpoint: str | None = None,
        ledger=None,
        perf: PerfCounters | None = None,
        telemetry=None,
    ) -> tuple[list[UnitResult], RunStatus | None]:
        """Run one work unit per spec and return the results in spec
        order with the phase's interruption status (``None`` when
        every unit completed).

        Unit *i* calls ``task(*specs[i], deadline_seconds, budget,
        span_context)``. For each unit, in order: a unit recorded on
        *ledger* under ``f"{key_prefix}{i}"`` is replayed instead of
        run (a ``checkpoint.replay`` event); a fresh completed unit is
        recorded there; every unit reports ``progress`` for *phase*
        (*context* fields plus ``{unit: i}``). Finished spans are then
        adopted in index order, so the event log does not depend on
        worker completion order, and the status is the budget's
        interruption or else the first interrupted unit's.

        With ``max_workers == 1`` the units run inline on the live
        *budget* (cancellation observed mid-unit), each behind
        *start_checkpoint* (a plain status check when ``None``), and
        the first interrupted unit ends the phase. Otherwise the gate
        runs once and the units fan out over the pool through
        :meth:`collect_resilient`, each worker enforcing the budget's
        remaining seconds locally. Either way only a unit that ran
        passes the ``pool.result`` fault checkpoint; a replayed one
        does not.
        """
        telemetry = telemetry if telemetry is not None else DISABLED
        context = context or {}
        config = self._payload[3]
        span_context = telemetry.span_context()
        done: dict[int, UnitResult] = {}

        def _gate() -> RunStatus | None:
            if start_checkpoint is None:
                return budget.status()
            try:
                budget.checkpoint(start_checkpoint)
            except Interrupted as signal:
                return signal.status
            return None

        def _replay(index: int) -> UnitResult | None:
            if ledger is None:
                return None
            result = ledger.lookup(f"{key_prefix}{index}")
            if result is not None:
                telemetry.event(
                    "checkpoint.replay", phase=phase, **context,
                    **{unit: index},
                )
            return result

        def _finish(index: int, result: UnitResult, fresh: bool) -> None:
            if fresh and ledger is not None:
                ledger.record(f"{key_prefix}{index}", result, budget)
            done[index] = result
            telemetry.progress(
                phase, done=len(done), total=len(specs), **context,
                **{unit: index},
            )

        status: RunStatus | None = None
        if self.max_workers == 1:
            for index, spec in enumerate(specs):
                status = _gate()
                if status is not None:
                    break
                result = _replay(index)
                fresh = result is None
                if fresh:
                    result = self.run_local(
                        task, *spec, None, budget, span_context
                    )
                    try:
                        budget.checkpoint("pool.result")
                    except Interrupted:
                        pass  # observed at the next unit's gate
                _finish(index, result, fresh)
                if result.status is not None:
                    break
        else:
            status = _gate()
            if status is None:
                to_run = []
                for index in range(len(specs)):
                    result = _replay(index)
                    if result is None:
                        to_run.append(index)
                    else:
                        _finish(index, result, fresh=False)
                remote = (budget.remaining(), None, span_context)
                local = (None, budget, span_context)
                _, status = self.collect_resilient(
                    task,
                    [specs[i] + remote for i in to_run],
                    [specs[i] + local for i in to_run],
                    budget=budget,
                    perf=perf,
                    retry_policy=config.pool_retry_policy(),
                    task_deadline=config.worker_task_deadline_seconds,
                    on_result=lambda position, result: _finish(
                        to_run[position], result, fresh=True
                    ),
                    telemetry=telemetry,
                )
        results = [done[index] for index in sorted(done)]
        for result in results:
            telemetry.adopt_spans(result.spans)
        if status is None:
            status = next(
                (r.status for r in results if r.status is not None), None
            )
        return results, status

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
