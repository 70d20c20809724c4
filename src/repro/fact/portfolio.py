"""Portfolio-parallel Tabu search (Phase 3 at ``tabu_portfolio > 1``).

A *portfolio* runs several independently seeded Tabu searches and
keeps the best final partition — the classic algorithm-portfolio
recipe for a stochastic local search whose outcome depends on its
starting point. The members diversify along two axes:

- **starting point**: member *i* starts from construction pass
  ``ranked_labels[i % len(ranked_labels)]`` — the winning pass first,
  then the runner-up passes that tied it on ``(p, n_unassigned)``;
- **perturbation**: every member except member 0 applies a few seeded
  random admissible moves (made tabu) before its descent, so members
  sharing a starting pass still explore different basins.

Member 0 is the plain deterministic search from the winning pass, so
the portfolio's answer is never worse than the single-search answer
for the same construction. The reduction is ``min`` over
``(final_score, member_index)`` — bit-deterministic, which together
with the canonical per-member state rebuild
(:meth:`~repro.fact.state.SolutionState.from_labels`) makes the
portfolio result identical whether members run serially
(``n_jobs == 1``) or on the worker pool.
"""

from __future__ import annotations

import time

from ..obs.telemetry import DISABLED
from ..runtime import Budget, Interrupted, RunStatus
from .config import FaCTConfig
from .pool import portfolio_member_task
from .state import SolutionState
from .tabu import TabuResult, tabu_improve

__all__ = ["improve_portfolio"]

# Perturbation kicks applied by members 1..k-1 before their descent.
# A handful is enough to leave the starting basin; each kick's reverse
# move is tabu, so a member cannot immediately undo its diversification.
_PERTURBATION_KICKS = 3

# Parent-side poll interval while waiting on member futures.
_POLL_SECONDS = 0.05


def improve_portfolio(
    state: SolutionState,
    config: FaCTConfig,
    objective=None,
    budget: Budget | None = None,
    pool=None,
    ranked_labels=None,
    ledger=None,
    runtime_perf=None,
    telemetry=None,
) -> TabuResult:
    """Run a ``config.tabu_portfolio``-member Tabu portfolio.

    *state* is the canonical construction state (member 0's starting
    point); *ranked_labels* the construction passes eligible as
    starting points (defaults to just *state*'s own labels). With
    ``tabu_portfolio == 1`` this is exactly :func:`tabu_improve` on
    *state*. Members run on *pool* (a
    :class:`~repro.fact.pool.SolverPool`) when given and
    ``config.n_jobs > 1``, serially in-process otherwise — with
    bit-identical results.

    The winning member's search statistics are returned; its
    ``heterogeneity_before`` is always member 0's (the winning
    construction pass), so :attr:`TabuResult.improvement` measures
    against the partition the serial solver would have started from.
    Per-member wall-clock lands in *telemetry*'s ``phase_seconds``
    counter under ``tabu.member<i>``, and each member's hot-path
    counters are merged into ``state.perf``.

    *ledger* (a :class:`~repro.fact.checkpointing.SolveLedger`)
    replays members recorded by an earlier killed run and records
    freshly completed ones; *runtime_perf* collects the parallel
    path's worker-fault counters.

    *telemetry* is an optional :class:`repro.obs.SolveTelemetry`: the
    whole phase becomes one ``tabu`` span with a ``member`` span per
    portfolio member (worker-side children stitched in).
    """
    telemetry = telemetry if telemetry is not None else DISABLED
    members = config.tabu_portfolio
    if members <= 1:
        with telemetry.tracer.span("tabu", members=1):
            return tabu_improve(
                state,
                config,
                objective=objective,
                budget=budget,
                tracer=telemetry.tracer,
                telemetry=telemetry,
            )

    with telemetry.tracer.span("tabu", members=members) as tabu_span:
        started = time.perf_counter()
        base_labels = _labels_of(state)
        starts = list(ranked_labels) if ranked_labels else [base_labels]
        detached = objective.detached() if objective is not None else None
        specs = [
            (
                starts[index % len(starts)],
                index,
                config.derived_tabu_seed(index),
                0 if index == 0 else _PERTURBATION_KICKS,
                detached,
            )
            for index in range(members)
        ]

        if pool is not None and config.n_jobs > 1:
            outcomes, status = _run_members_parallel(
                specs, budget, pool, config, ledger, runtime_perf, telemetry
            )
        else:
            outcomes, status = _run_members_serial(
                specs, budget, pool, config, state, ledger, telemetry
            )
        for outcome in outcomes:
            # Member-index order, so the event log is deterministic
            # regardless of worker completion order.
            telemetry.adopt_spans(outcome[4])

        perf = state.perf
        baseline_h = state.total_heterogeneity()
        if not outcomes:
            # Interrupted before any member finished: the construction
            # partition itself is the best available answer.
            return TabuResult(
                partition=state.to_partition(),
                heterogeneity_before=baseline_h,
                heterogeneity_after=baseline_h,
                elapsed_seconds=time.perf_counter() - started,
                status=status or RunStatus.COMPLETE,
            )

        for outcome in outcomes:
            stats, member_perf = outcome[2], outcome[3]
            perf.merge(member_perf)
            telemetry.metrics.counter(
                "phase_seconds", phase=f"tabu.member{stats['member']}"
            ).inc(stats["elapsed_seconds"])
        best = min(outcomes, key=lambda item: (item[0], item[2]["member"]))
        best_score, best_labels, best_stats = best[0], best[1], best[2]

        before = next(
            (
                outcome[2]["heterogeneity_before"]
                for outcome in outcomes
                if outcome[2]["member"] == 0
            ),
            baseline_h,
        )
        if status is None:
            member_status = best_stats["status"]
            if member_status is not RunStatus.COMPLETE:
                status = member_status
        if tabu_span.recording:
            tabu_span.set(
                best_member=best_stats["member"],
                heterogeneity_after=best_score,
                iterations=best_stats["iterations"],
            )
        return TabuResult(
            partition=_partition_from_labels(best_labels),
            heterogeneity_before=before,
            heterogeneity_after=best_score,
            iterations=best_stats["iterations"],
            moves_applied=best_stats["moves_applied"],
            elapsed_seconds=time.perf_counter() - started,
            status=status or RunStatus.COMPLETE,
        )


def _labels_of(state: SolutionState) -> dict[int, int]:
    return {
        area_id: region_id
        for area_id, region_id in state.assignment.items()
        if region_id is not None
    }


def _partition_from_labels(labels: dict[int, int]):
    from ..core.partition import Partition

    return Partition.from_labels(labels)


def _run_members_serial(
    specs, budget, pool, config, state, ledger=None, telemetry=DISABLED
):
    """Run the members one after another in-process.

    Uses the pool's ``run_local`` when a pool exists (so the exact
    same task function executes either way); without one, installs an
    equivalent context from *state* directly. Ledger-recorded members
    are replayed; freshly completed ones are recorded.
    """
    from .pool import SolverPool

    if pool is None:
        pool = SolverPool(
            state.collection,
            state.constraints,
            state.excluded,
            config,
            max_workers=1,
        )
    span_context = telemetry.span_context()
    outcomes = []
    status = None
    for spec in specs:
        if budget is not None:
            status = budget.status()
            if status is not None:
                break
        member_index = spec[1]
        outcome = (
            ledger.lookup_member(member_index) if ledger is not None else None
        )
        if outcome is None:
            outcome = pool.run_local(
                portfolio_member_task, *spec, None, budget, span_context
            )
            if ledger is not None:
                ledger.record_member(member_index, outcome, budget)
        else:
            telemetry.event(
                "checkpoint.replay", phase="tabu", member=member_index
            )
        if budget is not None:
            try:
                budget.checkpoint("pool.result")
            except Interrupted:
                pass  # observed at the next member's status check
        outcomes.append(outcome)
        telemetry.progress(
            "tabu", done=len(outcomes), total=len(specs), member=member_index
        )
    return outcomes, status


def _run_members_parallel(
    specs, budget, pool, config, ledger=None, runtime_perf=None,
    telemetry=DISABLED,
):
    """Fan the members out over the worker pool.

    Collection is fault-tolerant
    (:meth:`~repro.fact.pool.SolverPool.collect_resilient`): a crashed
    or poisoned member retries on surviving workers or degrades to
    in-process execution; workers enforce the remaining deadline
    locally. Ledger-recorded members are replayed without being
    submitted.
    """
    replayed: dict[int, tuple] = {}
    to_run: list[tuple] = []
    for spec in specs:
        outcome = ledger.lookup_member(spec[1]) if ledger is not None else None
        if outcome is not None:
            replayed[spec[1]] = outcome
            telemetry.event(
                "checkpoint.replay", phase="tabu", member=spec[1]
            )
        else:
            to_run.append(spec)

    span_context = telemetry.span_context()
    deadline_remaining = budget.remaining() if budget is not None else None
    submit_args = [
        spec + (deadline_remaining, None, span_context) for spec in to_run
    ]
    local_args = [spec + (None, budget, span_context) for spec in to_run]

    completed = {"count": len(replayed)}
    if replayed:
        telemetry.progress(
            "tabu", done=completed["count"], total=len(specs)
        )

    def _record(position: int, outcome) -> None:
        if ledger is not None:
            ledger.record_member(to_run[position][1], outcome, budget)
        completed["count"] += 1
        telemetry.progress(
            "tabu",
            done=completed["count"],
            total=len(specs),
            member=to_run[position][1],
        )

    collected, status = pool.collect_resilient(
        portfolio_member_task,
        submit_args,
        local_args,
        budget=budget,
        perf=runtime_perf,
        retry_policy=config.pool_retry_policy(),
        task_deadline=config.worker_task_deadline_seconds,
        on_result=_record,
        poll_seconds=_POLL_SECONDS,
        telemetry=telemetry,
    )

    outcome_by_member = dict(replayed)
    for position, outcome in collected.items():
        outcome_by_member[to_run[position][1]] = outcome
    # Member-index order == submission order.
    outcomes = [outcome_by_member[m] for m in sorted(outcome_by_member)]
    return outcomes, status
