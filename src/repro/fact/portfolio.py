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
for the same construction. Members are work units of the solve's
:class:`~repro.fact.pool.SolverPool` (:meth:`SolverPool.run_units`,
the same runner as the construction passes), which returns them in
member-index order whether they ran in-process (``n_jobs == 1``) or
on worker processes. The reduction is ``min`` over
``(final_score, member_index)`` — bit-deterministic, which together
with the canonical per-member state rebuild
(:meth:`~repro.fact.state.SolutionState.from_labels`) makes the
portfolio result identical at any worker count.
"""

from __future__ import annotations

import time

from ..core.partition import Partition
from ..obs.telemetry import DISABLED
from ..runtime import Budget, RunStatus
from .config import FaCTConfig
from .pool import SolverPool, portfolio_member_task
from .state import SolutionState
from .tabu import TabuResult, tabu_improve

__all__ = ["improve_portfolio"]

# Perturbation kicks applied by members 1..k-1 before their descent.
# A handful is enough to leave the starting basin; each kick's reverse
# move is tabu, so a member cannot immediately undo its diversification.
_PERTURBATION_KICKS = 3


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
    key_prefix: str = "",
) -> TabuResult:
    """Run a ``config.tabu_portfolio``-member Tabu portfolio.

    *state* is the canonical construction state (member 0's starting
    point); *ranked_labels* the construction passes eligible as
    starting points (defaults to just *state*'s own labels). With
    ``tabu_portfolio == 1`` this is exactly :func:`tabu_improve` on
    *state*. Members are work units of *pool* (the solve's
    :class:`~repro.fact.pool.SolverPool`; without one they run
    in-process) — with bit-identical results at any worker count.

    The winning member's search statistics are returned; its
    ``heterogeneity_before`` is always member 0's (the winning
    construction pass), so :attr:`TabuResult.improvement` measures
    against the partition the serial solver would have started from.
    Per-member wall-clock lands in *telemetry*'s ``phase_seconds``
    counter under ``tabu.member<i>``, and each member's hot-path
    counters are merged into ``state.perf``.

    *ledger* (a :class:`~repro.fact.checkpointing.SolveLedger`)
    replays members recorded by an earlier killed run and records
    freshly completed ones, keyed ``{key_prefix}tabu/{member}``;
    *runtime_perf* collects the pool's worker-fault counters.

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

        if pool is None:
            pool = SolverPool(
                state.collection, state.constraints, state.excluded, config,
                max_workers=1,
            )
        outcomes, status = pool.run_units(
            portfolio_member_task,
            specs,
            phase="tabu",
            unit="member",
            key_prefix=f"{key_prefix}tabu/",
            budget=(budget or Budget.unlimited()).start(),
            ledger=ledger,
            perf=runtime_perf,
            telemetry=telemetry,
        )

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
            perf.merge(outcome.perf)
            telemetry.metrics.counter(
                "phase_seconds", phase=f"tabu.member{outcome.stats['member']}"
            ).inc(outcome.stats["elapsed_seconds"])
        # Members come back in member-index order, so min keeps the
        # lowest index among equal scores.
        best = min(outcomes, key=lambda outcome: outcome.score)
        best_stats = best.stats
        before = (
            outcomes[0].stats["heterogeneity_before"]
            if outcomes[0].stats["member"] == 0
            else baseline_h
        )
        if tabu_span.recording:
            tabu_span.set(
                best_member=best_stats["member"],
                heterogeneity_after=best.score,
                iterations=best_stats["iterations"],
            )
        return TabuResult(
            partition=Partition.from_labels(best.labels),
            heterogeneity_before=before,
            heterogeneity_after=best.score,
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


