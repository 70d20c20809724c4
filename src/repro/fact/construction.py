"""FaCT Phase 2 — the construction phase orchestrator.

Runs the feasibility phase, Step 1 (filtering/seeding), then several
independent randomized construction passes (Steps 2 and 3 each pass)
and keeps the best one: largest ``p``, ties broken by fewest
unassigned areas, then by lower heterogeneity. The winning pass's
labels are rebuilt into a canonical live
:class:`~repro.fact.state.SolutionState`
(:meth:`SolutionState.from_labels`) which is handed to the local-search
phase.

Every pass is one work unit of the solve's
:class:`~repro.fact.pool.SolverPool`: :meth:`SolverPool.run_units`
runs :func:`repro.fact.pool.construction_pass_task` on a
deterministic seed derived from ``rng_seed`` and the pass index —
in-process when ``n_jobs == 1``, fanned out over worker processes
otherwise — and handles ledger replay, progress and span adoption the
same way for both. Because the per-pass seeds, the reduction tie-break
(pass index) and the canonical rebuild do not depend on where a pass
ran, construction results are bit-identical at any worker count.

Every pass observes an optional :class:`repro.runtime.Budget` at its
iteration boundaries (pass start, each seed, each enclave sweep, each
adjustment phase). On deadline or cancellation the in-flight pass is
*salvaged*, not discarded: construction only ever builds regions out
of whole contiguous pieces, so dissolving the constraint-violating
ones (:func:`repro.fact.adjustment.dissolve_infeasible`) leaves a
valid — if smaller — candidate partition, and the best pass seen so
far is returned flagged with the interruption
:class:`~repro.runtime.RunStatus`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.area import AreaCollection
from ..core.constraints import ConstraintSet
from ..core.partition import Partition
from ..obs.telemetry import DISABLED
from ..runtime import Budget, RunStatus
from .config import FaCTConfig
from .feasibility import FeasibilityReport, check_feasibility
from .pool import SolverPool, construction_pass_task
from .seeding import SeedingResult, select_seeds
from .state import SolutionState

__all__ = ["ConstructionResult", "construct"]

@dataclass
class ConstructionResult:
    """Outcome of the construction phase.

    Attributes
    ----------
    state:
        The winning pass's solution state, canonically rebuilt from
        its labels (consumed by Tabu).
    partition:
        Frozen snapshot of that state.
    feasibility:
        The Phase-1 report (invalid areas, warnings).
    seeding:
        The Step-1 seed classification.
    iterations:
        Number of construction passes actually executed (equals
        ``config.construction_iterations`` unless interrupted).
    pass_scores:
        ``(p, n_unassigned)`` per executed pass, for diagnostics.
    ranked_labels:
        Label snapshots of the executed passes that tied the winning
        pass on ``(p, n_unassigned)``, best first — the starting
        points for the Tabu portfolio. ``ranked_labels[0]`` is the
        winning pass itself.
    elapsed_seconds:
        Wall-clock construction time (feasibility included).
    status:
        ``COMPLETE``, or the :class:`~repro.runtime.RunStatus` of the
        deadline/cancel that cut the phase short (the partition is
        then the best-so-far candidate).
    """

    state: SolutionState
    partition: Partition
    feasibility: FeasibilityReport
    seeding: SeedingResult
    iterations: int
    pass_scores: list[tuple[int, int]] = field(default_factory=list)
    ranked_labels: list[dict[int, int]] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    status: RunStatus = RunStatus.COMPLETE

    @property
    def p(self) -> int:
        """Number of regions in the constructed partition."""
        return self.partition.p

    @property
    def interrupted(self) -> bool:
        """True when the phase stopped on deadline or cancellation."""
        return self.status is not RunStatus.COMPLETE


def construct(
    collection: AreaCollection,
    constraints: ConstraintSet,
    config: FaCTConfig | None = None,
    feasibility: FeasibilityReport | None = None,
    budget: Budget | None = None,
    pool=None,
    attempt_index: int = 0,
    ledger=None,
    runtime_perf=None,
    telemetry=None,
    key_prefix: str = "",
) -> ConstructionResult:
    """Build a feasible initial partition maximizing ``p``.

    Raises :class:`repro.exceptions.InfeasibleProblemError` when the
    feasibility phase proves no solution exists. When *budget* expires
    (or its token is cancelled) mid-phase, returns the best-so-far
    partition flagged with the interruption status instead of raising.

    *pool* is the :class:`repro.fact.pool.SolverPool` the passes run
    on — the solver shares one pool, sized ``config.n_jobs``, across
    its construction attempts and the Tabu portfolio. Without one the
    passes run in-process.

    *ledger* is an optional
    :class:`~repro.fact.checkpointing.SolveLedger`: completed passes
    are recorded to it (keyed ``{key_prefix}construction/{attempt}/
    {pass}`` by *attempt_index* and pass index) and previously
    recorded passes are replayed instead of recomputed — the
    checkpoint/resume mechanism. A decomposed solve's components use
    the *key_prefix* ``component/{i}/``. *runtime_perf* collects the
    pool's worker-fault counters.

    *telemetry* is an optional :class:`repro.obs.SolveTelemetry`: each
    pass becomes a ``pass`` span (with ``grow``/``enclave``/
    ``extrema``/``adjust`` children) parented under the caller's
    current span — worker-side spans included, stitched back through
    the task results.
    """
    config = config or FaCTConfig()
    telemetry = telemetry if telemetry is not None else DISABLED
    budget = (budget or Budget.unlimited()).start()
    started = time.perf_counter()
    if feasibility is None:
        feasibility = check_feasibility(
            collection, constraints, config, budget=budget
        )
    feasibility.raise_if_infeasible()
    seeding = select_seeds(collection, constraints, feasibility)

    if pool is None:
        pool = SolverPool(
            collection, constraints, feasibility.invalid_areas, config,
            max_workers=1,
        )
    results, status = pool.run_units(
        construction_pass_task,
        [
            (seeding, config.derived_pass_seed(index), config, index)
            for index in range(config.construction_iterations)
        ],
        phase="construction",
        unit="index",
        context={"attempt": attempt_index},
        key_prefix=f"{key_prefix}construction/{attempt_index}/",
        start_checkpoint="construction.pass.start",
        budget=budget,
        ledger=ledger,
        perf=runtime_perf,
        telemetry=telemetry,
    )

    ranked_labels: list[dict[int, int]] = []
    if results:
        # Submission order breaks ties, keeping the chosen pass (and
        # the portfolio's starting points) deterministic regardless of
        # completion order.
        order = sorted(
            range(len(results)), key=lambda i: (results[i].score, i)
        )
        best = results[order[0]]
        # Only passes matching the winner's (p, n_unassigned) may seed
        # portfolio members: Tabu preserves both, and the portfolio
        # reduction compares members by objective score alone.
        ranked_labels = [
            results[i].labels
            for i in order
            if results[i].score[:2] == best.score[:2]
        ]
        best_state = SolutionState.from_labels(
            collection,
            constraints,
            best.labels,
            excluded=feasibility.invalid_areas,
            perf=best.perf,
        )
    else:
        # Interrupted before any pass produced a candidate: an empty
        # state is still a valid (p=0, all-unassigned) partial answer.
        best_state = SolutionState(
            collection, constraints, excluded=feasibility.invalid_areas
        )
    return ConstructionResult(
        state=best_state,
        partition=best_state.to_partition(),
        feasibility=feasibility,
        seeding=seeding,
        iterations=len(results),
        pass_scores=[result.stats for result in results],
        ranked_labels=ranked_labels,
        elapsed_seconds=time.perf_counter() - started,
        status=status or RunStatus.COMPLETE,
    )


def _score_key(state: SolutionState) -> tuple:
    """Pass comparison key: maximize p, then minimize unassigned, then
    minimize H."""
    return (-state.p, state.n_unassigned, state.total_heterogeneity())
