"""Step-by-step construction tracing.

The paper emphasizes that FaCT "reports output statistics to users so
they are equipped with information about the impact of different
threshold ranges" (§VII-B3). :func:`trace_solve` takes that one level
deeper and summarizes the partition after every step — feasibility,
Substeps 2.1/2.2/2.3, Step 3 and Tabu — so an analyst can see exactly
where areas were filtered, seeded, absorbed, rescued or given up on:

    trace = trace_solve(collection, constraints)
    print(trace.format())

The trace reads a real solve: one construction pass, no retries, a
single Tabu search, run by :class:`~repro.fact.solver.FaCT` with
in-memory telemetry. Its step snapshots are the attributes the solve's
own ``feasibility``/``grow``/``enclave``/``extrema``/``adjust`` spans
carry, and its final step, partition and perf come from the returned
:class:`~repro.fact.solver.EMPSolution` — the trace shows pass 0 of
that solve, not a re-enactment of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core.area import AreaCollection
from ..core.constraints import ConstraintSet
from ..core.partition import Partition
from ..obs.telemetry import SolveTelemetry
from .config import FaCTConfig

__all__ = ["StepSnapshot", "SolveTrace", "trace_solve"]

# (span name, step name, description) of the construction steps, in
# pipeline order.
_SPAN_STEPS = (
    (
        "grow",
        "step2.1 seeding",
        "in-range seeds to singletons; Algorithm 1 on off-range seeds",
    ),
    (
        "enclave",
        "step2.2 enclaves",
        "round-1 sweeps + round-2 merges (merge limit {merge_limit})",
    ),
    ("extrema", "step2.3 extrema", "regions merged to cover all MIN/MAX"),
    (
        "adjust",
        "step3 adjustments",
        "absorb/swap/merge/trim for SUM-COUNT; infeasible dissolved",
    ),
)


@dataclass(frozen=True)
class StepSnapshot:
    """State summary after one pipeline step."""

    step: str
    description: str
    p: int
    n_assigned: int
    n_unassigned: int
    n_excluded: int
    heterogeneity: float

    def format(self) -> str:
        """One human-readable trace line."""
        return (
            f"{self.step:<22} p={self.p:<5} assigned={self.n_assigned:<6} "
            f"unassigned={self.n_unassigned:<6} "
            f"excluded={self.n_excluded:<5} H={self.heterogeneity:,.0f}"
            f"  [{self.description}]"
        )


@dataclass
class SolveTrace:
    """Full trace of one FaCT run.

    ``perf`` carries the run's hot-path counters (see
    :class:`repro.core.perf.PerfCounters`) so a trace shows not just
    *what* each step decided but how much contiguity/frontier work it
    cost.
    """

    snapshots: list[StepSnapshot] = field(default_factory=list)
    partition: Partition | None = None
    perf: object | None = None

    def step(self, name: str) -> StepSnapshot:
        """The snapshot recorded for a named step."""
        for snapshot in self.snapshots:
            if snapshot.step == name:
                return snapshot
        raise KeyError(f"no snapshot for step {name!r}")

    def format(self) -> str:
        """The whole trace as an aligned text block."""
        lines = [snapshot.format() for snapshot in self.snapshots]
        if self.perf is not None:
            lines.append(
                f"{'hot-path':<22} "
                f"contiguity={self.perf.contiguity_checks} "
                f"oracle_hit_rate={self.perf.oracle_hit_rate:.1%} "
                f"traversals={self.perf.graph_traversals} "
                f"candidates={self.perf.candidate_evaluations}"
            )
        return "\n".join(lines)


def trace_solve(
    collection: AreaCollection,
    constraints: ConstraintSet,
    config: FaCTConfig | None = None,
) -> SolveTrace:
    """Solve with one construction pass and return its step-by-step
    record.

    Runs ``FaCT`` on *config* with one construction pass, no retry
    attempts, a one-member Tabu portfolio, no component decomposition
    and no checkpoint file. Raises
    :class:`repro.exceptions.InfeasibleProblemError` exactly as that
    solve does when the query is infeasible.
    """
    from .solver import FaCT

    # No checkpoint: the traced solve must not overwrite the caller's.
    config = replace(
        config or FaCTConfig(),
        construction_iterations=1,
        construction_retry_attempts=0,
        tabu_portfolio=1,
        decompose_components=False,
        checkpoint_path=None,
    )
    telemetry = SolveTelemetry(verbosity=2)
    solution = FaCT(config).solve(collection, constraints, telemetry=telemetry)
    spans = {
        record["name"]: record["attrs"] for record in telemetry.tracer.finished
    }
    n_excluded = solution.feasibility.n_invalid

    def snapshot(step, description, p, n_unassigned, heterogeneity):
        return StepSnapshot(
            step=step,
            description=description,
            p=p,
            n_assigned=len(collection) - n_unassigned - n_excluded,
            n_unassigned=n_unassigned,
            n_excluded=n_excluded,
            heterogeneity=heterogeneity,
        )

    trace = SolveTrace(partition=solution.partition, perf=solution.perf)
    trace.snapshots.append(
        snapshot(
            "feasibility",
            f"{spans['feasibility']['n_invalid']} invalid areas filtered, "
            f"{len(solution.construction.seeding.seeds)} seeds marked",
            0,
            len(collection) - n_excluded,
            0.0,
        )
    )
    for span_name, step, description in _SPAN_STEPS:
        attrs = spans.get(span_name, {})
        if "p" not in attrs:  # the pass was interrupted in this step
            break
        trace.snapshots.append(
            snapshot(
                step,
                description.format(merge_limit=config.merge_limit),
                attrs["p"],
                attrs["n_unassigned"],
                attrs["heterogeneity"],
            )
        )
    if solution.tabu is not None:
        trace.snapshots.append(
            snapshot(
                "tabu",
                f"{solution.tabu.moves_applied} moves, "
                f"{solution.improvement:.1%} improvement",
                solution.p,
                solution.n_unassigned - n_excluded,
                solution.heterogeneity,
            )
        )
    return trace
