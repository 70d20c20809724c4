"""The FaCT solver facade — the library's main entry point.

Typical usage::

    from repro import FaCT, FaCTConfig, ConstraintSet
    from repro.core import min_constraint, avg_constraint, sum_constraint
    from repro.data import load_dataset

    collection = load_dataset("2k")
    constraints = ConstraintSet([
        min_constraint("POP16UP", upper=3000),
        avg_constraint("EMPLOYED", 1500, 3500),
        sum_constraint("TOTALPOP", lower=20000),
    ])
    solution = FaCT(FaCTConfig(rng_seed=7)).solve(collection, constraints)
    print(solution.p, solution.heterogeneity, solution.improvement)

The solver runs the three phases in order — feasibility, construction,
Tabu local search — and returns an :class:`EMPSolution` carrying the
final partition plus the per-phase statistics the paper reports
(construction time, tabu time, ``p``, unassigned count, heterogeneity
improvement).

Resilience: a run can carry a wall-clock deadline and a cancellation
token (``FaCTConfig(deadline_seconds=...)`` or an explicit
:class:`repro.runtime.Budget` passed to :meth:`FaCT.solve`). On
deadline or cancel the solver returns the best-so-far solution flagged
with a :class:`~repro.runtime.RunStatus` instead of raising — or, with
``strict_interrupt=True``, raises
:class:`repro.exceptions.SolverInterrupted` carrying that same partial
solution. Degenerate constructions (``p == 0`` or almost everything
unassigned) are retried automatically with derived seeds, each attempt
recorded in :attr:`EMPSolution.attempts`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from ..certify import Certificate, certify_partition
from ..core.area import AreaCollection
from ..core.constraints import Constraint, ConstraintSet
from ..core.partition import Partition
from ..core.perf import PerfCounters
from ..exceptions import SolverInterrupted
from ..obs.telemetry import DISABLED, resolve_telemetry
from ..preflight import PreflightReport, build_report, scan_structure
from ..runtime import Budget, Interrupted, RunStatus
from ..runtime.faults import set_fault_listener
from .checkpointing import SolveLedger
from .config import CertifyLevel, FaCTConfig
from .construction import ConstructionResult, construct
from .feasibility import FeasibilityReport, check_feasibility
from .pool import SolverPool
from .portfolio import improve_portfolio
from .seeding import select_seeds
from .state import SolutionState
from .tabu import TabuResult

__all__ = [
    "ComponentProvenance",
    "ConstructionAttempt",
    "EMPSolution",
    "FaCT",
    "solve_emp",
]


@dataclass(frozen=True)
class ComponentProvenance:
    """Where one connected component's regions came from in a
    decomposed (``FaCTConfig.decompose_components``) solve.

    Attributes
    ----------
    index:
        Component index in the preflight report's canonical order
        (ascending smallest member id).
    n_areas:
        Areas in the component.
    p:
        Regions the component contributed to the merged partition.
    n_unassigned:
        Component areas left in ``U_0``.
    regions:
        The component's region indices *in the merged partition's
        final numbering* (canonical renumbering interleaves regions
        across components, so this is a sparse tuple, not a range).
    status:
        ``"complete"``, an interruption status value, or
        ``"infeasible"`` when the component's own Phase-1 scan proved
        no region can form there (its areas stay unassigned).
    heterogeneity:
        ``H`` summed over the component's regions.
    seconds:
        Wall-clock spent solving the component.
    """

    index: int
    n_areas: int
    p: int
    n_unassigned: int
    regions: tuple[int, ...]
    status: str
    heterogeneity: float
    seconds: float

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "n_areas": self.n_areas,
            "p": self.p,
            "n_unassigned": self.n_unassigned,
            "regions": list(self.regions),
            "status": self.status,
            "heterogeneity": self.heterogeneity,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class ConstructionAttempt:
    """Diagnostics for one construction attempt under the retry policy.

    The first attempt uses ``FaCTConfig.rng_seed``; retries (triggered
    by a degenerate partition) use seeds derived from it. In a
    decomposed solve each component runs its own retry policy, and
    ``component`` names the component index the attempt belongs to
    (``None`` for a whole solve).
    """

    seed: int
    p: int
    n_unassigned: int
    degenerate: bool
    elapsed_seconds: float
    component: int | None = None


@dataclass(frozen=True)
class EMPSolution:
    """Result of one FaCT run.

    Attributes
    ----------
    partition:
        The final regions and ``U_0``.
    feasibility:
        The Phase-1 report.
    construction:
        Phase-2 diagnostics (pass scores, timing) of the winning
        attempt.
    tabu:
        Phase-3 diagnostics, or ``None`` when the local search was
        disabled (or never started because the budget ran out first).
        A decomposed solve sums its components' searches over the
        merged partition (see ``FaCT._solve_components``).
    status:
        ``RunStatus.COMPLETE`` for a full run; ``DEADLINE_EXCEEDED`` or
        ``CANCELLED`` when the run was interrupted and this solution is
        the best one found before the interruption.
    feasibility_seconds:
        Wall-clock time of the Phase-1 scan alone.
    attempts:
        One :class:`ConstructionAttempt` per construction tried by the
        degenerate-retry policy (a single entry for ordinary runs; one
        or more per solved component of a decomposed solve — see
        :meth:`attempts_by_problem`).
    perf:
        Hot-path counters of the winning construction pass and the
        Tabu search that refined it (contiguity-oracle hits/rebuilds,
        candidate evaluations, index traffic), plus the solve's
        resilience counters (worker-pool failures/retries/degrades,
        checkpoint writes/replays, certifications). ``None`` only for
        hand-built solutions.
    certificate:
        The :class:`repro.certify.Certificate` of the final partition
        when ``FaCTConfig.certify`` resolved to ``"final"`` or
        ``"paranoid"`` — always a *valid* one, since an invalid
        certification raises instead of returning. ``None`` with
        certification off.
    preflight:
        The :class:`repro.preflight.PreflightReport` of the gate run
        before construction (``None`` with ``config.preflight`` off).
        Solutions only ever carry reports with no error findings — an
        error raises :class:`repro.exceptions.InfeasibleProblemError`
        instead of solving.
    provenance:
        Per-component :class:`ComponentProvenance` entries of a
        decomposed solve (empty for single-component solves and with
        ``decompose_components`` off).
    """

    partition: Partition
    feasibility: FeasibilityReport
    construction: ConstructionResult
    tabu: TabuResult | None = None
    status: RunStatus = RunStatus.COMPLETE
    feasibility_seconds: float = 0.0
    attempts: tuple[ConstructionAttempt, ...] = ()
    perf: PerfCounters | None = None
    certificate: Certificate | None = None
    preflight: PreflightReport | None = None
    provenance: tuple[ComponentProvenance, ...] = ()

    # -- the paper's three performance measures (Section VII-A) --------
    @property
    def p(self) -> int:
        """Answer-set size: the number of regions."""
        return self.partition.p

    @property
    def n_unassigned(self) -> int:
        """Size of ``U_0`` (invalid + unassignable areas)."""
        return len(self.partition.unassigned)

    @property
    def construction_seconds(self) -> float:
        """Wall-clock time of feasibility + construction."""
        return self.construction.elapsed_seconds

    @property
    def tabu_seconds(self) -> float:
        """Wall-clock time of the local search (0 when disabled)."""
        return self.tabu.elapsed_seconds if self.tabu else 0.0

    @property
    def total_seconds(self) -> float:
        """Total solver wall-clock time."""
        return self.construction_seconds + self.tabu_seconds

    @property
    def interrupted(self) -> bool:
        """True when this is a best-so-far result of an interrupted run."""
        return self.status is not RunStatus.COMPLETE

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Per-phase wall-clock breakdown."""
        return {
            "feasibility": self.feasibility_seconds,
            "construction": self.construction_seconds,
            "tabu": self.tabu_seconds,
        }

    @property
    def heterogeneity_before(self) -> float:
        """``H(P)`` after construction, before local search."""
        if self.tabu:
            return self.tabu.heterogeneity_before
        return self.construction.state.total_heterogeneity()

    @property
    def heterogeneity(self) -> float:
        """``H(P)`` of the final partition."""
        if self.tabu:
            return self.tabu.heterogeneity_after
        return self.heterogeneity_before

    @property
    def improvement(self) -> float:
        """Relative heterogeneity improvement from the local search."""
        return self.tabu.improvement if self.tabu else 0.0

    def attempts_by_problem(
        self,
    ) -> dict[int | None, tuple[ConstructionAttempt, ...]]:
        """:attr:`attempts` grouped by the (sub)problem that ran them:
        ``None`` for a whole solve, the component index for each solved
        component of a decomposed one. Every group beyond one attempt
        retried a degenerate construction."""
        groups: dict[int | None, list[ConstructionAttempt]] = {}
        for attempt in self.attempts:
            groups.setdefault(attempt.component, []).append(attempt)
        return {key: tuple(group) for key, group in groups.items()}

    def summary(self) -> dict[str, object]:
        """The output statistics FaCT reports to users (Section
        VII-B3), as a plain dict. ``n_construction_attempts`` is the
        most attempts any one (sub)problem ran, so ``1`` means no
        retries anywhere."""
        return {
            "p": self.p,
            "n_unassigned": self.n_unassigned,
            "status": self.status.value,
            "heterogeneity_before": round(self.heterogeneity_before, 3),
            "heterogeneity_after": round(self.heterogeneity, 3),
            "improvement": round(self.improvement, 4),
            "construction_seconds": round(self.construction_seconds, 4),
            "tabu_seconds": round(self.tabu_seconds, 4),
            "n_construction_attempts": max(
                (len(group) for group in self.attempts_by_problem().values()),
                default=1,
            ),
            "n_invalid_areas": self.feasibility.n_invalid,
            "warnings": list(self.feasibility.warnings),
            "perf": self.perf.as_dict() if self.perf is not None else None,
            "certificate": (
                self.certificate.as_dict()
                if self.certificate is not None
                else None
            ),
            "preflight": (
                self.preflight.as_dict()
                if self.preflight is not None
                else None
            ),
            "provenance": [entry.as_dict() for entry in self.provenance],
        }


class FaCT:
    """The three-phase FaCT solver (Feasibility, Construction, Tabu).

    Stateless apart from its :class:`FaCTConfig`; one instance can
    solve many problems.

    Parameters
    ----------
    config:
        Solver knobs (seeds, merge limit, Tabu settings, deadline and
        retry policy).
    objective:
        Optional :class:`repro.fact.objectives.Objective` for the
        local-search phase — e.g. ``CompactnessObjective()`` or a
        ``WeightedObjective`` balancing several criteria. Defaults to
        the paper's heterogeneity ``H(P)``.
    """

    def __init__(self, config: FaCTConfig | None = None, objective=None):
        self.config = config or FaCTConfig()
        self.objective = objective

    def check(
        self, collection: AreaCollection, constraints: ConstraintSet
    ) -> FeasibilityReport:
        """Run only the feasibility phase (Phase 1)."""
        return check_feasibility(collection, constraints, self.config)

    def solve(
        self,
        collection: AreaCollection,
        constraints: ConstraintSet | None = None,
        budget: Budget | None = None,
        resume_from=None,
        telemetry=None,
    ) -> EMPSolution:
        """Solve one EMP instance end to end.

        Parameters
        ----------
        budget:
            Optional :class:`repro.runtime.Budget` to observe. When
            omitted, one is built from ``config.deadline_seconds``
            (unlimited by default). Deadline expiry or cancellation of
            the budget's token ends the run gracefully at the next
            checkpoint: the best-so-far solution is returned flagged
            with its :class:`~repro.runtime.RunStatus` — or, with
            ``config.strict_interrupt``, raised inside
            :class:`repro.exceptions.SolverInterrupted` (carrying the
            partial solution, its labels and — when certification is
            on — its certificate).
        resume_from:
            Path of a solve-checkpoint file written by an earlier
            (killed or interrupted) run of the *same* problem
            (``config.checkpoint_path``). Recorded construction passes
            and portfolio members are replayed instead of recomputed,
            and the run continues **bit-identically** to an
            uninterrupted run with the same seed, at any ``n_jobs``.
            Checkpointing continues into the same file, which is
            deleted once the solve completes. Raises
            :class:`repro.exceptions.CheckpointError` when the file is
            missing, malformed or fingerprinted for a different
            problem.
        telemetry:
            Optional :class:`repro.obs.SolveTelemetry` to record the
            run into. When omitted, one is built from
            ``config.trace_path`` / ``config.metrics_path`` — or the
            no-op singleton when neither is set, costing (almost)
            nothing. With telemetry on, the solve becomes one span tree
            (``solve`` → per-phase spans → per-pass/per-member worker
            spans), an append-only JSONL event log and a metrics
            snapshot per phase; the partition itself is bit-identical
            with telemetry on or off.

        Raises :class:`repro.exceptions.InfeasibleProblemError` when
        Phase 1 proves the query infeasible on this dataset, and
        :class:`repro.exceptions.CertificationError` when independent
        certification (``config.certify``) rejects an answer.
        """
        config = self.config
        telemetry = resolve_telemetry(
            telemetry, config.trace_path, config.metrics_path
        )
        previous_listener = None
        if telemetry.enabled:
            # Mirror every injected fault into the event log (before it
            # applies, so even a "fail" fault leaves a record).
            def _on_fault(checkpoint, action, ordinal):
                telemetry.event(
                    "fault.injected",
                    checkpoint=checkpoint,
                    action=action,
                    ordinal=ordinal,
                )

            previous_listener = set_fault_listener(_on_fault)
        try:
            return self._solve_traced(
                collection, constraints, budget, resume_from, telemetry
            )
        except BaseException:
            # Idempotent: a strict-interrupt exit has already closed
            # the run with its real status.
            telemetry.close(status="error")
            raise
        finally:
            if telemetry.enabled:
                set_fault_listener(previous_listener)

    def _solve_traced(
        self,
        collection: AreaCollection,
        constraints,
        budget: Budget | None,
        resume_from,
        telemetry,
    ) -> EMPSolution:
        config = self.config
        constraints = _coerce_constraints(constraints)

        # Resilience bookkeeping for this solve: the checkpoint ledger
        # (crash recovery) and the counters for pool faults and
        # certifications, merged into the solution's perf at the end.
        runtime_perf = PerfCounters()
        ledger = None
        if resume_from is not None:
            ledger = SolveLedger.load(
                resume_from, config, constraints, collection,
                keep_on_complete=config.checkpoint_keep_on_complete,
                objective=self.objective,
            )
        elif config.checkpoint_path is not None:
            ledger = SolveLedger.fresh(
                config.checkpoint_path, config, constraints, collection,
                keep_on_complete=config.checkpoint_keep_on_complete,
                objective=self.objective,
            )
        if ledger is not None:
            ledger.telemetry = telemetry

        if budget is None:
            deadline = config.deadline_seconds
            if deadline is not None and ledger is not None:
                # A resumed run only gets the time the original run
                # had left on its deadline.
                deadline = max(deadline - ledger.consumed_seconds, 1e-3)
            budget = Budget(deadline_seconds=deadline)
        budget.start()

        tracer = telemetry.tracer
        with tracer.span(
            "solve",
            seed=config.rng_seed,
            n_jobs=config.n_jobs,
            resumed=resume_from is not None,
        ) as solve_span:
            phase_started = time.perf_counter()
            preflight: PreflightReport | None = None
            components: tuple = ()
            structure_findings: tuple = ()
            if config.preflight:
                with tracer.span("preflight") as span:
                    components, structure_findings = scan_structure(
                        collection,
                        budget=budget,
                        decompose=config.decompose_components,
                    )
                    if span.recording:
                        span.set(
                            n_components=len(components),
                            findings=len(structure_findings),
                        )
            with tracer.span("feasibility") as span:
                feasibility = check_feasibility(
                    collection, constraints, config, budget=budget
                )
                if span.recording:
                    span.set(
                        n_invalid=feasibility.n_invalid,
                        warnings=len(feasibility.warnings),
                    )
                if not config.preflight:
                    feasibility.raise_if_infeasible()
            if config.preflight:
                # Fold structure + Phase-1 diagnostics + per-component
                # relaxation bounds into one report; any error finding
                # rejects the instance before construction spends a
                # single budget checkpoint.
                preflight = build_report(
                    collection,
                    constraints,
                    components,
                    structure_findings,
                    feasibility,
                )
                if preflight.warnings:
                    telemetry.event(
                        "preflight.findings",
                        warnings=[f.code for f in preflight.warnings],
                    )
                preflight.raise_if_failed()
            feasibility_seconds = time.perf_counter() - phase_started
            telemetry.snapshot_metrics("feasibility")
            telemetry.progress("feasibility", 1, 1, force=True)

            provenance: tuple[ComponentProvenance, ...] = ()
            if (
                config.decompose_components
                and preflight is not None
                and preflight.n_components > 1
            ):
                construction, attempts, tabu, provenance = (
                    self._solve_components(
                        collection, constraints, feasibility, preflight,
                        budget, ledger, runtime_perf, telemetry,
                    )
                )
                _phase_marker(
                    telemetry, "construction",
                    construction.state.perf, runtime_perf,
                )
            else:
                construction, attempts, tabu = self._solve_problem(
                    collection, constraints, feasibility, budget, ledger,
                    runtime_perf, telemetry,
                )
            partition = (
                tabu.partition if tabu is not None else construction.partition
            )

            _phase_marker(
                telemetry, "tabu", construction.state.perf, runtime_perf
            )

            certificate = None
            if config.certify_level() != CertifyLevel.OFF:
                # Tabu's score is H(P) only under the default objective;
                # a custom objective's score is not comparable to the
                # fresh heterogeneity recomputation.
                claimed = None
                if self.objective is None:
                    claimed = (
                        tabu.heterogeneity_after
                        if tabu is not None
                        else construction.state.total_heterogeneity()
                    )
                label = (
                    "interrupted" if budget.status() is not None else "final"
                )
                certificate = self._certify(
                    partition,
                    collection,
                    constraints,
                    budget,
                    claimed=claimed,
                    label=label,
                    runtime_perf=runtime_perf,
                    telemetry=telemetry,
                    provenance=provenance,
                )

            # Status is computed after certification so a cancellation
            # injected at the certify checkpoint still flags the
            # solution.
            status = budget.status() or RunStatus.COMPLETE
            if status is not RunStatus.COMPLETE:
                telemetry.event("run.interrupted", status=status.value)
            if ledger is not None:
                if status is RunStatus.COMPLETE and not ledger.keep_on_complete:
                    ledger.delete()
                runtime_perf.merge(ledger.counters)
            perf = construction.state.perf
            perf.merge(runtime_perf)
            phase_seconds = {
                "feasibility": feasibility_seconds,
                "construction": construction.elapsed_seconds,
            }
            if tabu is not None:
                phase_seconds["tabu"] = tabu.elapsed_seconds
            for phase, seconds in phase_seconds.items():
                telemetry.metrics.counter("phase_seconds", phase=phase).inc(
                    seconds
                )
            if solve_span.recording:
                solve_span.set(
                    p=partition.p,
                    n_unassigned=len(partition.unassigned),
                    status=status.value,
                )
        if telemetry.enabled:
            telemetry.metrics.absorb_perf(perf)
        telemetry.close(status=status.value)
        solution = EMPSolution(
            partition=partition,
            feasibility=feasibility,
            construction=construction,
            tabu=tabu,
            status=status,
            feasibility_seconds=feasibility_seconds,
            attempts=attempts,
            perf=perf,
            certificate=certificate,
            preflight=preflight,
            provenance=provenance,
        )
        if solution.interrupted and config.strict_interrupt:
            raise SolverInterrupted(
                f"solver run interrupted ({status.value}); best-so-far "
                f"solution has p={solution.p}",
                solution=solution,
                status=status,
                certificate=certificate,
                best_labels=partition.labels(),
            )
        return solution

    # ------------------------------------------------------------------
    # certification
    # ------------------------------------------------------------------
    @staticmethod
    def _certify(
        partition: Partition,
        collection: AreaCollection,
        constraints: ConstraintSet,
        budget: Budget,
        claimed: float | None,
        label: str,
        runtime_perf: PerfCounters,
        telemetry=DISABLED,
        provenance: tuple = (),
    ) -> Certificate:
        """Run one independent certification pass; raises
        :class:`repro.exceptions.CertificationError` on any violation.

        The ``certify.solution`` fault point fires first. An
        interruption signal there is swallowed — the certification
        still runs (a budget-expired answer deserves verification just
        as much) and the caller picks the status up afterwards.
        """
        try:
            budget.checkpoint("certify.solution")
        except Interrupted:
            pass
        runtime_perf.certifications += 1
        with telemetry.tracer.span("certify", label=label):
            certificate = certify_partition(
                partition,
                collection,
                constraints,
                claimed_heterogeneity=claimed,
                label=label,
                provenance=tuple(
                    entry.as_dict() for entry in provenance
                ),
            ).raise_if_invalid()
        telemetry.event(
            "certify.solution", label=label, p=partition.p, valid=True
        )
        return certificate

    # ------------------------------------------------------------------
    # one (sub)problem: construct -> certify -> Tabu
    # ------------------------------------------------------------------
    def _solve_problem(
        self,
        collection: AreaCollection,
        constraints: ConstraintSet,
        feasibility: FeasibilityReport,
        budget: Budget,
        ledger: SolveLedger | None,
        runtime_perf: PerfCounters,
        telemetry,
        key_prefix: str = "",
    ) -> tuple[
        ConstructionResult,
        tuple[ConstructionAttempt, ...],
        TabuResult | None,
    ]:
        """Construct (with retries), certify the construction under
        ``certify="paranoid"``, then run the Tabu portfolio — for the
        whole dataset or one component of a decomposed solve.

        One pool, sized ``config.n_jobs``, runs every work unit. Ledger
        units are keyed under *key_prefix*: ``""`` for a whole solve,
        which also emits the construction phase marker before Tabu
        (a decomposed solve emits it once, after the merge), and
        ``component/{i}/`` for a component. The Tabu result is ``None``
        when Tabu is off, found no region or ran out of budget.
        """
        config = self.config
        with SolverPool(
            collection,
            constraints,
            feasibility.invalid_areas,
            config,
            max_workers=config.n_jobs,
        ) as pool:
            construction, attempts = self._construct_with_retries(
                collection, constraints, feasibility, budget, pool,
                ledger, runtime_perf, telemetry, key_prefix,
            )
            if config.certify_level() == CertifyLevel.PARANOID:
                self._certify(
                    construction.partition,
                    collection,
                    constraints,
                    budget,
                    claimed=construction.state.total_heterogeneity(),
                    label="construction",
                    runtime_perf=runtime_perf,
                    telemetry=telemetry,
                )
            if not key_prefix:
                _phase_marker(
                    telemetry, "construction",
                    construction.state.perf, runtime_perf,
                )
            tabu = None
            if (
                config.enable_tabu
                and construction.state.p > 0
                and budget.status() is None
            ):
                tabu = improve_portfolio(
                    construction.state,
                    config,
                    objective=self.objective,
                    budget=budget,
                    pool=pool,
                    ranked_labels=construction.ranked_labels,
                    ledger=ledger,
                    runtime_perf=runtime_perf,
                    telemetry=telemetry,
                    key_prefix=key_prefix,
                )
        return construction, attempts, tabu

    # ------------------------------------------------------------------
    # construction retry policy
    # ------------------------------------------------------------------
    def _construct_with_retries(
        self,
        collection: AreaCollection,
        constraints: ConstraintSet,
        feasibility: FeasibilityReport,
        budget: Budget,
        pool: SolverPool,
        ledger: SolveLedger | None = None,
        runtime_perf: PerfCounters | None = None,
        telemetry=DISABLED,
        key_prefix: str = "",
    ) -> tuple[ConstructionResult, tuple[ConstructionAttempt, ...]]:
        """Run construction, retrying degenerate outcomes with derived
        seeds up to ``config.construction_retry_attempts`` times.

        Returns the best attempt (largest ``p``, then fewest
        unassigned) and the per-attempt diagnostics.
        """
        config = self.config
        n_valid = len(collection) - feasibility.n_invalid
        attempts: list[ConstructionAttempt] = []
        best: ConstructionResult | None = None
        best_key: tuple | None = None
        with telemetry.tracer.span("construction") as phase_span:
            for attempt_index in range(
                config.construction_retry_attempts + 1
            ):
                attempt_config = (
                    config
                    if attempt_index == 0
                    else replace(
                        config, rng_seed=config.derived_seed(attempt_index)
                    )
                )
                attempt_started = time.perf_counter()
                with telemetry.tracer.span(
                    "attempt",
                    index=attempt_index,
                    seed=attempt_config.rng_seed,
                ) as attempt_span:
                    construction = construct(
                        collection,
                        constraints,
                        attempt_config,
                        feasibility=feasibility,
                        budget=budget,
                        pool=pool,
                        attempt_index=attempt_index,
                        ledger=ledger,
                        runtime_perf=runtime_perf,
                        telemetry=telemetry,
                        key_prefix=key_prefix,
                    )
                    degenerate = _is_degenerate(construction, n_valid, config)
                    if attempt_span.recording:
                        attempt_span.set(
                            p=construction.p,
                            n_unassigned=construction.state.n_unassigned,
                            degenerate=degenerate,
                        )
                attempts.append(
                    ConstructionAttempt(
                        seed=attempt_config.rng_seed,
                        p=construction.p,
                        n_unassigned=construction.state.n_unassigned,
                        degenerate=degenerate,
                        elapsed_seconds=time.perf_counter() - attempt_started,
                    )
                )
                key = (-construction.p, construction.state.n_unassigned)
                if best_key is None or key < best_key:
                    best_key = key
                    best = construction
                if not degenerate or construction.interrupted or n_valid == 0:
                    break
            if phase_span.recording:
                phase_span.set(attempts=len(attempts))
        assert best is not None  # at least one attempt always runs
        return best, tuple(attempts)

    # ------------------------------------------------------------------
    # component decomposition (disconnected geographies)
    # ------------------------------------------------------------------
    def _solve_components(
        self,
        collection: AreaCollection,
        constraints: ConstraintSet,
        feasibility: FeasibilityReport,
        preflight: PreflightReport,
        budget: Budget,
        ledger: SolveLedger | None,
        runtime_perf: PerfCounters,
        telemetry,
    ) -> tuple[
        ConstructionResult,
        tuple[ConstructionAttempt, ...],
        TabuResult | None,
        tuple[ComponentProvenance, ...],
    ]:
        """Solve each connected component as its own problem, then merge.

        Components are visited in the preflight report's canonical
        order (ascending smallest member id), each through
        :meth:`_solve_problem` with the same ``rng_seed``, the shared
        budget and ledger keys prefixed ``component/{i}/``. A component
        whose own Phase-1 scan proves infeasible is *skipped*, not
        fatal: its areas stay unassigned and the skip is recorded in
        the provenance. The merged labels are rebuilt through the
        canonical :meth:`SolutionState.from_labels` — regions
        renumbered by smallest member id, areas inserted ascending —
        so the merged partition is bit-identical at any ``n_jobs``.

        The merged construction times construction only. The merged
        Tabu result (``None`` when no component ran Tabu) goes from the
        components' summed construction ``H`` to the merged ``H``,
        sums iterations, moves and time, and carries the first
        interruption a component saw.
        """
        config = self.config
        merged_labels: dict[int, int] = {}
        solved: list[tuple] = []  # (construction, attempts, tabu)
        attempts: list[ConstructionAttempt] = []
        interim: list[tuple] = []  # (index, members, status, H, seconds)
        heterogeneity_before = 0.0
        offset = 0
        for index, members in enumerate(preflight.components):
            component_started = time.perf_counter()
            with telemetry.tracer.span(
                "component", index=index, n_areas=len(members)
            ) as component_span:
                sub = collection.subset(members)
                sub_feasibility = check_feasibility(
                    sub, constraints, config, budget=budget
                )
                if sub_feasibility.feasible:
                    solved.append(
                        self._solve_problem(
                            sub, constraints, sub_feasibility, budget,
                            ledger, runtime_perf, telemetry,
                            key_prefix=f"component/{index}/",
                        )
                    )
                    construction, tried, tabu = solved[-1]
                    attempts.extend(
                        replace(attempt, component=index) for attempt in tried
                    )
                    runtime_perf.merge(construction.state.perf)
                    result = tabu if tabu is not None else construction
                    labels, p = result.partition.labels(), result.partition.p
                    status = budget.status()
                    status = "complete" if status is None else status.value
                    # Tabu searches construction.state in place, so
                    # its construction H is the search's starting score.
                    if tabu is not None:
                        before = tabu.heterogeneity_before
                        heterogeneity = tabu.heterogeneity_after
                    else:
                        before = heterogeneity = (
                            construction.state.total_heterogeneity()
                        )
                    heterogeneity_before += before
                else:
                    labels, p = {}, 0
                    status, heterogeneity = "infeasible", 0.0
                # Offsets only need uniqueness across components; the
                # canonical rebuild below renumbers everything.
                for area_id in members:
                    label = labels.get(area_id, -1)
                    merged_labels[area_id] = (
                        offset + label if label >= 0 else -1
                    )
                offset += p
                interim.append(
                    (
                        index, members, status, heterogeneity,
                        time.perf_counter() - component_started,
                    )
                )
                if component_span.recording:
                    component_span.set(p=p, status=status)

        merged_state = SolutionState.from_labels(
            collection,
            constraints,
            merged_labels,
            excluded=feasibility.invalid_areas,
        )
        merged_partition = merged_state.to_partition()
        final_labels = merged_partition.labels()
        provenance = []
        for index, members, status, heterogeneity, seconds in interim:
            assigned = [
                final_labels[area_id]
                for area_id in members
                if final_labels.get(area_id, -1) >= 0
            ]
            regions = tuple(sorted(set(assigned)))
            provenance.append(
                ComponentProvenance(
                    index=index,
                    n_areas=len(members),
                    p=len(regions),
                    n_unassigned=len(members) - len(assigned),
                    regions=regions,
                    status=status,
                    heterogeneity=heterogeneity,
                    seconds=round(seconds, 4),
                )
            )
        constructions = [construction for construction, _, _ in solved]
        merged = ConstructionResult(
            state=merged_state,
            partition=merged_partition,
            feasibility=feasibility,
            seeding=select_seeds(collection, constraints, feasibility),
            iterations=sum(c.iterations for c in constructions),
            elapsed_seconds=sum(c.elapsed_seconds for c in constructions),
            status=budget.status() or RunStatus.COMPLETE,
        )
        tabus = [tabu for _, _, tabu in solved if tabu is not None]
        merged_tabu = None
        if tabus:
            merged_tabu = TabuResult(
                partition=merged_partition,
                heterogeneity_before=heterogeneity_before,
                heterogeneity_after=merged_state.total_heterogeneity(),
                iterations=sum(tabu.iterations for tabu in tabus),
                moves_applied=sum(tabu.moves_applied for tabu in tabus),
                elapsed_seconds=sum(tabu.elapsed_seconds for tabu in tabus),
                status=next(
                    (
                        tabu.status
                        for tabu in tabus
                        if tabu.status is not RunStatus.COMPLETE
                    ),
                    RunStatus.COMPLETE,
                ),
            )
        telemetry.event(
            "decompose.merged",
            n_components=len(preflight.components),
            p=merged_partition.p,
        )
        return merged, tuple(attempts), merged_tabu, tuple(provenance)


def _phase_marker(telemetry, phase: str, *perf: PerfCounters) -> None:
    """Close *phase* for observers: fold the sum of *perf* into the
    metrics (into a fresh struct — the inputs keep accumulating),
    snapshot them, and force a ``progress`` event (the service's ETA
    reads the construction one)."""
    if telemetry.enabled:
        merged = PerfCounters()
        for counters in perf:
            merged.merge(counters)
        telemetry.metrics.absorb_perf(merged)
    telemetry.snapshot_metrics(phase)
    telemetry.progress(phase, 1, 1, force=True)


def _is_degenerate(
    construction: ConstructionResult, n_valid: int, config: FaCTConfig
) -> bool:
    """Degenerate construction: no regions at all, or nearly every
    valid (non-filtered) area left unassigned."""
    if construction.p == 0:
        return True
    if n_valid == 0:
        return False
    ratio = construction.state.n_unassigned / n_valid
    return ratio > config.degenerate_unassigned_ratio


def _coerce_constraints(
    constraints: ConstraintSet | list | tuple | Constraint | None,
) -> ConstraintSet:
    """Accept a ConstraintSet, a single Constraint, an iterable of
    Constraints, or None (unconstrained)."""
    if constraints is None:
        return ConstraintSet()
    if isinstance(constraints, ConstraintSet):
        return constraints
    if isinstance(constraints, Constraint):
        return ConstraintSet([constraints])
    return ConstraintSet(constraints)


def solve_emp(
    collection: AreaCollection,
    constraints=None,
    resume_from=None,
    **config_options,
) -> EMPSolution:
    """One-call convenience wrapper: ``solve_emp(collection,
    [min_constraint(...), ...], rng_seed=7, deadline_seconds=2.0)``."""
    return FaCT(FaCTConfig(**config_options)).solve(
        collection, constraints, resume_from=resume_from
    )
