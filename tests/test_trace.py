"""Tests for repro.fact.trace — step-by-step construction tracing."""

from __future__ import annotations

import pytest

from repro import ConstraintSet, FaCTConfig, InfeasibleProblemError
from repro.core import (
    avg_constraint,
    max_constraint,
    min_constraint,
    sum_constraint,
)
from repro.data import default_constraints, synthetic_census
from repro.fact import trace_solve


@pytest.fixture(scope="module")
def census():
    return synthetic_census(120, seed=41)


EXPECTED_STEPS = (
    "feasibility",
    "step2.1 seeding",
    "step2.2 enclaves",
    "step2.3 extrema",
    "step3 adjustments",
    "tabu",
)


class TestTraceSolve:
    def test_all_steps_recorded(self, census):
        trace = trace_solve(census, ConstraintSet(default_constraints()))
        assert tuple(s.step for s in trace.snapshots) == EXPECTED_STEPS

    def test_tabu_step_absent_when_disabled(self, census):
        trace = trace_solve(
            census,
            ConstraintSet(default_constraints()),
            FaCTConfig(enable_tabu=False),
        )
        assert trace.snapshots[-1].step == "step3 adjustments"

    def test_final_partition_is_valid(self, census):
        constraints = ConstraintSet(default_constraints())
        trace = trace_solve(census, constraints, FaCTConfig(rng_seed=3))
        assert trace.partition is not None
        assert trace.partition.validate(census, constraints) == []

    def test_counts_are_consistent_per_step(self, census):
        trace = trace_solve(census, ConstraintSet(default_constraints()))
        for snapshot in trace.snapshots:
            assert (
                snapshot.n_assigned
                + snapshot.n_unassigned
                + snapshot.n_excluded
                == len(census)
            )

    def test_filtration_visible_in_feasibility_step(self, census):
        # a MIN lower bound excludes the bottom tracts
        values = sorted(census.attribute_values("POP16UP").values())
        cutoff = values[len(values) // 4]
        constraints = ConstraintSet(
            [min_constraint("POP16UP", cutoff, 10 * cutoff)]
        )
        trace = trace_solve(census, constraints)
        assert trace.step("feasibility").n_excluded > 0

    def test_step_lookup_unknown_raises(self, census):
        trace = trace_solve(census, ConstraintSet(default_constraints()))
        with pytest.raises(KeyError):
            trace.step("nonexistent")

    def test_format_renders_all_lines(self, census):
        trace = trace_solve(census, ConstraintSet(default_constraints()))
        text = trace.format()
        for name in EXPECTED_STEPS:
            assert name in text

    def test_infeasible_raises(self, census):
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=1e15)]
        )
        with pytest.raises(InfeasibleProblemError):
            trace_solve(census, constraints)

    def test_extrema_combination_step_reduces_or_keeps_p(self, census):
        # with MIN and MAX constraints, 2.3 merges single-constraint
        # regions, so p can only drop between 2.2 and 2.3
        constraints = ConstraintSet(
            [
                min_constraint("POP16UP", upper=3000),
                max_constraint("POP16UP", lower=4000),
            ]
        )
        trace = trace_solve(census, constraints)
        assert trace.step("step2.3 extrema").p <= (
            trace.step("step2.2 enclaves").p
        )

    def test_trace_reads_the_solve_it_wraps(self, census):
        """``trace_solve`` is a view of a real solve: its final p and H
        are that solve's, and its Step-3 snapshot is that solve's
        ``adjust`` span."""
        from dataclasses import replace

        from repro.fact import FaCT
        from repro.obs import SolveTelemetry

        constraints = ConstraintSet(default_constraints())
        config = FaCTConfig(rng_seed=5)
        trace = trace_solve(census, constraints, config)

        telemetry = SolveTelemetry(verbosity=2)
        solution = FaCT(
            replace(
                config,
                construction_iterations=1,
                construction_retry_attempts=0,
                tabu_portfolio=1,
            )
        ).solve(census, constraints, telemetry=telemetry)
        assert trace.snapshots[-1].p == solution.p
        assert trace.snapshots[-1].heterogeneity == solution.heterogeneity
        assert trace.partition.labels() == solution.partition.labels()

        (adjust,) = [
            record["attrs"]
            for record in telemetry.tracer.finished
            if record["name"] == "adjust"
        ]
        step3 = trace.step("step3 adjustments")
        assert (step3.p, step3.n_unassigned, step3.heterogeneity) == (
            adjust["p"],
            adjust["n_unassigned"],
            adjust["heterogeneity"],
        )

    def test_paper_default_narrative(self, census):
        """On the default query the trace shows the canonical arc:
        seeds → everything assigned by 2.2 → p collapses in step 3
        (SUM forces merges) → tabu only reshuffles."""
        trace = trace_solve(
            census, ConstraintSet(default_constraints()), FaCTConfig(rng_seed=1)
        )
        assert trace.step("step2.2 enclaves").n_unassigned <= (
            trace.step("step2.1 seeding").n_unassigned
        )
        assert trace.step("step3 adjustments").p <= (
            trace.step("step2.3 extrema").p
        )
        assert trace.step("tabu").p == trace.step("step3 adjustments").p
