"""Tests for FaCT Phase 3 — Tabu search local optimization."""

from __future__ import annotations

import pytest

from repro.core import (
    ConstraintSet,
    count_constraint,
    sum_constraint,
)
from repro.fact import FaCTConfig, tabu_improve
from repro.fact.state import SolutionState

from conftest import make_grid_collection, make_line_collection


def state_with_regions(collection, constraints, regions):
    state = SolutionState(collection, constraints)
    for members in regions:
        state.new_region(members)
    return state


class TestBasicBehavior:
    def test_finds_the_obvious_improvement(self):
        # d = [1, 1, 10, 10]; regions {1,2,3} and {4}; moving area 3
        # to the right region drops H from 18 to 0.
        collection = make_line_collection([1, 1, 10, 10])
        constraints = ConstraintSet([count_constraint(1, 4)])
        state = state_with_regions(collection, constraints, [[1, 2, 3], [4]])
        result = tabu_improve(state, FaCTConfig())
        assert result.heterogeneity_before == pytest.approx(18.0)
        assert result.heterogeneity_after == pytest.approx(0.0)
        assert result.improvement == pytest.approx(1.0)
        assert result.moves_applied >= 1

    def test_p_is_preserved(self, small_census):
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=15000)]
        )
        state = SolutionState(small_census, constraints)
        # greedy-ish initial partition: singletons merged by Step 3
        from repro.fact import adjust_counting
        import random

        for area_id in small_census.ids:
            state.new_region([area_id])
        adjust_counting(state, FaCTConfig(), random.Random(0))
        p_before = state.p
        result = tabu_improve(state, FaCTConfig(tabu_max_no_improve=50))
        assert result.partition.p == p_before

    def test_never_worsens_best(self, small_census):
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=15000)]
        )
        state = SolutionState(small_census, constraints)
        from repro.fact import adjust_counting
        import random

        for area_id in small_census.ids:
            state.new_region([area_id])
        adjust_counting(state, FaCTConfig(), random.Random(0))
        before = state.total_heterogeneity()
        result = tabu_improve(state, FaCTConfig(tabu_max_no_improve=50))
        assert result.heterogeneity_after <= before + 1e-6
        assert result.heterogeneity_before == pytest.approx(before)

    def test_result_partition_still_valid(self, small_census):
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=15000)]
        )
        state = SolutionState(small_census, constraints)
        from repro.fact import adjust_counting
        import random

        for area_id in small_census.ids:
            state.new_region([area_id])
        adjust_counting(state, FaCTConfig(), random.Random(0))
        result = tabu_improve(state, FaCTConfig(tabu_max_no_improve=50))
        assert result.partition.validate(small_census, constraints) == []

    @pytest.mark.parametrize("kicks", [0, 5])
    def test_result_partition_scores_the_reported_best(
        self, small_census, kicks
    ):
        # The search ends past its best (patience runs out on a
        # non-improving streak), so the returned partition is the final
        # one with every move since the last new best undone, kicks
        # included: it must score exactly the reported best.
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=15000)]
        )
        state = SolutionState(small_census, constraints)
        from repro.fact import adjust_counting
        import random

        for area_id in small_census.ids:
            state.new_region([area_id])
        adjust_counting(state, FaCTConfig(), random.Random(0))
        result = tabu_improve(
            state,
            FaCTConfig(tabu_max_no_improve=20),
            rng=random.Random(3),
            perturbation_moves=kicks,
        )
        assert result.moves_applied > 0
        assert state.total_heterogeneity() > result.heterogeneity_after
        assert result.partition.heterogeneity(small_census) == pytest.approx(
            result.heterogeneity_after
        )

    def test_kicks_alone_leave_the_input_as_best(self, small_census):
        # The best snapshot is taken before the kicks; with no search
        # iterations after them the input partition is the answer.
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=15000)]
        )
        state = SolutionState(small_census, constraints)
        from repro.fact import adjust_counting
        import random

        for area_id in small_census.ids:
            state.new_region([area_id])
        adjust_counting(state, FaCTConfig(), random.Random(0))
        before = state.to_partition()
        result = tabu_improve(
            state,
            FaCTConfig(tabu_max_iterations=0),
            rng=random.Random(3),
            perturbation_moves=5,
        )
        assert result.moves_applied == 5
        assert state.to_partition() != before
        assert result.partition == before


class TestStoppingRules:
    def test_zero_iteration_cap_means_no_moves(self):
        collection = make_line_collection([1, 1, 10, 10])
        constraints = ConstraintSet([count_constraint(1, 4)])
        state = state_with_regions(collection, constraints, [[1, 2, 3], [4]])
        result = tabu_improve(state, FaCTConfig(tabu_max_iterations=0))
        assert result.moves_applied == 0
        assert result.heterogeneity_after == result.heterogeneity_before

    def test_no_admissible_moves_terminates(self):
        # Single region covering everything: no move can keep p (donor
        # must stay valid and non-empty, but there is no receiver).
        collection = make_line_collection([1, 2, 3])
        constraints = ConstraintSet([count_constraint(1, 3)])
        state = state_with_regions(collection, constraints, [[1, 2, 3]])
        result = tabu_improve(state, FaCTConfig())
        assert result.moves_applied == 0

    def test_patience_bounds_non_improving_streak(self):
        collection = make_grid_collection(4, 4)
        constraints = ConstraintSet([count_constraint(1, 16)])
        state = SolutionState(collection, constraints)
        state.new_region([1, 2, 5, 6])
        state.new_region([3, 4, 7, 8])
        state.new_region([9, 10, 13, 14])
        state.new_region([11, 12, 15, 16])
        result = tabu_improve(state, FaCTConfig(tabu_max_no_improve=3))
        assert result.iterations <= FaCTConfig().resolved_tabu_cap(16)


class TestMoveValidity:
    def test_moves_respect_constraints(self):
        # SUM >= 3 on unit values: donors may never drop below 3.
        collection = make_grid_collection(3, 3, values={i: 1 for i in range(1, 10)})
        constraints = ConstraintSet([sum_constraint("s", lower=3)])
        state = SolutionState(collection, constraints)
        state.new_region([1, 2, 3])
        state.new_region([4, 5, 6])
        state.new_region([7, 8, 9])
        result = tabu_improve(state, FaCTConfig())
        for members in result.partition.regions:
            assert len(members) >= 3

    def test_moves_respect_contiguity(self, small_census):
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=25000)]
        )
        state = SolutionState(small_census, constraints)
        from repro.fact import adjust_counting
        import random

        for area_id in small_census.ids:
            state.new_region([area_id])
        adjust_counting(state, FaCTConfig(), random.Random(1))
        result = tabu_improve(state, FaCTConfig(tabu_max_no_improve=60))
        for members in result.partition.regions:
            assert small_census.is_contiguous(members)

    def test_deterministic(self):
        collection = make_grid_collection(
            4, 4, values={i: (i * 31) % 11 + 1 for i in range(1, 17)}
        )
        constraints = ConstraintSet([count_constraint(1, 16)])

        def run():
            state = SolutionState(collection, constraints)
            state.new_region([1, 2, 5, 6])
            state.new_region([3, 4, 7, 8])
            state.new_region([9, 10, 13, 14])
            state.new_region([11, 12, 15, 16])
            return tabu_improve(state, FaCTConfig())

        a, b = run(), run()
        assert a.heterogeneity_after == b.heterogeneity_after
        assert a.partition.regions == b.partition.regions
