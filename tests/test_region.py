"""Unit and property tests for repro.core.region."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstraintSet,
    Region,
    avg_constraint,
    count_constraint,
    max_constraint,
    min_constraint,
    sum_constraint,
)
from repro.core.constraints import ConstraintPlan
from repro.core.heterogeneity import pairwise_absolute_deviation_naive
from repro.exceptions import InvalidAreaError

from conftest import make_grid_collection
from oracles.constraint_reference import (
    satisfies_after_add,
    satisfies_after_remove,
    value_after_add,
    value_after_remove,
)


@pytest.fixture
def region(grid3):
    return Region(0, grid3, tracked_attributes=["s"])


class TestMembership:
    def test_new_region_is_empty(self, region):
        assert len(region) == 0
        assert region.size == 0
        assert region.area_ids == frozenset()

    def test_add_and_contains(self, region):
        region.add_area(5)
        assert 5 in region
        assert len(region) == 1
        assert list(region) == [5]

    def test_add_duplicate_raises(self, region):
        region.add_area(5)
        with pytest.raises(InvalidAreaError, match="already"):
            region.add_area(5)

    def test_remove_absent_raises(self, region):
        with pytest.raises(InvalidAreaError, match="not in region"):
            region.remove_area(5)

    def test_constructor_accepts_initial_areas(self, grid3):
        region = Region(1, grid3, ["s"], areas=[1, 2])
        assert region.area_ids == frozenset({1, 2})


class TestAggregates:
    def test_aggregates_over_members(self, grid3):
        region = Region(0, grid3, ["s"], areas=[2, 5, 8])
        assert region.aggregate("SUM", "s") == 15.0
        assert region.aggregate("AVG", "s") == 5.0
        assert region.aggregate("MIN", "s") == 2.0
        assert region.aggregate("MAX", "s") == 8.0
        assert region.aggregate("COUNT") == 3.0

    def test_untracked_attribute_raises(self, grid3):
        region = Region(0, grid3, [], areas=[1])
        with pytest.raises(InvalidAreaError, match="not tracked"):
            region.aggregate("SUM", "s")

    def test_count_ignores_attribute(self, grid3):
        region = Region(0, grid3, [], areas=[1, 2])
        assert region.aggregate("COUNT", "whatever") == 2.0

    def test_remove_updates_aggregates(self, grid3):
        region = Region(0, grid3, ["s"], areas=[2, 5, 8])
        region.remove_area(8)
        assert region.aggregate("SUM", "s") == 7.0
        assert region.aggregate("MAX", "s") == 5.0


class TestConstraintChecks:
    def test_satisfies_and_violations(self, grid3):
        region = Region(0, grid3, ["s"], areas=[4, 5])
        cs = ConstraintSet(
            [
                sum_constraint("s", lower=9),
                avg_constraint("s", 4, 5),
                count_constraint(1, 2),
            ]
        )
        assert region.satisfies_all(cs)
        assert region.violations(cs) == []
        region.add_area(6)
        violated = region.violations(cs)
        assert {c.aggregate for c in violated} == {"COUNT"}

    def test_constraint_value(self, grid3):
        region = Region(0, grid3, ["s"], areas=[1, 2, 3])
        assert region.constraint_value(sum_constraint("s", lower=0)) == 6.0
        assert region.constraint_value(count_constraint(1)) == 3.0

    def test_satisfies_after_add_matches_actual(self, grid3):
        region = Region(0, grid3, ["s"], areas=[4])
        cs = ConstraintSet([avg_constraint("s", 4, 5)])
        plan = ConstraintPlan.of(grid3, cs)
        assert plan.accepts(region, 5)  # avg 4.5
        assert not plan.accepts(region, 9)  # avg 6.5
        assert satisfies_after_add(region, cs, 5)
        assert not satisfies_after_add(region, cs, 9)

    def test_satisfies_after_remove_requires_non_singleton(self, grid3):
        region = Region(0, grid3, ["s"], areas=[4])
        cs = ConstraintSet([avg_constraint("s", 0, 100)])
        assert not ConstraintPlan.of(grid3, cs).spare(region, 4)
        assert not satisfies_after_remove(region, cs, 4)

    def test_value_after_add_and_remove(self, grid3):
        region = Region(0, grid3, ["s"], areas=[2, 6])
        c = avg_constraint("s", 0, 100)
        assert value_after_add(region, c, 4) == 4.0
        assert value_after_remove(region, c, 2) == 6.0
        cc = count_constraint(1, 10)
        assert value_after_add(region, cc, 4) == 3.0
        assert value_after_remove(region, cc, 2) == 1.0
        # The plan's verdicts at bounds equal to those values.
        plan = ConstraintPlan.of(grid3, ConstraintSet([
            avg_constraint("s", 4, 4), count_constraint(3, 3)
        ]))
        assert plan.accepts(region, 4)
        plan = ConstraintPlan.of(grid3, ConstraintSet([
            avg_constraint("s", 6, 6), count_constraint(1, 1)
        ]))
        assert plan.spare(region, 2)


class TestContiguity:
    def test_row_region_is_contiguous(self, grid3):
        assert Region(0, grid3, [], areas=[4, 5, 6]).is_contiguous()

    def test_disconnected_region_detected(self, grid3):
        assert not Region(0, grid3, [], areas=[1, 9]).is_contiguous()

    def test_remains_contiguous_without_endpoint(self, grid3):
        region = Region(0, grid3, [], areas=[4, 5, 6])
        assert region.remains_contiguous_without(4)
        assert region.remains_contiguous_without(6)

    def test_removing_cut_area_breaks_contiguity(self, grid3):
        region = Region(0, grid3, [], areas=[4, 5, 6])
        assert not region.remains_contiguous_without(5)

    def test_removing_last_area_not_allowed(self, grid3):
        region = Region(0, grid3, [], areas=[5])
        assert not region.remains_contiguous_without(5)

    def test_remains_contiguous_without_absent_raises(self, grid3):
        region = Region(0, grid3, [], areas=[5])
        with pytest.raises(InvalidAreaError):
            region.remains_contiguous_without(1)

    def test_neighboring_areas(self, grid3):
        region = Region(0, grid3, [], areas=[1, 2])
        assert region.neighboring_areas() == frozenset({3, 4, 5})

    def test_touches(self, grid3):
        region = Region(0, grid3, [], areas=[1, 2])
        assert region.touches(3)
        assert not region.touches(9)

    def test_touches_region(self, grid3):
        left = Region(0, grid3, [], areas=[1, 4])
        right = Region(1, grid3, [], areas=[3, 6])
        middle = Region(2, grid3, [], areas=[2, 5])
        assert left.touches_region(middle)
        assert middle.touches_region(right)
        assert not left.touches_region(right)


class TestMergeAndCopy:
    def test_merge_moves_all_areas(self, grid3):
        a = Region(0, grid3, ["s"], areas=[1, 2])
        b = Region(1, grid3, ["s"], areas=[3])
        a.merge(b)
        assert a.area_ids == frozenset({1, 2, 3})
        assert len(b) == 0
        assert a.aggregate("SUM", "s") == 6.0

    def test_merge_overlapping_raises(self, grid3):
        a = Region(0, grid3, [], areas=[1, 2])
        b = Region(1, grid3, [], areas=[2, 3])
        with pytest.raises(InvalidAreaError, match="overlapping"):
            a.merge(b)

    def test_copy_is_independent(self, grid3):
        original = Region(0, grid3, ["s"], areas=[1, 2])
        clone = original.copy(region_id=9)
        clone.add_area(3)
        assert len(original) == 2
        assert clone.region_id == 9
        assert clone.aggregate("SUM", "s") == 6.0


class TestHeterogeneity:
    def test_matches_naive_pairwise(self, grid3):
        region = Region(0, grid3, [], areas=[1, 2, 3])
        # |1-2| + |1-3| + |2-3| = 1 + 2 + 1 = 4
        assert region.heterogeneity == pytest.approx(4.0)

    def test_delta_add_predicts_actual(self, grid3):
        region = Region(0, grid3, [], areas=[1, 2])
        predicted = region.heterogeneity_delta_add(3)
        before = region.heterogeneity
        region.add_area(3)
        assert region.heterogeneity == pytest.approx(before + predicted)

    def test_delta_remove_predicts_actual(self, grid3):
        region = Region(0, grid3, [], areas=[1, 2, 3])
        predicted = region.heterogeneity_delta_remove(3)
        before = region.heterogeneity
        region.remove_area(3)
        assert region.heterogeneity == pytest.approx(before + predicted)

    def test_delta_remove_absent_raises(self, grid3):
        region = Region(0, grid3, [], areas=[1])
        with pytest.raises(InvalidAreaError):
            region.heterogeneity_delta_remove(9)

    def test_empty_region_resets_heterogeneity(self, grid3):
        region = Region(0, grid3, [], areas=[1, 2, 3])
        for area_id in [1, 2, 3]:
            region.remove_area(area_id)
        assert region.heterogeneity == 0.0


class TestIncrementalInvariants:
    """Property tests: incremental bookkeeping equals recomputation
    after an arbitrary interleaving of adds and removes."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_walk_matches_recompute(self, data):
        size = data.draw(st.integers(2, 5))
        values = {
            i: data.draw(
                st.floats(min_value=0, max_value=1e4, allow_nan=False)
            )
            for i in range(1, size * size + 1)
        }
        collection = make_grid_collection(size, size, values=values)
        region = Region(0, collection, ["s"])
        members: set[int] = set()
        n_steps = data.draw(st.integers(1, 25))
        for _ in range(n_steps):
            if members and data.draw(st.booleans()):
                victim = data.draw(st.sampled_from(sorted(members)))
                region.remove_area(victim)
                members.discard(victim)
            else:
                candidates = sorted(set(values) - members)
                if not candidates:
                    continue
                chosen = data.draw(st.sampled_from(candidates))
                region.add_area(chosen)
                members.add(chosen)
        member_values = [values[i] for i in members]
        assert region.aggregate("COUNT") == len(members)
        if members:
            assert region.aggregate("SUM", "s") == pytest.approx(
                sum(member_values), abs=1e-6
            )
            assert region.aggregate("MIN", "s") == min(member_values)
            assert region.aggregate("MAX", "s") == max(member_values)
        assert region.heterogeneity == pytest.approx(
            pairwise_absolute_deviation_naive(member_values), abs=1e-5
        )
