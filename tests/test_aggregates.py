"""Unit and property tests for repro.core.aggregates."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.aggregates import Aggregate, AggregateState

from oracles.constraint_reference import (
    aggregate_value_after_add as value_after_add,
    aggregate_value_after_remove as value_after_remove,
)

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestAggregateEnum:
    def test_all_lists_five_aggregates_in_paper_order(self):
        assert Aggregate.all() == ("MIN", "MAX", "AVG", "SUM", "COUNT")

    def test_normalize_accepts_lowercase(self):
        assert Aggregate.normalize("sum") == "SUM"

    def test_normalize_accepts_canonical(self):
        assert Aggregate.normalize(Aggregate.AVG) == "AVG"

    def test_normalize_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown aggregate"):
            Aggregate.normalize("MEDIAN")


class TestEmptyState:
    def test_count_is_zero(self):
        assert AggregateState().count == 0

    def test_sum_is_zero(self):
        assert AggregateState().sum == 0.0

    def test_min_is_positive_infinity(self):
        assert AggregateState().min == math.inf

    def test_max_is_negative_infinity(self):
        assert AggregateState().max == -math.inf

    def test_avg_is_nan(self):
        assert math.isnan(AggregateState().avg)

    def test_len_is_zero(self):
        assert len(AggregateState()) == 0


class TestAddRemove:
    def test_add_updates_all_aggregates(self):
        state = AggregateState([4.0])
        state.add(2.0)
        assert state.count == 2
        assert state.sum == 6.0
        assert state.min == 2.0
        assert state.max == 4.0
        assert state.avg == 3.0

    def test_remove_restores_previous_values(self):
        state = AggregateState([4.0, 2.0, 6.0])
        state.remove(6.0)
        assert state.count == 2
        assert state.sum == 6.0
        assert state.max == 4.0

    def test_remove_unique_minimum_rescans(self):
        state = AggregateState([1.0, 5.0, 3.0])
        state.remove(1.0)
        assert state.min == 3.0

    def test_remove_duplicate_extremum_keeps_it(self):
        state = AggregateState([1.0, 1.0, 5.0])
        state.remove(1.0)
        assert state.min == 1.0

    def test_remove_absent_value_raises(self):
        state = AggregateState([1.0])
        with pytest.raises(KeyError):
            state.remove(2.0)

    def test_remove_last_value_resets_to_empty(self):
        state = AggregateState([7.0])
        state.remove(7.0)
        assert state.count == 0
        assert state.sum == 0.0
        assert state.min == math.inf
        assert state.max == -math.inf

    def test_contains_tracks_membership(self):
        state = AggregateState([3.0])
        assert 3.0 in state
        assert 4.0 not in state

    def test_iter_yields_multiset_elements(self):
        state = AggregateState([2.0, 2.0, 5.0])
        assert sorted(state) == [2.0, 2.0, 5.0]


class TestMergeAndCopy:
    def test_merge_folds_all_values(self):
        left = AggregateState([1.0, 2.0])
        right = AggregateState([3.0, 3.0])
        left.merge(right)
        assert left.count == 4
        assert left.sum == 9.0
        assert left.max == 3.0

    def test_copy_is_independent(self):
        original = AggregateState([1.0, 2.0])
        clone = original.copy()
        clone.add(10.0)
        assert original.count == 2
        assert clone.count == 3


class TestValueDispatch:
    @pytest.mark.parametrize(
        "aggregate,expected",
        [("MIN", 1.0), ("MAX", 4.0), ("AVG", 2.5), ("SUM", 10.0), ("COUNT", 4.0)],
    )
    def test_value_matches_named_aggregate(self, aggregate, expected):
        state = AggregateState([1.0, 2.0, 3.0, 4.0])
        assert state.value(aggregate) == expected


class TestHypotheticalUpdates:
    """The reference hypothetical updates the constraint plan is checked
    against, and the one MIN/MAX helper the plan keeps."""

    def test_value_after_add_does_not_mutate(self):
        state = AggregateState([1.0, 2.0])
        assert value_after_add(state, "SUM", 5.0) == 8.0
        assert state.sum == 3.0

    def test_value_after_add_avg(self):
        state = AggregateState([2.0, 4.0])
        assert value_after_add(state, "AVG", 6.0) == 4.0

    def test_value_after_add_min_max(self):
        state = AggregateState([2.0, 4.0])
        assert value_after_add(state, "MIN", 1.0) == 1.0
        assert value_after_add(state, "MAX", 1.0) == 4.0

    def test_value_after_remove_unique_extremum(self):
        state = AggregateState([1.0, 3.0, 9.0])
        assert value_after_remove(state, "MIN", 1.0) == 3.0
        assert value_after_remove(state, "MAX", 9.0) == 3.0
        assert state.next_extremum("MIN", 1.0) == 3.0
        assert state.next_extremum("MAX", 9.0) == 3.0
        assert state.count == 3  # untouched

    def test_next_extremum_keeps_a_duplicated_holder(self):
        state = AggregateState([1.0, 1.0, 9.0, 9.0])
        assert state.next_extremum("MIN", 1.0) == 1.0
        assert state.next_extremum("MAX", 9.0) == 9.0

    def test_value_after_remove_to_empty(self):
        state = AggregateState([5.0])
        assert value_after_remove(state, "MIN", 5.0) == math.inf
        assert value_after_remove(state, "MAX", 5.0) == -math.inf
        assert math.isnan(value_after_remove(state, "AVG", 5.0))
        assert value_after_remove(state, "COUNT", 5.0) == 0.0
        assert state.next_extremum("MIN", 5.0) == math.inf
        assert state.next_extremum("MAX", 5.0) == -math.inf

    def test_value_after_remove_absent_raises(self):
        with pytest.raises(KeyError):
            value_after_remove(AggregateState([1.0]), "SUM", 2.0)
        with pytest.raises(KeyError):
            AggregateState([1.0]).next_extremum("MIN", 2.0)


class TestProperties:
    @given(st.lists(finite_values, min_size=1, max_size=50))
    def test_aggregates_match_builtins(self, values):
        state = AggregateState(values)
        assert state.count == len(values)
        assert state.sum == pytest.approx(sum(values), abs=1e-6)
        assert state.min == min(values)
        assert state.max == max(values)
        assert state.avg == pytest.approx(
            sum(values) / len(values), abs=1e-6
        )

    @given(
        st.lists(finite_values, min_size=2, max_size=30),
        st.data(),
    )
    def test_remove_then_aggregates_match_remaining(self, values, data):
        state = AggregateState(values)
        index = data.draw(st.integers(0, len(values) - 1))
        removed = values.pop(index)
        state.remove(removed)
        assert state.count == len(values)
        assert state.min == min(values)
        assert state.max == max(values)
        assert state.sum == pytest.approx(sum(values), abs=1e-6)

    @given(st.lists(finite_values, min_size=1, max_size=30), finite_values)
    def test_value_after_add_equals_actual_add(self, values, extra):
        state = AggregateState(values)
        predicted = {
            name: value_after_add(state, name, extra)
            for name in ("MIN", "MAX", "SUM", "COUNT", "AVG")
        }
        state.add(extra)
        for name, value in predicted.items():
            assert state.value(name) == pytest.approx(value, abs=1e-9)

    @given(st.lists(finite_values, min_size=2, max_size=30), st.data())
    def test_value_after_remove_equals_actual_remove(self, values, data):
        state = AggregateState(values)
        victim = data.draw(st.sampled_from(values))
        predicted = {
            name: value_after_remove(state, name, victim)
            for name in ("MIN", "MAX", "SUM", "COUNT", "AVG")
        }
        extrema = {
            name: state.next_extremum(name, victim)
            for name in ("MIN", "MAX")
            if victim == state.value(name)
        }
        state.remove(victim)
        for name, value in extrema.items():
            assert state.value(name) == value
        for name, value in predicted.items():
            assert state.value(name) == pytest.approx(value, abs=1e-9)

    @given(st.lists(finite_values, min_size=1, max_size=20))
    def test_add_remove_round_trip_is_identity(self, values):
        state = AggregateState(values)
        state.add(123.25)
        state.remove(123.25)
        assert state.count == len(values)
        assert state.min == min(values)
        assert state.max == max(values)
