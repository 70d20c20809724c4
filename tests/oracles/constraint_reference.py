"""Per-area reference semantics of the move-validity checks.

Production answers "does this region stay feasible without area *a*,
or with *a* added?" through one flat
:class:`repro.core.constraints.ConstraintPlan`. This module keeps the
formulation it replaced, one object call per constraint and per area:

- the name-dispatching hypothetical aggregate updates of an
  :class:`~repro.core.aggregates.AggregateState`
  (:func:`aggregate_value_after_add`, :func:`aggregate_value_after_remove`);
- the region-level values and predicates over
  :class:`~repro.core.constraints.Constraint` objects
  (:func:`value_after_add`, :func:`value_after_remove`,
  :func:`satisfies_after_add`, :func:`satisfies_after_remove`);
- the construction phases' own predicates: adjustment's receiver check
  (:func:`safe_to_add`), swap check (:func:`swap_is_valid`) and trim
  check (:func:`trim_keeps`), growing's enclave check (AVG only,
  :func:`satisfies_after_add` over ``constraints.avgs``) and the
  branch-and-bound monotone prune (:func:`violates_monotone`);
- the plan's predicates restated on top of them
  (:func:`plan_spare`, :func:`plan_accepts`, :func:`plan_spare_members`),
  which ``reference_hotpaths()`` patches into the plan.
"""

from __future__ import annotations

import math

from repro.core.aggregates import Aggregate, AggregateState
from repro.core.constraints import Constraint
from repro.core.region import Region

# ----------------------------------------------------------------------
# aggregate state: hypothetical updates, dispatched by name
# ----------------------------------------------------------------------


def aggregate_value_after_add(
    state: AggregateState, aggregate: str, added: float
) -> float:
    """Aggregate value if *added* were inserted, without mutating."""
    name = Aggregate.normalize(aggregate)
    added = float(added)
    if name == Aggregate.MIN:
        return min(state.min, added)
    if name == Aggregate.MAX:
        return max(state.max, added)
    if name == Aggregate.SUM:
        return state.sum + added
    if name == Aggregate.COUNT:
        return float(state.count + 1)
    return (state.sum + added) / (state.count + 1)


def aggregate_value_after_remove(
    state: AggregateState, aggregate: str, removed: float
) -> float:
    """Aggregate value if *removed* were deleted, without mutating.
    MIN/MAX scan every remaining value."""
    name = Aggregate.normalize(aggregate)
    removed = float(removed)
    if removed not in state:
        raise KeyError(f"value {removed!r} not present in aggregate state")
    remaining = list(state)
    remaining.remove(removed)
    if name == Aggregate.COUNT:
        return float(len(remaining))
    if name == Aggregate.SUM:
        return state.sum - removed
    if name == Aggregate.AVG:
        if not remaining:
            return math.nan
        return (state.sum - removed) / len(remaining)
    if name == Aggregate.MIN:
        return min(remaining, default=math.inf)
    return max(remaining, default=-math.inf)


# ----------------------------------------------------------------------
# region: one Constraint at a time
# ----------------------------------------------------------------------


def value_after_add(region: Region, constraint: Constraint, area_id: int) -> float:
    """Constraint aggregate value if *area_id* were added."""
    if constraint.aggregate == Aggregate.COUNT:
        return float(len(region) + 1)
    added = region.collection.attribute(area_id, constraint.attribute)
    return aggregate_value_after_add(
        region._state(constraint.attribute), constraint.aggregate, added
    )


def value_after_remove(
    region: Region, constraint: Constraint, area_id: int
) -> float:
    """Constraint aggregate value if *area_id* were removed."""
    if constraint.aggregate == Aggregate.COUNT:
        return float(len(region) - 1)
    removed = region.collection.attribute(area_id, constraint.attribute)
    return aggregate_value_after_remove(
        region._state(constraint.attribute), constraint.aggregate, removed
    )


def satisfies_after_add(region: Region, constraints, area_id: int) -> bool:
    """True when adding *area_id* keeps every constraint satisfied."""
    return all(c.contains(value_after_add(region, c, area_id)) for c in constraints)


def satisfies_after_remove(region: Region, constraints, area_id: int) -> bool:
    """True when removing *area_id* keeps every constraint satisfied
    (the region must stay non-empty)."""
    if len(region) <= 1:
        return False
    return all(
        c.contains(value_after_remove(region, c, area_id)) for c in constraints
    )


# ----------------------------------------------------------------------
# the construction phases' predicates
# ----------------------------------------------------------------------


def safe_to_add(constraints, region: Region, area_id: int) -> bool:
    """Adjustment Phases A/B, receiver side: adding *area_id* keeps the
    AVG constraints satisfied and no counting constraint above its
    upper bound."""
    if not satisfies_after_add(region, constraints.avgs, area_id):
        return False
    return not any(
        value_after_add(region, c, area_id) > c.upper
        for c in constraints.counting
    )


def swap_is_valid(
    constraints, donor: Region, receiver: Region, area_id: int
) -> bool:
    """Adjustment Phase B: the donor stays contiguous and keeps every
    constraint; the receiver passes :func:`safe_to_add`."""
    if len(donor) <= 1:
        return False
    if not satisfies_after_remove(donor, constraints, area_id):
        return False
    if not donor.remains_contiguous_without(area_id):
        return False
    return safe_to_add(constraints, receiver, area_id)


def trim_keeps(constraints, region: Region, area_id: int) -> bool:
    """Adjustment Phase D's constraint check: without *area_id* the
    region keeps its AVG and extrema constraints and no counting
    constraint falls below its lower bound."""
    keep = tuple(constraints.avgs) + tuple(constraints.extrema)
    if not satisfies_after_remove(region, keep, area_id):
        return False
    return not any(
        value_after_remove(region, c, area_id) < c.lower
        for c in constraints.counting
    )


def violates_monotone(uppers, region: Region, area_id: int) -> bool:
    """Branch and bound's prune: adding *area_id* lifts a counting
    constraint of *uppers* over its upper bound."""
    return any(value_after_add(region, c, area_id) > c.upper for c in uppers)


# ----------------------------------------------------------------------
# the plan's predicates, restated per area
# ----------------------------------------------------------------------


def plan_constraints(plan) -> list[Constraint]:
    """A plan's entries as :class:`Constraint` objects."""
    return [
        Constraint(aggregate, attribute or "", lower, upper)
        for aggregate, attribute, _, lower, upper in plan.entries
    ]


def plan_spare(plan, region: Region, area_id: int) -> bool:
    return satisfies_after_remove(region, plan_constraints(plan), area_id)


def plan_accepts(plan, region: Region, area_id: int) -> bool:
    return satisfies_after_add(region, plan_constraints(plan), area_id)


def plan_spare_members(plan, region: Region) -> list[int]:
    return [
        area_id
        for area_id in sorted(region.removable_areas())
        if plan_spare(plan, region, area_id)
    ]
