"""``ConstraintPlan`` against the per-area reference predicates.

Every verdict of the plan — the full plan's ``spare``/``accepts``/
``spare_members`` and each restricted plan a construction phase checks
— must equal the reference predicates of
``oracles/constraint_reference.py`` on random regions: all five
aggregates, infinite and equal bounds, unique and duplicated MIN/MAX
holders, and 1- and 2-area regions.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core import Area, AreaCollection, ConstraintSet, Region
from repro.core.aggregates import Aggregate
from repro.core.constraints import Constraint, ConstraintPlan

from oracles import constraint_reference as ref
from oracles.hotpath_reference import removable_areas

ATTRIBUTES = ("a", "b")
VALUES = (0.0, 1.0, 2.0, 2.5, 4.0)
# Bound levels per aggregate, so that verdicts flip inside the range
# random 1–9-area regions reach.
LEVELS = {
    Aggregate.MIN: VALUES,
    Aggregate.MAX: VALUES,
    Aggregate.AVG: (0.5, 1.0, 1.5, 2.0, 2.5, 3.0),
    Aggregate.SUM: (0.0, 2.0, 4.5, 6.0, 9.0, 14.0),
    Aggregate.COUNT: (1.0, 2.0, 3.0, 4.0, 6.0),
}
COUNTING = (Aggregate.SUM, Aggregate.COUNT)
SIZES = (1, 1, 2, 2, 3, 4, 6, 9)


def grid_world(values: dict[int, tuple[float, float]]) -> AreaCollection:
    """A 3×3 rook grid; area ``i`` carries ``a, b = values[i]``."""
    areas = [
        Area(i, {"a": a, "b": b}, dissimilarity=a)
        for i, (a, b) in values.items()
    ]

    def neighbors(i):
        row, col = divmod(i - 1, 3)
        for r, c in ((row - 1, col), (row + 1, col), (row, col - 1),
                     (row, col + 1)):
            if 0 <= r < 3 and 0 <= c < 3:
                yield 3 * r + c + 1

    adjacency = {i: set(neighbors(i)) for i in values}
    return AreaCollection(areas, adjacency)


def random_constraint(rng: random.Random) -> Constraint:
    aggregate = rng.choice(Aggregate.all())
    attribute = "" if aggregate == Aggregate.COUNT else rng.choice(ATTRIBUTES)
    levels = LEVELS[aggregate]
    kinds = ["lower", "upper", "both", "equal"]
    if aggregate != Aggregate.COUNT:
        kinds.append("open")  # both bounds infinite
    kind = rng.choice(kinds)
    lower, upper = sorted(rng.sample(levels, 2))
    if kind == "equal":
        upper = lower
    if kind in ("upper", "open"):
        lower = -math.inf
    if kind in ("lower", "open"):
        upper = math.inf
    return Constraint(aggregate, attribute, lower, upper)


def check_world(rng: random.Random, tally: dict) -> None:
    collection = grid_world(
        {i: (rng.choice(VALUES), rng.choice(VALUES)) for i in range(1, 10)}
    )
    constraints = ConstraintSet(
        random_constraint(rng) for _ in range(rng.randint(1, 5))
    )
    plan = ConstraintPlan.of(collection, constraints)
    members = rng.sample(range(1, 10), rng.choice(SIZES))
    region = Region(0, collection, ATTRIBUTES, areas=members)
    others = [area_id for area_id in range(1, 10) if area_id not in region]
    receiver = Region(1, collection, ATTRIBUTES, areas=others[:rng.randint(0, 3)])
    uppers = [c for c in constraints.counting if c.has_upper]
    restricted = {
        "receiver": plan.receiver(),
        "trim": plan.trim(),
        "centrality": plan.centrality(),
        "uppers": plan.restrict(upper=COUNTING),
    }
    for area_id in range(1, 10):
        if area_id in region:
            expected = ref.satisfies_after_remove(region, constraints, area_id)
            assert plan.spare(region, area_id) == expected
            tally["spare", expected] += 1
            assert restricted["trim"].spare(region, area_id) == ref.trim_keeps(
                constraints, region, area_id
            )
            # Adjustment Phase B's swap check, as composed there.
            assert (
                plan.spare(region, area_id)
                and region.remains_contiguous_without(area_id)
                and restricted["receiver"].accepts(receiver, area_id)
            ) == ref.swap_is_valid(constraints, region, receiver, area_id)
            continue
        expected = ref.satisfies_after_add(region, constraints, area_id)
        assert plan.accepts(region, area_id) == expected
        tally["accepts", expected] += 1
        assert restricted["receiver"].accepts(region, area_id) == ref.safe_to_add(
            constraints, region, area_id
        )
        assert restricted["centrality"].accepts(
            region, area_id
        ) == ref.satisfies_after_add(region, constraints.avgs, area_id)
        assert restricted["uppers"].accepts(
            region, area_id
        ) == (not ref.violates_monotone(uppers, region, area_id))
    assert plan.spare_members(region) == [
        area_id
        for area_id in sorted(removable_areas(region))
        if ref.satisfies_after_remove(region, constraints, area_id)
    ]


def test_plan_matches_the_reference_on_random_regions():
    rng = random.Random(20221)
    tally = {
        (kind, verdict): 0
        for kind in ("spare", "accepts")
        for verdict in (True, False)
    }
    for _ in range(1500):
        check_world(rng, tally)
    # Both verdicts occur often on both sides.
    assert min(tally.values()) > 500, tally


@pytest.mark.parametrize(
    "aggregate,bounds,values,expected",
    [
        # A unique MIN holder leaving lifts the minimum; a duplicated
        # one leaves it where it was.
        ("MIN", (2.0, math.inf), (1.0, 3.0, 4.0), [1]),
        ("MIN", (2.0, math.inf), (1.0, 1.0, 4.0), []),
        ("MAX", (-math.inf, 2.0), (4.0, 0.0, 1.0), [1]),
        ("MAX", (-math.inf, 2.0), (4.0, 4.0, 1.0), []),
        # Equal bounds: AVG exactly 2 after the departure.
        ("AVG", (2.0, 2.0), (2.0, 2.0, 2.0), [1, 2, 3]),
        ("AVG", (2.0, 2.0), (1.0, 2.0, 3.0), [2]),
        ("SUM", (4.0, 4.0), (1.0, 3.0, 1.0), [1, 3]),
        ("COUNT", (2.0, 2.0), (1.0, 1.0, 1.0), [1, 2, 3]),
        ("COUNT", (3.0, math.inf), (1.0, 1.0, 1.0), []),
        # Both bounds infinite: every member can go.
        ("MIN", (-math.inf, math.inf), (1.0, 2.0, 3.0), [1, 2, 3]),
    ],
)
def test_spare_on_edge_cases(aggregate, bounds, values, expected):
    collection = grid_world(
        {i: (values[i - 1] if i <= 3 else 9.0, 0.0) for i in range(1, 10)}
    )
    attribute = "" if aggregate == "COUNT" else "a"
    constraints = ConstraintSet([Constraint(aggregate, attribute, *bounds)])
    plan = ConstraintPlan.of(collection, constraints)
    region = Region(0, collection, ATTRIBUTES, areas=[1, 2, 3])  # a path
    spared = [a for a in (1, 2, 3) if plan.spare(region, a)]
    assert spared == expected
    assert spared == [
        a for a in (1, 2, 3) if ref.satisfies_after_remove(region, constraints, a)
    ]
    # The middle area is an articulation point: never a spare member.
    assert plan.spare_members(region) == [a for a in expected if a != 2]


def test_one_and_two_area_regions():
    collection = grid_world({i: (float(i), 1.0) for i in range(1, 10)})
    constraints = ConstraintSet([
        Constraint("AVG", "a", 0.0, 10.0),
        Constraint("COUNT", "", 1.0, 2.0),
    ])
    plan = ConstraintPlan.of(collection, constraints)
    single = Region(0, collection, ATTRIBUTES, areas=[5])
    assert not plan.spare(single, 5)
    assert plan.spare_members(single) == []
    assert plan.accepts(single, 4)
    pair = Region(1, collection, ATTRIBUTES, areas=[4, 5])
    assert plan.spare(pair, 4) and plan.spare(pair, 5)
    assert plan.spare_members(pair) == [4, 5]
    assert not plan.accepts(pair, 6)  # COUNT 3 > 2
    for region in (single, pair):
        for area_id in range(1, 10):
            if area_id in region:
                assert plan.spare(region, area_id) == ref.satisfies_after_remove(
                    region, constraints, area_id
                )
            else:
                assert plan.accepts(region, area_id) == ref.satisfies_after_add(
                    region, constraints, area_id
                )


def test_restrict_keeps_only_the_named_bounds():
    collection = grid_world({i: (1.0, 1.0) for i in range(1, 10)})
    constraints = ConstraintSet([
        Constraint("MIN", "a", 0.0, 5.0),
        Constraint("AVG", "b", 1.0, 2.0),
        Constraint("SUM", "a", 3.0, math.inf),
        Constraint("COUNT", "", 2.0, 4.0),
    ])
    plan = ConstraintPlan.of(collection, constraints)
    bounds = lambda p: [(e[0], e[3], e[4]) for e in p.entries]  # noqa: E731
    assert bounds(plan.receiver()) == [
        ("AVG", 1.0, 2.0), ("COUNT", -math.inf, 4.0)
    ]
    assert bounds(plan.trim()) == [
        ("MIN", 0.0, 5.0), ("AVG", 1.0, 2.0), ("SUM", 3.0, math.inf),
        ("COUNT", 2.0, math.inf),
    ]
    assert bounds(plan.centrality()) == [("AVG", 1.0, 2.0)]
    assert ConstraintPlan.of(collection, constraints) is plan
