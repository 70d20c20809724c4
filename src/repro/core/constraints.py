"""User-defined constraints — Definition III.1 of the paper.

A constraint is the 4-tuple ``(f, s, l, u)``: an aggregate function
``f`` ∈ {MIN, MAX, AVG, SUM, COUNT}, a spatially extensive attribute
``s``, a lower bound ``l`` ∈ [−∞, ∞) and an upper bound ``u`` ∈ (−∞, ∞].
A region ``R`` satisfies the constraint when ``l ≤ f(R.s) ≤ u``.

The paper groups the five aggregates into three families, which drive
the structure of the FaCT construction phase (Section V-B):

- **extrema** (MIN, MAX) — filter invalid areas and pick seed areas;
- **centrality** (AVG) — non-monotonic; region growing;
- **counting** (SUM, COUNT) — monotonic; final adjustments.

:class:`ConstraintSet` bundles the constraints of one query and exposes
family-based views plus whole-region validation helpers.
:class:`ConstraintPlan` lays one set out flat over one collection and
answers every move-validity question of construction and Tabu: does a
region stay feasible without one of its areas, or with one more?
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..exceptions import InvalidConstraintError
from .aggregates import Aggregate

__all__ = [
    "Constraint",
    "ConstraintSet",
    "ConstraintFamily",
    "ConstraintPlan",
    "min_constraint",
    "max_constraint",
    "avg_constraint",
    "sum_constraint",
    "count_constraint",
]


class ConstraintFamily:
    """The three constraint families of Section V-B."""

    EXTREMA = "extrema"
    CENTRALITY = "centrality"
    COUNTING = "counting"


_FAMILY_BY_AGGREGATE = {
    Aggregate.MIN: ConstraintFamily.EXTREMA,
    Aggregate.MAX: ConstraintFamily.EXTREMA,
    Aggregate.AVG: ConstraintFamily.CENTRALITY,
    Aggregate.SUM: ConstraintFamily.COUNTING,
    Aggregate.COUNT: ConstraintFamily.COUNTING,
}


@dataclass(frozen=True)
class Constraint:
    """One user-defined constraint ``l ≤ f(s) ≤ u``.

    Parameters
    ----------
    aggregate:
        One of ``"MIN"``, ``"MAX"``, ``"AVG"``, ``"SUM"``, ``"COUNT"``
        (case-insensitive; also accepts :class:`Aggregate` constants).
    attribute:
        Name of the spatially extensive attribute the aggregate is
        computed over. For ``COUNT`` the attribute is conventional only
        (SQL ``COUNT`` counts rows — here, areas) and may be ``""``.
    lower, upper:
        Threshold range. ``-math.inf`` / ``math.inf`` produce the
        open-ended comparisons ``f(s) ≤ u`` / ``f(s) ≥ l``.
    """

    aggregate: str
    attribute: str
    lower: float = -math.inf
    upper: float = math.inf

    def __post_init__(self) -> None:
        object.__setattr__(self, "aggregate", Aggregate.normalize(self.aggregate))
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        if math.isnan(self.lower) or math.isnan(self.upper):
            raise InvalidConstraintError("constraint bounds must not be NaN")
        if self.lower > self.upper:
            raise InvalidConstraintError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )
        if math.isinf(self.lower) and self.lower > 0:
            raise InvalidConstraintError("lower bound must be in [-inf, inf)")
        if math.isinf(self.upper) and self.upper < 0:
            raise InvalidConstraintError("upper bound must be in (-inf, inf]")
        if self.aggregate != Aggregate.COUNT and not self.attribute:
            raise InvalidConstraintError(
                f"{self.aggregate} constraint requires an attribute name"
            )
        if self.aggregate == Aggregate.COUNT and self.lower < 1 and math.isinf(
            self.upper
        ):
            # COUNT >= 0 over non-empty regions is vacuous; flag likely typos.
            if math.isinf(self.lower):
                raise InvalidConstraintError(
                    "COUNT constraint with infinite range is vacuous"
                )

    # ------------------------------------------------------------------
    @property
    def family(self) -> str:
        """Constraint family: extrema, centrality or counting."""
        return _FAMILY_BY_AGGREGATE[self.aggregate]

    @property
    def is_monotonic(self) -> bool:
        """True for SUM/COUNT — adding areas moves the aggregate one way
        (assuming non-negative attribute values, as the paper does)."""
        return self.family == ConstraintFamily.COUNTING

    @property
    def has_lower(self) -> bool:
        """True when the lower bound is finite."""
        return not math.isinf(self.lower)

    @property
    def has_upper(self) -> bool:
        """True when the upper bound is finite."""
        return not math.isinf(self.upper)

    def contains(self, value: float) -> bool:
        """Return True when *value* lies within ``[lower, upper]``.

        ``nan`` never satisfies a constraint (an empty region's AVG).
        """
        return self.lower <= value <= self.upper

    def below(self, value: float) -> bool:
        """True when *value* lies strictly below the lower bound."""
        return value < self.lower

    def above(self, value: float) -> bool:
        """True when *value* lies strictly above the upper bound."""
        return value > self.upper

    def with_bounds(self, lower: float = None, upper: float = None) -> "Constraint":
        """Return a copy with one or both bounds replaced."""
        return Constraint(
            self.aggregate,
            self.attribute,
            self.lower if lower is None else lower,
            self.upper if upper is None else upper,
        )

    def __str__(self) -> str:
        attr = self.attribute or "*"
        return f"{self.lower:g} <= {self.aggregate}({attr}) <= {self.upper:g}"


# ----------------------------------------------------------------------
# convenience constructors (the public, discoverable API)
# ----------------------------------------------------------------------

def min_constraint(attribute: str, lower: float = -math.inf,
                   upper: float = math.inf) -> Constraint:
    """Build a ``MIN`` (extrema) constraint: ``l ≤ MIN(attribute) ≤ u``."""
    return Constraint(Aggregate.MIN, attribute, lower, upper)


def max_constraint(attribute: str, lower: float = -math.inf,
                   upper: float = math.inf) -> Constraint:
    """Build a ``MAX`` (extrema) constraint: ``l ≤ MAX(attribute) ≤ u``."""
    return Constraint(Aggregate.MAX, attribute, lower, upper)


def avg_constraint(attribute: str, lower: float = -math.inf,
                   upper: float = math.inf) -> Constraint:
    """Build an ``AVG`` (centrality) constraint: ``l ≤ AVG(attribute) ≤ u``."""
    return Constraint(Aggregate.AVG, attribute, lower, upper)


def sum_constraint(attribute: str, lower: float = -math.inf,
                   upper: float = math.inf) -> Constraint:
    """Build a ``SUM`` (counting) constraint: ``l ≤ SUM(attribute) ≤ u``.

    With ``upper=inf`` this is exactly the classic max-p-regions
    threshold constraint of Duque et al. (2012).
    """
    return Constraint(Aggregate.SUM, attribute, lower, upper)


def count_constraint(lower: float = 1, upper: float = math.inf) -> Constraint:
    """Build a ``COUNT`` (counting) constraint on the number of areas."""
    return Constraint(Aggregate.COUNT, "", lower, upper)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConstraintSet:
    """An immutable bundle of the constraints of one EMP query.

    Provides family views used by the three FaCT construction steps and
    set-level validation. The set may be empty (then every non-empty
    contiguous region is feasible and EMP degenerates to "one region per
    area").
    """

    constraints: tuple[Constraint, ...] = field(default_factory=tuple)

    def __init__(self, constraints: Iterable[Constraint] = ()):
        items = tuple(constraints)
        for item in items:
            if not isinstance(item, Constraint):
                raise InvalidConstraintError(
                    f"expected Constraint, got {type(item).__name__}"
                )
        object.__setattr__(self, "constraints", items)

    # -- collection protocol ------------------------------------------
    def __iter__(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __bool__(self) -> bool:
        return bool(self.constraints)

    def __getitem__(self, index: int) -> Constraint:
        return self.constraints[index]

    # -- family views --------------------------------------------------
    def by_aggregate(self, aggregate: str) -> tuple[Constraint, ...]:
        """All constraints using the given aggregate function."""
        name = Aggregate.normalize(aggregate)
        return tuple(c for c in self.constraints if c.aggregate == name)

    @property
    def extrema(self) -> tuple[Constraint, ...]:
        """MIN and MAX constraints (Step 1: filtering and seeding)."""
        return tuple(
            c for c in self.constraints if c.family == ConstraintFamily.EXTREMA
        )

    @property
    def centrality(self) -> tuple[Constraint, ...]:
        """AVG constraints (Step 2: region growing)."""
        return tuple(
            c for c in self.constraints if c.family == ConstraintFamily.CENTRALITY
        )

    @property
    def counting(self) -> tuple[Constraint, ...]:
        """SUM and COUNT constraints (Step 3: monotonic adjustments)."""
        return tuple(
            c for c in self.constraints if c.family == ConstraintFamily.COUNTING
        )

    @property
    def mins(self) -> tuple[Constraint, ...]:
        """Only the MIN constraints."""
        return self.by_aggregate(Aggregate.MIN)

    @property
    def maxes(self) -> tuple[Constraint, ...]:
        """Only the MAX constraints."""
        return self.by_aggregate(Aggregate.MAX)

    @property
    def avgs(self) -> tuple[Constraint, ...]:
        """Only the AVG constraints."""
        return self.by_aggregate(Aggregate.AVG)

    @property
    def sums(self) -> tuple[Constraint, ...]:
        """Only the SUM constraints."""
        return self.by_aggregate(Aggregate.SUM)

    @property
    def counts(self) -> tuple[Constraint, ...]:
        """Only the COUNT constraints."""
        return self.by_aggregate(Aggregate.COUNT)

    def attributes(self) -> frozenset[str]:
        """All attribute names referenced by any constraint."""
        return frozenset(c.attribute for c in self.constraints if c.attribute)

    def on_attribute(self, attribute: str) -> tuple[Constraint, ...]:
        """All constraints imposed on the given attribute."""
        return tuple(c for c in self.constraints if c.attribute == attribute)

    # -- area-level helpers used by filtering/seeding -------------------
    def area_is_invalid(self, attributes) -> bool:
        """True if an area with these attribute values can never be part
        of a valid region (feasibility-phase filtration, Section V-A).

        An area is invalid when ``s_min < l_min`` for a MIN constraint,
        ``s_max > u_max`` for a MAX constraint, or ``s_sum > u_sum`` for
        a SUM constraint.
        """
        for c in self.mins:
            if attributes[c.attribute] < c.lower:
                return True
        for c in self.maxes:
            if attributes[c.attribute] > c.upper:
                return True
        for c in self.sums:
            if attributes[c.attribute] > c.upper:
                return True
        return False

    def area_is_seed(self, attributes) -> bool:
        """True if an area qualifies as a seed area (Step 1).

        A seed satisfies both bounds of at least one MIN or MAX
        constraint. When there are no extrema constraints every area is
        a seed (Section V-D).
        """
        extrema = self.extrema
        if not extrema:
            return True
        for c in extrema:
            if c.contains(attributes[c.attribute]):
                return True
        return False

    def seed_satisfied(self, constraint: Constraint, attributes) -> bool:
        """True if the area's value lies inside *constraint*'s range —
        i.e. the area can serve as this extrema constraint's seed."""
        return constraint.contains(attributes[constraint.attribute])


# ----------------------------------------------------------------------
_SUM, _AVG, _MIN = Aggregate.SUM, Aggregate.AVG, Aggregate.MIN
_COUNTING = (Aggregate.SUM, Aggregate.COUNT)

# collection -> {constraint set -> plan}: every solver state over the
# same pair shares one plan, which lives as long as its collection.
_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class ConstraintPlan:
    """A constraint set laid out flat over one collection: the one
    answer to "does this region stay feasible without area *a*, or with
    *a* added?" for every construction phase and the Tabu search.

    ``entries`` are ``(aggregate, attribute, table, lower, upper)``
    tuples in the set's order; ``table`` maps area id to the attribute
    value as the same float the regions' aggregate states hold, and
    COUNT entries carry no attribute and no table. The predicates read
    a region's size and its per-attribute
    :class:`~repro.core.aggregates.AggregateState` and replay the move:
    COUNT ``len ± 1``, SUM ``sum ± v``, AVG ``(sum ± v) / (len ± 1)``,
    MIN/MAX the extremum against ``v`` (on removal, the next extremum
    when ``v`` holds it). Contiguity is the caller's question.

    :meth:`of` builds the plan of a pair once; :meth:`restrict` derives
    the subsets the construction phases check (:meth:`receiver`,
    :meth:`trim`, :meth:`centrality`). The per-area reference
    predicates they are checked against live in
    ``tests/oracles/constraint_reference.py``.
    """

    __slots__ = ("entries", "counts", "valued")

    def __init__(self, entries: Iterable[tuple]):
        self.entries = tuple(entries)
        # COUNT bounds, and the entries that read an aggregate state.
        self.counts = tuple((e[3], e[4]) for e in self.entries if e[2] is None)
        self.valued = tuple(e for e in self.entries if e[2] is not None)

    @classmethod
    def of(cls, collection, constraints: ConstraintSet) -> "ConstraintPlan":
        """The shared plan of *constraints* over *collection*."""
        plans = _PLANS.setdefault(collection, {})
        plan = plans.get(constraints)
        if plan is None:
            tables: dict[str, dict[int, float]] = {}
            entries = []
            for c in constraints:
                attribute = table = None
                if c.aggregate != Aggregate.COUNT:
                    attribute = c.attribute
                    if attribute not in tables:
                        tables[attribute] = {
                            area_id: float(value)
                            for area_id, value in collection.attribute_values(
                                attribute
                            ).items()
                        }
                    table = tables[attribute]
                entries.append((c.aggregate, attribute, table, c.lower, c.upper))
            plan = plans[constraints] = cls(entries)
        return plan

    def restrict(self, both=(), lower=(), upper=()) -> "ConstraintPlan":
        """The sub-plan one phase checks: entries on an aggregate in
        *both* keep both bounds, in *lower* (*upper*) only that bound;
        other entries, and entries left without a finite bound, drop."""
        entries = []
        for aggregate, attribute, table, low, high in self.entries:
            if aggregate in lower:
                high = math.inf
            elif aggregate in upper:
                low = -math.inf
            elif aggregate not in both:
                continue
            if low != -math.inf or high != math.inf:
                entries.append((aggregate, attribute, table, low, high))
        return ConstraintPlan(entries)

    def receiver(self) -> "ConstraintPlan":
        """Adjustment Phases A/B, receiver side: AVG and the counting
        upper bounds (a filtered-valid area cannot break an extremum,
        and counting lower bounds only get closer)."""
        return self.restrict(both=(Aggregate.AVG,), upper=_COUNTING)

    def trim(self) -> "ConstraintPlan":
        """Adjustment Phase D: AVG, the extrema and the counting lower
        bounds."""
        return self.restrict(
            both=(Aggregate.AVG, Aggregate.MIN, Aggregate.MAX), lower=_COUNTING
        )

    def centrality(self) -> "ConstraintPlan":
        """The enclave round of region growing: AVG only."""
        return self.restrict(both=(Aggregate.AVG,))

    def spare(self, region, area_id: int) -> bool:
        """True when *region* keeps every entry without its member
        *area_id* (and stays non-empty)."""
        return bool(self._spared(region, (area_id,)))

    def spare_members(self, region) -> list[int]:
        """The removable members of *region* it can spare, by id: a
        Tabu donor's side in one call, COUNT and the aggregate lookups
        done once. The contiguity oracle is asked only when the COUNT
        bounds allow a departure at all."""
        return self._spared(region, None)

    def _spared(self, region, area_ids) -> list[int]:
        remaining = len(region) - 1
        if remaining < 1 or not all(
            lower <= remaining <= upper for lower, upper in self.counts
        ):
            return []
        if area_ids is None:
            area_ids = sorted(region.removable_areas())
        aggregates = region._aggregates
        checks = [
            (aggregate, aggregates[attribute], table, lower, upper)
            for aggregate, attribute, table, lower, upper in self.valued
        ]
        kept = []
        for area_id in area_ids:
            for aggregate, agg, table, lower, upper in checks:
                v = table[area_id]
                if aggregate == _SUM:
                    value = agg.sum - v
                elif aggregate == _AVG:
                    value = (agg.sum - v) / remaining
                elif aggregate == _MIN:
                    value = agg.min
                    if v <= value:  # the extremum may leave with it
                        value = agg.next_extremum(aggregate, v)
                else:  # MAX
                    value = agg.max
                    if v >= value:
                        value = agg.next_extremum(aggregate, v)
                if not lower <= value <= upper:
                    break
            else:
                kept.append(area_id)
        return kept

    def accepts(self, region, area_id: int) -> bool:
        """True when *region* keeps every entry with *area_id* added."""
        grown = len(region) + 1
        for lower, upper in self.counts:
            if not lower <= grown <= upper:
                return False
        aggregates = region._aggregates
        for aggregate, attribute, table, lower, upper in self.valued:
            v = table[area_id]
            agg = aggregates[attribute]
            if aggregate == _SUM:
                value = agg.sum + v
            elif aggregate == _AVG:
                value = (agg.sum + v) / grown
            elif aggregate == _MIN:
                value = agg.min
                if v < value:
                    value = v
            else:  # MAX
                value = agg.max
                if v > value:
                    value = v
            if not lower <= value <= upper:
                return False
        return True
