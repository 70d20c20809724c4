"""Streaming SQL-style aggregates over a multiset of values.

The EMP problem (Section III of the paper) evaluates five aggregate
functions over the spatially extensive attribute values of the areas in
a region: ``MIN``, ``MAX``, ``AVG``, ``SUM`` and ``COUNT``. Regions are
mutated heavily by the FaCT construction and Tabu phases (areas are
added, removed and swapped), so aggregates must support efficient
incremental updates in both directions.

:class:`AggregateState` maintains one attribute's multiset of values:

- ``SUM``/``COUNT``/``AVG`` are O(1) per update.
- ``MIN``/``MAX`` are O(1) on insert and amortized cheap on remove: the
  cached extremum is only recomputed when the removed value *was* the
  cached extremum and no copy of it remains (regions are small in
  practice — a handful to a few dozen areas — so the recompute scans a
  short multiset).

Values are stored in a :class:`collections.Counter` keyed by the exact
float, which is safe because values are never arithmetically derived:
the same area always contributes the identical float object value.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator

__all__ = ["AggregateState", "Aggregate", "AGGREGATE_NAMES"]


# The canonical aggregate identifiers, mirroring the SQL keywords used
# throughout the paper. They live here (not in constraints.py) so low
# level code can depend on them without importing the constraint model.
class Aggregate:
    """Enumeration of the five EMP aggregate functions.

    Implemented as plain string constants rather than :class:`enum.Enum`
    so that user-facing APIs accept both ``Aggregate.MIN`` and the
    literal string ``"MIN"`` interchangeably.
    """

    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"
    SUM = "SUM"
    COUNT = "COUNT"

    @classmethod
    def all(cls) -> tuple[str, ...]:
        """Return the five aggregate names in the paper's order."""
        return (cls.MIN, cls.MAX, cls.AVG, cls.SUM, cls.COUNT)

    @classmethod
    def normalize(cls, value: str) -> str:
        """Return the canonical (upper-case) name for *value*.

        Raises :class:`ValueError` for unknown aggregate names.
        """
        name = str(value).upper()
        if name not in cls.all():
            raise ValueError(
                f"unknown aggregate {value!r}; expected one of {cls.all()}"
            )
        return name


AGGREGATE_NAMES = Aggregate.all()

# Set view of the canonical names: value() skips the str.upper()
# round trip for names that are already canonical — which they always
# are when they come off a Constraint.
_CANONICAL = frozenset(AGGREGATE_NAMES)


class AggregateState:
    """Incrementally maintained aggregates of one value multiset.

    >>> state = AggregateState([4.0, 2.0])
    >>> state.add(6.0)
    >>> state.sum, state.count, state.avg
    (12.0, 3, 4.0)
    >>> state.remove(2.0)
    >>> state.min, state.max
    (4.0, 6.0)
    """

    __slots__ = ("_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, values: Iterable[float] = ()):
        self._counts: Counter[float] = Counter()
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        for value in values:
            self.add(value)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Insert one occurrence of *value* into the multiset."""
        value = float(value)
        self._counts[value] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def remove(self, value: float) -> None:
        """Remove one occurrence of *value*.

        Raises :class:`KeyError` if *value* is not present, which guards
        against region bookkeeping bugs in the solver.
        """
        value = float(value)
        present = self._counts.get(value, 0)
        if present <= 0:
            raise KeyError(f"value {value!r} not present in aggregate state")
        if present == 1:
            del self._counts[value]
        else:
            self._counts[value] = present - 1
        self._count -= 1
        self._sum -= value
        if self._count == 0:
            self._min = math.inf
            self._max = -math.inf
            self._sum = 0.0  # cancel float drift on emptied state
            return
        if value <= self._min and value not in self._counts:
            self._min = min(self._counts)
        if value >= self._max and value not in self._counts:
            self._max = max(self._counts)

    def merge(self, other: "AggregateState") -> None:
        """Fold all values of *other* into this state (region merge)."""
        for value, multiplicity in other._counts.items():
            for _ in range(multiplicity):
                self.add(value)

    def copy(self) -> "AggregateState":
        """Return an independent deep copy of this state."""
        clone = AggregateState()
        clone._counts = Counter(self._counts)
        clone._count = self._count
        clone._sum = self._sum
        clone._min = self._min
        clone._max = self._max
        return clone

    # ------------------------------------------------------------------
    # aggregate values
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """``COUNT`` — the number of values in the multiset."""
        return self._count

    @property
    def sum(self) -> float:
        """``SUM`` of the multiset; ``0.0`` when empty (SQL returns NULL,
        but 0 is the convenient identity for the solver's arithmetic)."""
        return self._sum

    @property
    def min(self) -> float:
        """``MIN`` of the multiset; ``+inf`` when empty."""
        return self._min

    @property
    def max(self) -> float:
        """``MAX`` of the multiset; ``-inf`` when empty."""
        return self._max

    @property
    def avg(self) -> float:
        """``AVG`` of the multiset; ``nan`` when empty."""
        if self._count == 0:
            return math.nan
        return self._sum / self._count

    def value(self, aggregate: str) -> float:
        """Return the value of the named aggregate function."""
        name = (
            aggregate
            if aggregate in _CANONICAL
            else Aggregate.normalize(aggregate)
        )
        if name == Aggregate.MIN:
            return self.min
        if name == Aggregate.MAX:
            return self.max
        if name == Aggregate.AVG:
            return self.avg
        if name == Aggregate.SUM:
            return self.sum
        return float(self.count)

    def next_extremum(self, aggregate: str, removed: float) -> float:
        """``MIN`` (``aggregate == "MIN"``) or ``MAX`` of the multiset
        if one occurrence of *removed* left it, without mutating.

        The constraint plan asks this only for a value at the extremum;
        the distinct values are scanned only when *removed* is the
        unique holder. Raises :class:`KeyError` if *removed* is absent.
        """
        present = self._counts.get(removed, 0)
        if present <= 0:
            raise KeyError(f"value {removed!r} not present in aggregate state")
        if self._count == 1:
            return math.inf if aggregate == Aggregate.MIN else -math.inf
        if aggregate == Aggregate.MIN:
            if removed > self._min or present > 1:
                return self._min
            return min(v for v in self._counts if v != removed)
        if removed < self._max or present > 1:
            return self._max
        return max(v for v in self._counts if v != removed)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[float]:
        return iter(self._counts.elements())

    def __contains__(self, value: float) -> bool:
        return self._counts.get(float(value), 0) > 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"AggregateState(count={self._count}, sum={self._sum:g}, "
            f"min={self._min:g}, max={self._max:g})"
        )
