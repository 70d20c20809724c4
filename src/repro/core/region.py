"""Mutable regions with incrementally maintained aggregates.

A :class:`Region` (Definition III.2) is a non-empty, spatially
contiguous set of areas. The FaCT construction and Tabu phases mutate
regions constantly — adding, removing, swapping and merging areas — so
a region maintains, incrementally:

- one :class:`~repro.core.aggregates.AggregateState` per *tracked*
  attribute (the attributes mentioned by the query's constraints), and
- its internal heterogeneity contribution
  ``sum_{a_i, a_j in R} |d_i - d_j|`` over unordered pairs.

Contiguity is **not** enforced by ``add_area``/``remove_area`` — the
solver performs moves it has already validated — but the class provides
the validation predicates (:meth:`is_contiguous`,
:meth:`remains_contiguous_without`) used before every move.

Those predicates are served by an **incremental contiguity oracle**:
the region lazily computes, in one Tarjan/component pass, whether it
is connected and which members are articulation points, caches that
answer, and invalidates it on every membership mutation. Between
mutations, ``remains_contiguous_without`` is an O(1) set lookup
instead of a BFS over the region — the difference between
O(candidates × (|R|+E)) and O(|R|+E) per solver iteration — and the
set of removable members (:meth:`removable_areas`) is only built when
someone asks for it.

Heterogeneity-delta queries (the Tabu phase's innermost loop) are
served by a **maintained objective structure**: the member
dissimilarities in sorted order plus their prefix sums. One membership
mutation updates the sorted list in place (one ``insort``/deletion —
``objective_struct_updates`` in :class:`~repro.core.perf.
PerfCounters`) and merely marks the prefix sums dirty; a delta query
is then a single bisection, ``rank * d - prefix[rank]`` plus the
symmetric upper term — O(log g) instead of the O(g log g) re-sort of
the pre-structure implementation (``delta_fastpath`` vs
``delta_recompute``).

The reference semantics live in ``tests/oracles/hotpath_reference.py``:
a fresh BFS per contiguity verdict and a sort + prefix pass per delta.
The test suite replays both caches against them and asserts
bit-identical answers (the sorted multiset, the prefix accumulation
order and the closed-form evaluation are the same either way).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from ..contiguity.graph import BlockCutIndex, block_cut_state
from ..exceptions import ContiguityError, InvalidAreaError
from .aggregates import Aggregate, AggregateState
from .area import AreaCollection
from .constraints import Constraint, ConstraintSet
from .perf import PerfCounters

__all__ = ["Region"]

# Pending block-cut mutations beyond this many trigger a full oracle
# rebuild instead of a replay: a long log usually means a bulk merge,
# where one DFS beats dozens of tree-surgery steps.
_BC_LOG_CAP = 128


class Region:
    """A mutable region over an :class:`AreaCollection`.

    Parameters
    ----------
    region_id:
        Integer label. FaCT uses ``-1`` for temporary regions that are
        not yet committed to the region list (Algorithm 1 in the paper).
    collection:
        The area collection the region draws areas from.
    tracked_attributes:
        Attribute names whose aggregates must be maintained. Pass the
        result of ``ConstraintSet.attributes()``; the dissimilarity
        values are always tracked separately.
    areas:
        Optional initial members.
    """

    __slots__ = (
        "region_id",
        "_collection",
        "_areas",
        "_aggregates",
        "_dissimilarities",
        "_heterogeneity",
        "_sorted_d",
        "_prefix_d",
        "_struct_np",
        "_induced_adj",
        "_contig_cache",
        "_bc_index",
        "_bc_log",
        "_version",
        "_array_state",
        "perf",
    )

    def __init__(
        self,
        region_id: int,
        collection: AreaCollection,
        tracked_attributes: Iterable[str] = (),
        areas: Iterable[int] = (),
        perf: PerfCounters | None = None,
        array_state=None,
    ):
        self.region_id = region_id
        self._collection = collection
        self._areas: set[int] = set()
        self._aggregates: dict[str, AggregateState] = {
            name: AggregateState() for name in tracked_attributes
        }
        self._dissimilarities: dict[int, float] = {}
        self._heterogeneity = 0.0
        # Maintained sorted dissimilarity values + lazily refreshed
        # prefix sums: heterogeneity-delta queries (the Tabu phase's
        # inner loop) are O(log g) bisections, and one membership
        # mutation costs a single in-place insort/deletion instead of
        # invalidating the whole structure.
        self._sorted_d: list[float] | None = None
        self._prefix_d: list[float] | None = None
        # ndarray copies of the structure above, cached for the
        # vectorized Tabu scorer and invalidated on every mutation.
        self._struct_np: tuple | None = None
        # Induced adjacency of the member set (member → in-region
        # neighbor list), maintained in O(degree) per mutation so each
        # oracle rebuild is a bare DFS over precomputed rows instead of
        # refiltering every member's full neighbor set.
        self._induced_adj: dict[int, list[int]] = {}
        # Contiguity oracle answer (see _oracle), rebuilt lazily and
        # invalidated on every membership mutation.
        self._contig_cache: tuple | None = None
        # Incremental block-cut structure + pending mutation log. Each
        # log entry carries the mutation's own in-region neighbor
        # snapshot (the induced adjacency reflects *final* state, not
        # state at mutation time), so a lazy replay at the next oracle
        # query sees exactly what each mutation saw.
        self._bc_index: BlockCutIndex | None = None
        self._bc_log: list[tuple[bool, int, tuple[int, ...]]] = []
        # Monotonic membership version: bumped by every add/remove, so
        # derived caches keyed by (region id, version) — the Tabu
        # donor-side derive cache — survive neighbor-only dirtiness.
        self._version = 0
        # Optional ArrayState sink (set by SolutionState): the flat
        # label vector, written from the same call sites that update
        # the membership.
        self._array_state = array_state
        self.perf = perf
        for area_id in areas:
            self.add_area(area_id)

    # ------------------------------------------------------------------
    # collection protocol
    # ------------------------------------------------------------------
    @property
    def collection(self) -> AreaCollection:
        """The underlying area collection."""
        return self._collection

    @property
    def area_ids(self) -> frozenset[int]:
        """The member area identifiers (frozen snapshot)."""
        return frozenset(self._areas)

    @property
    def size(self) -> int:
        """Number of member areas ``g``."""
        return len(self._areas)

    def __len__(self) -> int:
        return len(self._areas)

    def __iter__(self) -> Iterator[int]:
        return iter(self._areas)

    def __contains__(self, area_id: int) -> bool:
        return area_id in self._areas

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_area(self, area_id: int) -> None:
        """Add one area, updating aggregates, heterogeneity and the
        sorted objective structure in O(g + #tracked attributes)."""
        if area_id in self._areas:
            raise InvalidAreaError(
                f"area {area_id} is already in region {self.region_id}"
            )
        area = self._collection.area(area_id)
        for name, state in self._aggregates.items():
            state.add(area.attributes[name])
        d = self._collection.dissimilarity(area_id)
        # Delta over the *current* members, then insert — so the cached
        # structure and a from-scratch recompute both price the same
        # multiset and the maintained total stays bit-identical.
        self._heterogeneity += self._abs_deviation_sum(d)
        self._dissimilarities[area_id] = d
        self._areas.add(area_id)
        self._struct_insert(d)
        adj = self._induced_adj
        mine: list[int] = []
        for neighbor in self._collection.neighbors(area_id):
            row = adj.get(neighbor)
            if row is not None:
                row.append(area_id)
                mine.append(neighbor)
        adj[area_id] = mine
        self._contig_cache = None  # invalidate the contiguity oracle
        self._version += 1
        if self._bc_index is not None:
            log = self._bc_log
            if len(log) >= _BC_LOG_CAP:
                self._bc_index = None
                log.clear()
            else:
                log.append((True, area_id, tuple(mine)))
        if self._array_state is not None:
            self._array_state.on_add(self.region_id, area_id)

    def remove_area(self, area_id: int) -> None:
        """Remove one area, updating aggregates, heterogeneity and the
        sorted objective structure."""
        if area_id not in self._areas:
            raise InvalidAreaError(
                f"area {area_id} is not in region {self.region_id}"
            )
        area = self._collection.area(area_id)
        for name, state in self._aggregates.items():
            state.remove(area.attributes[name])
        d = self._dissimilarities.pop(area_id)
        # Delete first, then price the departure against the remaining
        # members (the member's own |d - d| = 0 term never mattered).
        self._struct_remove(d)
        self._heterogeneity -= self._abs_deviation_sum(d)
        self._areas.remove(area_id)
        adj = self._induced_adj
        row = adj.pop(area_id)
        for neighbor in row:
            adj[neighbor].remove(area_id)
        self._contig_cache = None  # invalidate the contiguity oracle
        self._version += 1
        if self._bc_index is not None:
            log = self._bc_log
            if len(log) >= _BC_LOG_CAP:
                self._bc_index = None
                log.clear()
            else:
                log.append((False, area_id, ()))
        if self._array_state is not None:
            self._array_state.on_remove(self.region_id, area_id)
        if not self._areas:
            self._heterogeneity = 0.0  # cancel any float drift

    def merge(self, other: "Region") -> None:
        """Absorb all areas of *other* into this region.

        This region takes *other*'s areas through :meth:`add_area` in
        *other*'s set-iteration order, so its aggregates, sorted list
        and ``H`` are bit-identical to a
        remove-then-add loop. *other*, which callers drop right after,
        is emptied in one step instead of area by area. Raises if the
        two regions overlap.
        """
        if self._areas & other._areas:
            raise InvalidAreaError("cannot merge overlapping regions")
        moved = list(other._areas)
        other._clear()
        for area_id in moved:
            self.add_area(area_id)

    def _clear(self) -> None:
        """Drop every member at once, leaving the state :meth:`remove_area`
        leaves after the last area goes."""
        if self._array_state is not None and self._areas:
            self._array_state.on_clear(self.region_id, self._areas)
        for container in (
            self._areas, self._dissimilarities, self._induced_adj,
            self._bc_log, self._sorted_d or [],
        ):
            container.clear()
        self._aggregates = {name: AggregateState() for name in self._aggregates}
        self._heterogeneity = 0.0
        self._prefix_d = self._struct_np = None
        self._contig_cache = self._bc_index = None
        self._version += 1

    def copy(self, region_id: int | None = None) -> "Region":
        """Return an independent copy (used by construction restarts)."""
        clone = Region(
            self.region_id if region_id is None else region_id,
            self._collection,
            self._aggregates.keys(),
            perf=self.perf,
        )
        for area_id in self._areas:
            clone.add_area(area_id)
        return clone

    # ------------------------------------------------------------------
    # aggregates and constraints
    # ------------------------------------------------------------------
    def aggregate(self, aggregate: str, attribute: str = "") -> float:
        """Value of ``aggregate(attribute)`` over the member areas.

        ``COUNT`` ignores the attribute and returns the region size.
        """
        name = Aggregate.normalize(aggregate)
        if name == Aggregate.COUNT:
            return float(len(self._areas))
        return self._state(attribute).value(name)

    def _state(self, attribute: str) -> AggregateState:
        try:
            return self._aggregates[attribute]
        except KeyError:
            raise InvalidAreaError(
                f"attribute {attribute!r} is not tracked by region "
                f"{self.region_id}; tracked: {sorted(self._aggregates)}"
            ) from None

    def constraint_value(self, constraint: Constraint) -> float:
        """The aggregate value this constraint compares against."""
        return self.aggregate(constraint.aggregate, constraint.attribute)

    def satisfies(self, constraint: Constraint) -> bool:
        """True when this region satisfies one constraint."""
        return constraint.contains(self.constraint_value(constraint))

    def satisfies_all(self, constraints: ConstraintSet | Iterable[Constraint]) -> bool:
        """True when this region satisfies every constraint."""
        return all(self.satisfies(c) for c in constraints)

    def violations(
        self, constraints: ConstraintSet | Iterable[Constraint]
    ) -> list[Constraint]:
        """The subset of *constraints* this region violates."""
        return [c for c in constraints if not self.satisfies(c)]

    # ------------------------------------------------------------------
    # contiguity
    # ------------------------------------------------------------------
    def _oracle(self) -> tuple:
        """``(is_contiguous, articulation, removable)``, cached.

        A connected region of two or more members answers with its
        articulation set and ``removable = None`` (every other member
        is removable; :meth:`removable_areas` builds that set on first
        request). Any other region answers with ``articulation = None``
        and its removable set spelled out.

        A stale cache is refreshed **incrementally** whenever the
        region carries a live block-cut structure: the pending
        mutation log replays into it (tree surgery for additions, a
        single-block re-split for removals — see
        :class:`repro.contiguity.graph.BlockCutIndex`), and the answer
        falls out of the maintained articulation set. Only when no
        structure exists, or the replay hits a case it cannot absorb
        (articulation removal, disconnection, overlong log), does a
        full Hopcroft–Tarjan pass run — and that pass re-seeds the
        structure for subsequent queries. Every query between two
        membership mutations is an O(1) lookup either way.
        """
        perf = self.perf
        cache = self._contig_cache
        if cache is not None:
            if perf is not None:
                perf.oracle_hits += 1
            return cache
        index = self._bc_index
        fellback = False
        if index is not None:
            log = self._bc_log
            applied = True
            neighbors = self._collection.neighbors
            # A lone removal sees the induced rows as they were right
            # after it, so its block re-split can reuse them.
            adjacency = self._induced_adj if len(log) == 1 else None
            for is_add, area_id, snapshot in log:
                if is_add:
                    applied = index.add_vertex(area_id, snapshot)
                else:
                    applied = index.remove_vertex(
                        area_id, neighbors, adjacency
                    )
                if not applied:
                    break
            log.clear()
            if applied and len(index) == len(self._areas):
                if len(self._areas) <= 1:
                    answer = (bool(self._areas), None, frozenset())
                else:
                    answer = (True, index.articulation, None)
                if perf is not None:
                    perf.oracle_incremental += 1
                self._contig_cache = answer
                return answer
            self._bc_index = None
            fellback = True
        answer = self._rebuild_block_structure()
        if perf is not None:
            perf.oracle_rebuilds += 1
            perf.graph_traversals += 1
            if fellback:
                perf.oracle_fallbacks += 1
        self._contig_cache = answer
        return answer

    def _rebuild_block_structure(self) -> tuple:
        """Full-DFS oracle rebuild that re-seeds the incremental
        block-cut structure (connected regions only — a fragmented
        region keeps none and every query re-scans until it heals).
        Mirrors :func:`repro.contiguity.graph.removable_set` verdict
        semantics exactly."""
        areas = self._areas
        self._bc_log.clear()
        if not areas:
            self._bc_index = None
            return (False, None, frozenset())
        components, articulation, blocks = block_cut_state(
            areas, self._collection.neighbors, adjacency=self._induced_adj
        )
        if len(components) == 1:
            index = BlockCutIndex()
            index.load(blocks, articulation)
            self._bc_index = index
            if len(areas) == 1:
                return (True, None, frozenset())
            return (True, articulation, None)
        self._bc_index = None
        if len(components) == 2:
            return (False, None, frozenset(
                node
                for component in components
                if len(component) == 1
                for node in component
            ))
        return (False, None, frozenset())

    def is_contiguous(self) -> bool:
        """True when the member areas form one connected component."""
        if not self._areas:
            return False
        return self._oracle()[0]

    def removable_areas(self) -> frozenset[int]:
        """Members whose removal keeps the region contiguous and
        non-empty — the non-articulation members of a connected region.

        This is the oracle's batch view, built from the cached answer
        once per membership state; :meth:`remains_contiguous_without`
        answers single members without it.
        """
        connected, articulation, removable = self._oracle()
        if removable is None:
            removable = frozenset(self._areas) - articulation
            self._contig_cache = (connected, articulation, removable)
        return removable

    def remains_contiguous_without(self, area_id: int) -> bool:
        """True when removing *area_id* leaves a connected, non-empty
        region — i.e. the area is not an articulation point of the
        region's induced subgraph (the donor-side check of Step 3 and
        the Tabu phase). O(1) between membership mutations."""
        if area_id not in self._areas:
            raise InvalidAreaError(
                f"area {area_id} is not in region {self.region_id}"
            )
        perf = self.perf
        if perf is not None:
            perf.contiguity_checks += 1
        if perf is not None and self._contig_cache is None:
            # This check has to pay for the rebuild itself — the only
            # case where a check still costs a full graph pass.
            perf.full_bfs_checks += 1
        _, articulation, removable = self._oracle()
        if articulation is not None:
            return area_id not in articulation
        return area_id in removable

    def neighboring_areas(self) -> frozenset[int]:
        """Area ids adjacent to the region but not inside it (its
        spatial frontier, including areas assigned to other regions)."""
        return self._collection.region_neighbors(self._areas)

    def touches(self, area_id: int) -> bool:
        """True when *area_id* is spatially adjacent to the region."""
        return bool(self._collection.neighbors(area_id) & self._areas)

    def touches_region(self, other: "Region") -> bool:
        """True when the two regions share at least one boundary pair."""
        if len(self._areas) > len(other._areas):
            return other.touches_region(self)
        for area_id in self._areas:
            if self._collection.neighbors(area_id) & other._areas:
                return True
        return False

    # ------------------------------------------------------------------
    # heterogeneity
    # ------------------------------------------------------------------
    @property
    def heterogeneity(self) -> float:
        """``sum_{a_i, a_j in R} |d_i - d_j|`` over unordered pairs,
        maintained incrementally."""
        return self._heterogeneity

    # -- maintained sorted-values + prefix-sums structure ---------------
    def _struct_insert(self, d: float) -> None:
        """Insert one dissimilarity value into the sorted structure.

        One O(g) ``insort`` (a C-level memmove); the prefix sums are
        only marked dirty and rebuilt lazily in one ``accumulate`` pass
        at the next query, so a burst of mutations pays for a single
        rebuild.
        """
        self._struct_np = None
        if self._sorted_d is not None:
            insort(self._sorted_d, d)
            self._prefix_d = None
            if self.perf is not None:
                self.perf.objective_struct_updates += 1

    def _struct_remove(self, d: float) -> None:
        """Remove one occurrence of *d* from the sorted structure."""
        self._struct_np = None
        values = self._sorted_d
        if values is not None:
            index = bisect_left(values, d)
            if index >= len(values) or values[index] != d:
                raise InvalidAreaError(
                    f"objective structure of region {self.region_id} "
                    f"diverged: value {d!r} not found"
                )
            del values[index]
            self._prefix_d = None
            if self.perf is not None:
                self.perf.objective_struct_updates += 1

    def _abs_deviation_sum(self, d: float) -> float:
        """``sum_j |d - d_j|`` over the member dissimilarities.

        O(log g) off the maintained structure (one bisection, then
        ``rank * d - prefix[rank]`` plus the symmetric upper term);
        O(g log g) from scratch on the first query of a fresh region.
        Either way the same multiset is sorted and the prefix sums
        accumulate in the same order, so the value is bit-identical to
        a fresh recompute.

        A member whose own value equals *d* contributes 0, so the same
        query serves both "add an area with value d" and "remove the
        member with value d"."""
        perf = self.perf
        if perf is not None and self._sorted_d is not None:
            perf.delta_fastpath += 1
        values, prefix = self._struct_views()
        if not values:
            return 0.0
        k = bisect_left(values, d)
        below_sum = prefix[k]
        above_sum = prefix[-1] - below_sum
        return (d * k - below_sum) + (above_sum - d * (len(values) - k))

    def _struct_views(self) -> tuple[list[float], list[float]]:
        """The maintained ``(sorted values, prefix sums)`` lists,
        building them lazily — shared by :meth:`_abs_deviation_sum` and
        the vectorized scorers that price many deltas against one
        region at once."""
        perf = self.perf
        values = self._sorted_d
        if values is None:
            values = self._sorted_d = sorted(self._dissimilarities.values())
            self._prefix_d = None
            if perf is not None:
                perf.delta_recompute += 1
        prefix = self._prefix_d
        if prefix is None:
            prefix = self._prefix_d = list(accumulate(values, initial=0.0))
        return values, prefix

    def _struct_arrays(self):
        """:meth:`_struct_views` as cached float64 ndarrays.

        The conversion is the expensive part of pricing a batch against
        this region, so the arrays persist until the next membership
        mutation (any :meth:`_struct_insert`/:meth:`_struct_remove`
        drops them). Only the vector kernels call this.
        """
        cached = self._struct_np
        if cached is None:
            values, prefix = self._struct_views()
            cached = self._struct_np = (
                np.asarray(values, dtype=np.float64),
                np.asarray(prefix, dtype=np.float64),
            )
        return cached

    def sorted_dissimilarities(self) -> list[float]:
        """The member dissimilarities in non-decreasing order (a copy).

        Served off the maintained structure once it exists; suitable
        for ``pairwise_absolute_deviation(..., assume_sorted=True)``."""
        if self._sorted_d is not None:
            return list(self._sorted_d)
        return sorted(self._dissimilarities.values())

    def check_objective_structure(self) -> None:
        """Assert the maintained structure matches a rederivation.

        O(g log g) — a test/debug aid, never called on hot paths.
        Raises ``AssertionError`` on any divergence.
        """
        if self._sorted_d is None:
            return
        expected = sorted(self._dissimilarities.values())
        assert self._sorted_d == expected, (
            f"sorted structure diverged for region {self.region_id}: "
            f"{self._sorted_d} != {expected}"
        )
        if self._prefix_d is not None:
            rebuilt = list(accumulate(expected, initial=0.0))
            assert self._prefix_d == rebuilt, (
                f"prefix sums diverged for region {self.region_id}: "
                f"{self._prefix_d} != {rebuilt}"
            )

    def heterogeneity_delta_add(self, area_id: int) -> float:
        """Change in this region's heterogeneity if *area_id* joined."""
        d = self._collection.dissimilarity(area_id)
        return self._abs_deviation_sum(d)

    def heterogeneity_delta_remove(self, area_id: int) -> float:
        """Change (≤ 0) in heterogeneity if *area_id* left."""
        if area_id not in self._areas:
            raise InvalidAreaError(
                f"area {area_id} is not in region {self.region_id}"
            )
        # The member's own 0-distance term cancels, so the full-multiset
        # query equals the sum over the *other* members.
        return -self._abs_deviation_sum(self._dissimilarities[area_id])

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Region(id={self.region_id}, size={len(self._areas)})"
