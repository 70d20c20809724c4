"""Branch-and-bound exact EMP solver.

The paper formulates EMP as a mixed-integer program and reports
Gurobi's wall: 33.86 s for 9 areas, 10 hours for 16, nothing at 25
(Section I). :mod:`repro.baselines.exact` reproduces the *role* of an
optimal reference by exhaustive enumeration, which is practical to ~9
areas. This module pushes the exact frontier further with a
combinatorial branch-and-bound over restricted-growth labelings:

**Branching.** Areas are processed in BFS order (so regions close
early); each area goes to an existing region, a fresh region, or —
under EMP semantics — the unassigned pool.

**Pruning** (all exactness-preserving):

- *bound pruning*: branches whose ``p`` upper bound cannot beat the
  incumbent ``(p, H)`` die;
- *monotone pruning*: a region whose SUM/COUNT already exceeds a
  finite upper bound can only get worse (attribute values are
  validated non-negative for this prune);
- *closure pruning*: once no unprocessed area can still touch a
  region, its member set is final — connectivity and the full
  constraint set are checked right then instead of at the leaf;
- *heterogeneity pruning*: within-region pairwise heterogeneity only
  grows as members join, so a partial ``H`` at the incumbent's ``p``
  ceiling that already matches the incumbent is dead.

plus a **FaCT warm start** seeding the incumbent and a **material
bound** (every valid region needs ≥ l units of each lower-bounded
counting attribute, so future regions are limited by the material left
in deficient regions + unprocessed areas).

Typical reach: ~10 areas in under a second, ~12 in about a minute —
where the paper reports Gurobi needing 33.86 s for 9 areas and 10
hours for 16. The same exponential wall, hit a little later; it is
what makes the heuristic-vs-exact comparisons in the test-suite
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.area import AreaCollection
from ..core.constraints import Constraint, ConstraintPlan, ConstraintSet
from ..core.partition import Partition
from ..core.region import Region
from ..exceptions import DatasetError
from .exact import ExactSolution

__all__ = ["solve_exact_bb"]

_MAX_BB_AREAS = 18
"""Hard limit; beyond this even the pruned tree explodes (the same
combinatorial wall the paper hit with Gurobi)."""


def solve_exact_bb(
    collection: AreaCollection,
    constraints: ConstraintSet,
    allow_unassigned: bool = True,
    node_limit: int | None = None,
    warm_start: bool = True,
) -> ExactSolution:
    """Exactly solve one EMP instance by branch and bound.

    Same contract as :func:`repro.baselines.exact.solve_exact` —
    maximize ``p``, then minimize ``H(P)``. ``node_limit`` optionally
    caps the search (raising :class:`DatasetError` when exceeded),
    guarding interactive use. With ``warm_start`` (default) a quick
    FaCT run seeds the incumbent — the classic primal-heuristic trick:
    since FaCT usually finds the optimal ``p`` already, the bound
    pruning then cuts every subtree that cannot strictly improve,
    which is what makes ~12-area instances close in seconds.
    """
    ids = list(collection.ids)
    n = len(ids)
    if n > _MAX_BB_AREAS:
        raise DatasetError(
            f"branch-and-bound solver supports at most {_MAX_BB_AREAS} "
            f"areas, got {n}"
        )
    monotone_uppers = [
        c
        for c in constraints.counting
        if c.has_upper
    ]
    if monotone_uppers:
        for c in monotone_uppers:
            if c.attribute:
                if any(
                    area.attributes[c.attribute] < 0 for area in collection
                ):
                    # negative weights break the monotone prune; fall
                    # back to not using it for this constraint
                    monotone_uppers = [
                        m for m in monotone_uppers if m is not c
                    ]

    order = _bfs_order(collection, ids)
    tracked = tuple(constraints.attributes())

    search = _Search(
        collection=collection,
        constraints=constraints,
        monotone=ConstraintPlan.of(
            collection, ConstraintSet(monotone_uppers)
        ).restrict(upper=("SUM", "COUNT")),
        order=order,
        tracked=tracked,
        allow_unassigned=allow_unassigned,
        node_limit=node_limit,
    )
    if warm_start:
        _apply_warm_start(search, collection, constraints, order,
                          allow_unassigned)
    search.run()

    if search.best_labels is None:
        if not allow_unassigned:
            raise DatasetError(
                "no feasible full partition exists for this instance"
            )
        return ExactSolution(
            partition=Partition((), frozenset(ids)),
            heterogeneity=0.0,
            n_evaluated=search.nodes,
        )
    assignment = {
        order[i]: search.best_labels[i] for i in range(len(order))
    }
    return ExactSolution(
        partition=Partition.from_labels(assignment),
        heterogeneity=search.best_h,
        n_evaluated=search.nodes,
    )


def _apply_warm_start(
    search: "_Search",
    collection: AreaCollection,
    constraints: ConstraintSet,
    order: list[int],
    allow_unassigned: bool,
) -> None:
    """Seed the incumbent from a quick FaCT run (primal heuristic)."""
    from ..exceptions import InfeasibleProblemError
    from ..fact.config import FaCTConfig
    from ..fact.solver import FaCT

    config = FaCTConfig(
        rng_seed=0,
        construction_iterations=4,
        enable_tabu=True,
        tabu_max_no_improve=4 * len(order),
    )
    try:
        heuristic = FaCT(config).solve(collection, constraints)
    except InfeasibleProblemError:
        return
    partition = heuristic.partition
    if partition.p == 0:
        return
    if not allow_unassigned and partition.unassigned:
        return
    labels = partition.labels()
    search.best_p = partition.p
    search.best_h = partition.heterogeneity(collection)
    search.best_labels = [labels[area_id] for area_id in order]


def _bfs_order(collection: AreaCollection, ids: list[int]) -> list[int]:
    """BFS visit order over all components (regions close early)."""
    order: list[int] = []
    seen: set[int] = set()
    for start in ids:
        if start in seen:
            continue
        queue = [start]
        seen.add(start)
        while queue:
            current = queue.pop(0)
            order.append(current)
            for neighbor in sorted(collection.neighbors(current)):
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
    return order


@dataclass
class _Search:
    """Mutable search state for one branch-and-bound run."""

    collection: AreaCollection
    constraints: ConstraintSet
    monotone: ConstraintPlan  # the prunable counting upper bounds
    order: list[int]
    tracked: tuple[str, ...]
    allow_unassigned: bool
    node_limit: int | None

    def __post_init__(self) -> None:
        self.n = len(self.order)
        self.labels: list[int] = [0] * self.n
        self.regions: list[Region] = []
        self.best_labels: list[int] | None = None
        self.best_p = -1
        self.best_h = float("inf")
        self.nodes = 0
        # unprocessed[i] -> set of ids still unprocessed at depth i
        self.position_of = {
            area_id: index for index, area_id in enumerate(self.order)
        }
        self.min_region_size = self._minimum_region_size()
        # Material bounds: for every counting constraint with a finite
        # lower bound l, each not-yet-valid region needs >= l units of
        # "material" (attribute sum, or areas for COUNT) drawn from the
        # deficient regions' current holdings plus the unprocessed
        # areas. suffix_sums[c][d] = material remaining at depth d.
        self.bound_constraints: list[tuple[Constraint, list[float]]] = []
        for c in self.constraints.counting:
            if not c.has_lower or c.lower <= 0:
                continue
            values = [
                1.0
                if c.aggregate == "COUNT"
                else self.collection.attribute(area_id, c.attribute)
                for area_id in self.order
            ]
            suffix = [0.0] * (self.n + 1)
            for index in range(self.n - 1, -1, -1):
                suffix[index] = suffix[index + 1] + values[index]
            self.bound_constraints.append((c, suffix))

    def _p_upper(self, depth: int) -> int:
        """A valid upper bound on the final p from this node."""
        remaining = self._remaining_after(depth)
        best = len(self.regions) + remaining // self.min_region_size
        for c, suffix in self.bound_constraints:
            satisfied = 0
            deficient_material = 0.0
            for region in self.regions:
                value = region.constraint_value(c)
                if value >= c.lower:
                    satisfied += 1
                else:
                    deficient_material += value
            material_bound = satisfied + int(
                (deficient_material + suffix[depth]) / c.lower
            )
            if material_bound < best:
                best = material_bound
        return best

    def _minimum_region_size(self) -> int:
        """Fewest areas any valid region can contain, implied by the
        counting lower bounds — this turns the naive ``p <= k +
        remaining`` bound into ``p <= k + remaining // size``, which is
        what makes unassigned-heavy subtrees die early."""
        import math

        size = 1
        for c in self.constraints.counting:
            if not c.has_lower or c.lower <= 0:
                continue
            if c.aggregate == "COUNT":
                size = max(size, math.ceil(c.lower))
            else:
                largest = max(
                    area.attributes[c.attribute] for area in self.collection
                )
                if largest > 0:
                    size = max(size, math.ceil(c.lower / largest))
        return size

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._recurse(0, 0.0)

    def _remaining_after(self, depth: int) -> int:
        return self.n - depth

    def _region_closed(self, region: Region, depth: int) -> bool:
        """True when no unprocessed area can still join/bridge the
        region (every neighbor of every member is already processed)."""
        for member in region.area_ids:
            for neighbor in self.collection.neighbors(member):
                if self.position_of.get(neighbor, -1) >= depth:
                    return False
        return True

    def _closed_region_ok(self, region: Region) -> bool:
        return region.is_contiguous() and region.satisfies_all(
            self.constraints
        )

    def _recurse(self, depth: int, partial_h: float) -> None:
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            raise DatasetError(
                f"branch-and-bound node limit {self.node_limit} exceeded"
            )

        # --- bound pruning --------------------------------------------
        p_upper = self._p_upper(depth)
        if p_upper < self.best_p:
            return
        if p_upper == self.best_p and partial_h >= self.best_h:
            return

        if depth == self.n:
            self._evaluate_leaf(partial_h)
            return

        area_id = self.order[depth]
        area = self.collection.area(area_id)

        # Can a non-adjacent assignment still become connected? Only
        # through a future bridge: the area needs at least one
        # unprocessed neighbor. (Necessary condition — sufficiency is
        # settled by the closure/leaf connectivity checks.)
        has_future_bridge = any(
            self.position_of[neighbor] > depth
            for neighbor in self.collection.neighbors(area_id)
        )

        # existing regions
        for region in self.regions:
            if not region.touches(area_id) and not has_future_bridge:
                continue
            if not self.monotone.accepts(region, area_id):
                continue
            delta = region.heterogeneity_delta_add(area_id)
            region.add_area(area_id)
            self.labels[depth] = region.region_id
            ok = True
            # closure pruning: if the region just closed, check it now
            if self._region_closed(region, depth + 1):
                ok = self._closed_region_ok(region)
            if ok:
                self._recurse(depth + 1, partial_h + delta)
            region.remove_area(area_id)

        # a fresh region
        region = Region(len(self.regions), self.collection, self.tracked)
        region.add_area(area_id)
        self.regions.append(region)
        self.labels[depth] = region.region_id
        ok = True
        if self._region_closed(region, depth + 1):
            ok = self._closed_region_ok(region)
        if ok:
            self._recurse(depth + 1, partial_h)
        self.regions.pop()

        # unassigned
        if self.allow_unassigned:
            self._recurse_unassigned(depth, partial_h)

    def _recurse_unassigned(self, depth: int, partial_h: float) -> None:
        self.labels[depth] = -1
        self._recurse(depth + 1, partial_h)

    def _evaluate_leaf(self, partial_h: float) -> None:
        p = len(self.regions)
        if p < self.best_p or (p == self.best_p and partial_h >= self.best_h):
            return
        for region in self.regions:
            if not region.is_contiguous():
                return
            if not region.satisfies_all(self.constraints):
                return
        self.best_p = p
        self.best_h = partial_h
        self.best_labels = self.labels.copy()
