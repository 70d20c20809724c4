"""Recompute-from-scratch reference semantics of the solver's hot paths.

Production answers every contiguity, frontier and objective-delta
query off incrementally maintained structures: the region's contiguity
oracle (:meth:`repro.core.region.Region.removable_areas`), the
sorted-values + prefix-sums heterogeneity structure, the
:class:`repro.fact.state.SolutionState` border/adjacency indexes, the
compactness objective's running sums and the Tabu move pool's heap
index. This module keeps the straightforward formulation of each query
— nothing stored between calls, every answer derived afresh from the
live membership:

- contiguity: one BFS per verdict (:func:`is_contiguous`,
  :func:`removable_areas`, :func:`remains_contiguous_without`);
- frontier/adjacency: a scan over every member's neighbors
  (:func:`adjacent_regions`, :func:`unassigned_neighbors`,
  :func:`donor_boundary`);
- heterogeneity delta: sort the member values and accumulate their
  prefix sums on every query (:func:`abs_deviation_sum`);
- compactness: coordinate sums re-summed in sorted member order
  (:func:`compactness_region_sums`, :func:`compactness_total`);
- region merge: the absorbed region kept up to date area by area —
  aggregates, sorted list, block-cut log and label-vector entries —
  while the survivor takes its areas (:func:`merge`);
- move validity: every ``ConstraintPlan`` verdict re-derived one
  constraint and one area at a time (``oracles/constraint_reference.py``);
- Tabu move derive: every boundary move of a donor re-derived through
  the per-area reference predicates and ``Objective.delta_move``
  object calls, with no cached rows (:func:`derive_moves_scalar`);
- Tabu selection: an exhaustive scan of every donor run's live moves
  under the heap index's total order ``(delta, area, receiver, donor)``,
  with corrections and evictions recorded in the runs
  (:func:`best_admissible`).

The heterogeneity, merge, frontier, contiguity, move-validity and
Tabu references are bit-identical to production; compactness agrees to float accumulation
order. :func:`reference_hotpaths` patches all of them into the solver
classes, so a whole solve can replay against the reference. The vector
kernels read the maintained structures directly — pair it with
``forced_kernels("scalar")`` from ``tests/conftest.py`` for a solve
that never touches them. Patches do not reach spawned pool workers, so
reference solves run with ``n_jobs=1``.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import accumulate

import pytest

from repro.contiguity.graph import removable_set
from repro.core.constraints import ConstraintPlan
from repro.core.region import Region
from repro.exceptions import InvalidAreaError
from repro.fact import objectives, tabu
from repro.fact.state import SolutionState

from oracles import constraint_reference
from oracles.constraint_reference import (
    satisfies_after_add,
    satisfies_after_remove,
)

# ----------------------------------------------------------------------
# contiguity: one fresh BFS per verdict
# ----------------------------------------------------------------------


def is_contiguous(region: Region) -> bool:
    """True when the members form one connected component."""
    if not len(region):
        return False
    if region.perf is not None:
        region.perf.graph_traversals += 1
    return region.collection.is_contiguous(region.area_ids)


def removable_areas(region: Region) -> frozenset[int]:
    """Members whose removal keeps the region contiguous and non-empty."""
    if region.perf is not None:
        region.perf.graph_traversals += 1
    return removable_set(region.area_ids, region.collection.neighbors)[1]


def remains_contiguous_without(region: Region, area_id: int) -> bool:
    """True when removing *area_id* leaves a connected, non-empty
    region — a BFS over the remaining members."""
    if area_id not in region:
        raise InvalidAreaError(
            f"area {area_id} is not in region {region.region_id}"
        )
    perf = region.perf
    if perf is not None:
        perf.contiguity_checks += 1
    remaining = region.area_ids - {area_id}
    if not remaining:
        return False
    if perf is not None:
        perf.graph_traversals += 1
        perf.full_bfs_checks += 1
    return region.collection.is_contiguous(remaining)


# ----------------------------------------------------------------------
# heterogeneity: sort + prefix on every query
# ----------------------------------------------------------------------


def abs_deviation_sum(region: Region, d: float) -> float:
    """``sum_j |d - d_j|`` over the member dissimilarities."""
    if region.perf is not None:
        region.perf.delta_recompute += 1
    values = sorted(region._dissimilarities.values())
    if not values:
        return 0.0
    prefix = list(accumulate(values, initial=0.0))
    k = sum(1 for value in values if value < d)
    below_sum = prefix[k]
    above_sum = prefix[-1] - below_sum
    return (d * k - below_sum) + (above_sum - d * (len(values) - k))


def sorted_dissimilarities(region: Region) -> list[float]:
    """The member dissimilarities in non-decreasing order."""
    return sorted(region._dissimilarities.values())


def _drop_structure(region: Region, d: float) -> None:
    """Membership mutations keep no sorted structure."""
    region._sorted_d = None
    region._prefix_d = None
    region._struct_np = None


# ----------------------------------------------------------------------
# region merge: remove from the absorbed region, add to the survivor
# ----------------------------------------------------------------------


def merge(region: Region, other: Region) -> None:
    """Absorb *other* into *region* one area at a time: each area
    leaves *other* through ``remove_area`` and joins *region* through
    ``add_area``, in *other*'s set-iteration order."""
    if region._areas & other._areas:
        raise InvalidAreaError("cannot merge overlapping regions")
    for area_id in list(other._areas):
        other.remove_area(area_id)
        region.add_area(area_id)


# ----------------------------------------------------------------------
# frontier / adjacency: scan every member's neighbors
# ----------------------------------------------------------------------


def adjacent_regions(state: SolutionState, region: Region) -> list[Region]:
    """Distinct regions sharing a boundary with *region*, by id."""
    state.perf.adjacency_queries += 1
    seen = {
        region_id
        for area_id in region.neighboring_areas()
        if (region_id := state.assignment.get(area_id)) is not None
    }
    seen.discard(region.region_id)
    return [state.regions[rid] for rid in sorted(seen)]


def unassigned_neighbors(state: SolutionState, region: Region) -> list[int]:
    """Unassigned areas on *region*'s frontier, by area id."""
    state.perf.frontier_queries += 1
    return sorted(
        area_id
        for area_id in region.neighboring_areas()
        if state.is_unassigned(area_id)
    )


def donor_boundary(
    state: SolutionState, donor: Region, receiver: Region
) -> list[int]:
    """Members of *donor* adjacent to *receiver*, by area id."""
    state.perf.frontier_queries += 1
    return sorted(
        area_id for area_id in donor.area_ids if receiver.touches(area_id)
    )


# ----------------------------------------------------------------------
# compactness: fresh coordinate sums
# ----------------------------------------------------------------------


def compactness_region_sums(objective, region: Region) -> list[float]:
    """The region's coordinate sums, re-summed in sorted member order."""
    perf = objective._state.perf
    if perf is not None:
        perf.delta_recompute += 1
    return objective._sums_of(sorted(region.area_ids))


def compactness_total(objective) -> float:
    """Total compactness score off fresh sums."""
    return sum(
        objective._score(objective._sums_of(sorted(region.area_ids)))
        for region in objective._state.iter_regions()
    )


# ----------------------------------------------------------------------
# Tabu: exhaustive pool scan
# ----------------------------------------------------------------------


def derive_moves_scalar(pool, donor: Region, touched=None) -> dict:
    """Every valid move out of *donor* as ``{(area, receiver): delta}``
    in (area asc, receiver asc) insertion order, derived from scratch
    (*touched* is accepted for signature parity and ignored)."""
    state = pool._state
    constraints = state.constraints
    moves: dict = {}
    if len(donor) <= 1:
        return moves
    collection = state.collection
    assignment = state.assignment
    removable = donor.removable_areas()
    donor_id = donor.region_id
    for area_id in sorted(donor.area_ids):
        if area_id not in removable:
            continue
        receiver_ids = {
            assignment[neighbor]
            for neighbor in collection.neighbors(area_id)
            if assignment.get(neighbor) is not None
        }
        receiver_ids.discard(donor_id)
        if not receiver_ids:
            continue
        if not satisfies_after_remove(donor, constraints, area_id):
            continue
        for receiver_id in sorted(receiver_ids):
            state.perf.candidate_evaluations += 1
            receiver = state.regions[receiver_id]
            if not satisfies_after_add(receiver, constraints, area_id):
                continue
            moves[(area_id, receiver_id)] = pool._objective.delta_move(
                donor, receiver, area_id
            )
    return moves


def _scan(pool, iteration, tabu_until, current_h, best_h):
    """The admissible move minimizing ``(delta, area, receiver,
    donor)`` as ``(delta, area, donor, receiver)``, or ``None``, over
    every donor run's live moves."""
    best = None
    for donor_id, run in pool._runs.items():
        for (area_id, receiver_id), delta in run.live_moves().items():
            if tabu_until.get((area_id, receiver_id), 0) >= iteration:
                # Aspiration: accept a tabu move that beats best_h.
                if current_h + delta >= best_h - 1e-9:
                    continue
            candidate = (delta, area_id, receiver_id, donor_id)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        return None
    delta, area_id, receiver_id, donor_id = best
    return (delta, area_id, donor_id, receiver_id)


def _position(run, key) -> int:
    """Where the live move *key* sits in *run*: its run position, or
    ``-1`` when a correction holds it."""
    if key in run.fixes:
        return -1
    for pos, (_, area_id, receiver_id) in enumerate(run.moves):
        if (area_id, receiver_id) == key and pos not in run.dead:
            return pos
    raise AssertionError(f"{key} is not a live move")


def best_admissible(pool, iteration, tabu_until, current_h, best_h):
    """Exhaustive scan plus the same correct-and-repeat live
    validation the heap index applies, recorded in the pool's runs."""
    pool._refresh()
    while True:
        candidate = _scan(pool, iteration, tabu_until, current_h, best_h)
        if candidate is None:
            return None
        cached_delta, area_id, donor_id, receiver_id = candidate
        live = pool._live_delta(area_id, donor_id, receiver_id)
        key = (area_id, receiver_id)
        run = pool._runs[donor_id]
        pos = _position(run, key)
        if live is None:
            run.evict(key, pos)
            pool._live -= 1
            continue
        if abs(live - cached_delta) > 1e-9:
            if pos >= 0:
                run.dead.add(pos)
            run.fixes[key] = live
            continue
        return (live, area_id, donor_id, receiver_id)


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------


@contextmanager
def reference_hotpaths():
    """Route every hot-path query through this module's reference
    implementation for the duration of the block.

    Regions and states created inside the block start with no
    maintained objective structure; their indexes are still
    maintained (so ``check_indexes`` keeps working) but never read.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Region, "is_contiguous", is_contiguous)
        patch.setattr(Region, "removable_areas", removable_areas)
        patch.setattr(
            Region, "remains_contiguous_without", remains_contiguous_without
        )
        patch.setattr(Region, "_abs_deviation_sum", abs_deviation_sum)
        patch.setattr(Region, "sorted_dissimilarities", sorted_dissimilarities)
        patch.setattr(Region, "merge", merge)
        patch.setattr(ConstraintPlan, "spare", constraint_reference.plan_spare)
        patch.setattr(
            ConstraintPlan, "accepts", constraint_reference.plan_accepts
        )
        patch.setattr(
            ConstraintPlan,
            "spare_members",
            constraint_reference.plan_spare_members,
        )
        patch.setattr(Region, "_struct_insert", _drop_structure)
        patch.setattr(Region, "_struct_remove", _drop_structure)
        patch.setattr(SolutionState, "adjacent_regions", adjacent_regions)
        patch.setattr(
            SolutionState, "unassigned_neighbors", unassigned_neighbors
        )
        patch.setattr(SolutionState, "donor_boundary", donor_boundary)
        patch.setattr(
            objectives.CompactnessObjective,
            "_region_sums",
            compactness_region_sums,
        )
        patch.setattr(
            objectives.CompactnessObjective, "total", compactness_total
        )
        patch.setattr(
            tabu._MovePool, "_derive_moves_scalar", derive_moves_scalar
        )
        patch.setattr(tabu._MovePool, "best_admissible", best_admissible)
        yield
