"""FaCT Step 3 — Monotonic Adjustments (Section V-B).

Satisfies the SUM and COUNT (counting) constraints while preserving
everything Step 2 established. Counting aggregates are monotonic in
the member set (the paper assumes non-negative attribute values), so
regions below a lower bound need to *gain* areas and regions above an
upper bound need to *shed* areas. The step builds on the classic
max-p-regions construction [Wei, Rey & Knaap 2020] and proceeds in
five ordered phases:

A. **Absorb** — regions below a lower bound absorb adjacent unassigned
   areas (validated against the AVG constraints and the counting upper
   bounds; extrema constraints can never be broken by adding a
   filtered-valid area).
B. **Swap** — still-deficient regions pull boundary areas from
   adjacent donor regions when the donor stays contiguous and valid
   (the paper's swap with donor-connectivity validation).
C. **Merge** — still-deficient regions merge with adjacent regions
   when the union respects every upper bound (AVG and extrema are
   automatically preserved under union).
D. **Trim** — regions above an upper bound shed removable boundary
   areas back to the unassigned pool.
E. **Dissolve** — regions that still violate any constraint are
   removed and their areas become unassigned ("when no changes can be
   made, the infeasible regions are removed").
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.constraints import Constraint
from ..core.region import Region
from ..obs.spans import NULL_TRACER
from .config import FaCTConfig
from .state import SolutionState

__all__ = ["adjust_counting", "dissolve_infeasible"]


def adjust_counting(
    state: SolutionState,
    config: FaCTConfig,
    rng: random.Random,
    budget=None,
    tracer=None,
) -> None:
    """Run Step 3 over *state* (call after :func:`grow_regions`).

    *budget* is an optional :class:`repro.runtime.Budget` checked at
    every phase boundary (absorb → swap → merge → trim → dissolve); an
    exhausted budget raises :class:`repro.runtime.Interrupted` and the
    caller dissolves whatever regions the finished phases left invalid.

    *tracer* is an optional :class:`repro.obs.Tracer`; the whole step
    becomes one ``adjust`` span carrying the final state shape.
    """

    def _phase_boundary() -> None:
        if budget is not None:
            budget.checkpoint("construction.adjust.phase")

    if tracer is None:
        tracer = NULL_TRACER
    with tracer.span("adjust") as span:
        counting = state.constraints.counting
        _phase_boundary()
        if counting:
            _absorb_unassigned(state, config, rng)
            _phase_boundary()
            _swap_from_neighbors(state, rng)
            _phase_boundary()
            _merge_deficient(state)
            _phase_boundary()
            _trim_oversized(state, rng)
            _phase_boundary()
        dissolve_infeasible(state)
        if span.recording:
            span.set(
                p=state.p,
                n_unassigned=state.n_unassigned,
                heterogeneity=state.total_heterogeneity(),
            )


# ----------------------------------------------------------------------
# shared predicates
# ----------------------------------------------------------------------

def _violates_lower(region: Region, counting: Sequence[Constraint]) -> bool:
    return any(region.constraint_value(c) < c.lower for c in counting)


def _violates_upper(region: Region, counting: Sequence[Constraint]) -> bool:
    return any(region.constraint_value(c) > c.upper for c in counting)


# ----------------------------------------------------------------------
# Phase A — absorb unassigned areas into deficient regions
# ----------------------------------------------------------------------

def _absorb_unassigned(
    state: SolutionState, config: FaCTConfig, rng: random.Random
) -> None:
    counting = state.constraints.counting
    receiver = state.plan.receiver()
    for region_id in list(state.regions):
        region = state.regions.get(region_id)
        if region is None:
            continue
        while _violates_lower(region, counting):
            frontier = state.unassigned_neighbors(region)
            state.perf.candidate_evaluations += len(frontier)
            candidates = [
                area_id
                for area_id in frontier
                if receiver.accepts(region, area_id)
            ]
            if not candidates:
                break
            choice = (
                rng.choice(candidates)
                if config.pickup == "random"
                else min(candidates, key=region.heterogeneity_delta_add)
            )
            state.assign(choice, region)


# ----------------------------------------------------------------------
# Phase B — swap boundary areas from neighbor regions
# ----------------------------------------------------------------------

def _swap_from_neighbors(state: SolutionState, rng: random.Random) -> None:
    """The paper's swap validation: the donor must remain a single
    connected component and keep satisfying *all* constraints; the
    receiver must stay within the AVG ranges and upper bounds."""
    counting = state.constraints.counting
    plan = state.plan
    receiver = plan.receiver()
    for region_id in list(state.regions):
        region = state.regions.get(region_id)
        if region is None:
            continue
        progress = True
        while _violates_lower(region, counting) and progress:
            progress = False
            for donor in state.adjacent_regions(region):
                # The receiver's border index already knows which donor
                # members touch it — no per-member adjacency rescans.
                boundary = state.donor_boundary(donor, region)
                rng.shuffle(boundary)
                for area_id in boundary:
                    state.perf.candidate_evaluations += 1
                    if (
                        plan.spare(donor, area_id)
                        and donor.remains_contiguous_without(area_id)
                        and receiver.accepts(region, area_id)
                    ):
                        state.move(area_id, region)
                        progress = True
                        break
                if progress:
                    break


# ----------------------------------------------------------------------
# Phase C — merge deficient regions with neighbors
# ----------------------------------------------------------------------

def _merge_deficient(state: SolutionState) -> None:
    counting = state.constraints.counting
    changed = True
    while changed:
        changed = False
        for region_id in list(state.regions):
            region = state.regions.get(region_id)
            if region is None or not _violates_lower(region, counting):
                continue
            partner = _best_merge_partner(state, region, counting)
            if partner is not None:
                state.merge_regions(region, partner)
                changed = True


def _best_merge_partner(
    state: SolutionState, region: Region, counting: Sequence[Constraint]
) -> Region | None:
    """An adjacent region whose union with *region* respects every
    counting upper bound. Deficient partners are preferred (pairing
    two deficient regions costs one region where a merge into a
    satisfied region would strand the other deficiency), then smaller
    partners, to keep the loss of p minimal."""
    candidates = []
    for other in state.adjacent_regions(region):
        if _union_respects_uppers(region, other, counting):
            candidates.append(other)
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda other: (not _violates_lower(other, counting), len(other)),
    )


def _union_respects_uppers(
    region: Region, other: Region, counting: Sequence[Constraint]
) -> bool:
    for c in counting:
        if c.aggregate == "COUNT":
            union_value = float(len(region) + len(other))
        else:
            union_value = region.aggregate(
                "SUM", c.attribute
            ) + other.aggregate("SUM", c.attribute)
        if union_value > c.upper:
            return False
    return True


# ----------------------------------------------------------------------
# Phase D — trim regions above upper bounds
# ----------------------------------------------------------------------

def _trim_oversized(state: SolutionState, rng: random.Random) -> None:
    counting = state.constraints.counting
    trim = state.plan.trim()
    for region_id in list(state.regions):
        region = state.regions.get(region_id)
        if region is None:
            continue
        progress = True
        while _violates_upper(region, counting) and progress:
            progress = False
            # Any member whose removal keeps the region connected is a
            # candidate (a region spanning a whole component has no
            # exterior frontier, so "boundary" means the subgraph's
            # non-articulation members, enforced by the check below).
            candidates = sorted(region.area_ids)
            rng.shuffle(candidates)
            for area_id in candidates:
                state.perf.candidate_evaluations += 1
                if len(region) <= 1:
                    break
                if not trim.spare(region, area_id):
                    continue
                if not region.remains_contiguous_without(area_id):
                    continue
                state.unassign(area_id)
                progress = True
                break


# ----------------------------------------------------------------------
# Phase E — dissolve regions that remain infeasible
# ----------------------------------------------------------------------

def dissolve_infeasible(state: SolutionState) -> None:
    """Remove every region that violates any constraint, returning its
    areas to the unassigned pool (they end up in ``U_0``)."""
    constraints = state.constraints
    for region_id in list(state.regions):
        region = state.regions.get(region_id)
        if region is None:
            continue
        if not region.satisfies_all(constraints):
            state.dissolve_region(region)
