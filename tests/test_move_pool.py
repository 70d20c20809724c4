"""The Tabu move pool's per-donor runs, bounded heap, flat scalar
kernel, batched vector kernel and neighbor-only re-pricing
(``repro.fact.tabu._MovePool``).

- Heap compaction is exact: firing it on every refresh lands on the
  production partition, and production keeps the heap within
  ``4 x live moves + 1024`` entries after every refresh while every
  valid move keeps an entry or sits behind its run's cursor.
- The heap pays for what the search pops, not for every derived move:
  pushes stay within one head per re-derived donor, two per pop and
  one per correction.
- The flat scalar derive returns exactly what the object-call
  reference derive (``oracles/hotpath_reference.py``) returns, and the
  vector derive returns that dict as a run sorted by ``(delta, area,
  receiver)``, over random assign/move/merge walks.
- The vector derive prices many donors in one batch and still gives
  each donor exactly its own from-scratch run.
- A region re-derived because it borders a moved area, with its own
  membership unchanged, gets exactly a from-scratch run.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import bench_config
from repro.bench.workloads import enriched_constraints
from repro.core import (
    Area,
    AreaCollection,
    ConstraintSet,
    avg_constraint,
    count_constraint,
    max_constraint,
    min_constraint,
    sum_constraint,
)
from repro.data.datasets import load_dataset
from repro.fact import FaCT, tabu
from repro.fact.objectives import HeterogeneityObjective
from repro.fact.state import SolutionState

from conftest import forced_kernels
from oracles.hotpath_reference import derive_moves_scalar

HEAP_FACTOR = 4
HEAP_SLACK = 1024


@pytest.fixture(scope="module")
def enriched_2k():
    """Registry ``2k`` at scale 0.3 under the enriched constraints."""
    return load_dataset("2k", scale=0.3), enriched_constraints()


@pytest.fixture(params=["smoke_2k", "enriched_2k"])
def instance(request):
    return request.getfixturevalue(request.param)


def _outcome(collection, constraints):
    config = bench_config(len(collection), rng_seed=7)
    solution = FaCT(config).solve(collection, constraints)
    return (
        solution.partition.labels(),
        solution.p,
        repr(solution.heterogeneity),
    )


def _live(pool) -> int:
    return sum(len(run.live_moves()) for run in pool._runs.values())


def _sorted_run(moves: dict) -> list:
    """A moves dict as the pool's run order, ``(delta, area,
    receiver)`` ascending."""
    return sorted(
        (delta, area_id, receiver_id)
        for (area_id, receiver_id), delta in moves.items()
    )


def _bits(run: list) -> list:
    """A run with each delta as its exact bit pattern."""
    return [(delta.hex(), area, receiver) for delta, area, receiver in run]


def _uncovered(pool) -> list:
    """Valid moves that have no heap entry and do not sit behind their
    run's cursor (whose heap entry exists) — empty when the heap can
    serve the exact scan order."""
    heap = set(pool._heap)
    missing = []
    for donor_id, run in pool._runs.items():
        stamp = run.stamp
        for pos, move in enumerate(run.moves[: run.front + 1]):
            entry = (*move, donor_id, stamp, pos)
            if pos not in run.dead and entry not in heap:
                missing.append((donor_id, pos))
        for (area_id, receiver_id), delta in run.fixes.items():
            if (delta, area_id, receiver_id, donor_id, stamp, -1) not in heap:
                missing.append((donor_id, area_id, receiver_id))
    return missing


# ----------------------------------------------------------------------
# bounded heap
# ----------------------------------------------------------------------


def test_compacting_every_refresh_matches_production(instance, monkeypatch):
    collection, constraints = instance
    production = _outcome(collection, constraints)
    compactions = []
    compact = tabu._MovePool._compact

    def counting_compact(self):
        compactions.append(len(self._heap))
        compact(self)

    monkeypatch.setattr(tabu, "_COMPACT_FACTOR", 0)
    monkeypatch.setattr(tabu, "_COMPACT_SLACK", -1)
    monkeypatch.setattr(tabu._MovePool, "_compact", counting_compact)
    assert _outcome(collection, constraints) == production
    assert len(compactions) > 100
    assert production[1] > 1


def test_heap_stays_within_the_compaction_bound(instance, monkeypatch):
    collection, constraints = instance
    observed = []
    refresh = tabu._MovePool._refresh

    def recording_refresh(self):
        refresh(self)
        assert self._live == _live(self)
        # Every valid move keeps an entry or sits behind its run's
        # cursor, so the heap never loses a move.
        assert not _uncovered(self)
        observed.append((len(self._heap), self._live))

    monkeypatch.setattr(tabu._MovePool, "_refresh", recording_refresh)
    _outcome(collection, constraints)
    assert len(observed) > 100
    for heap_size, live in observed:
        assert heap_size <= HEAP_FACTOR * live + HEAP_SLACK


def test_heap_traffic_follows_pops_not_derived_moves(enriched_2k, monkeypatch):
    """Over a whole enriched solve the heap takes one head per re-derived
    donor, at most two entries per pop (the run's next move and the
    popped entry pushed back) and one per correction — not one per
    derived move."""
    traffic = dict.fromkeys(("pushes", "pops", "stores", "fixes", "moves"), 0)
    push, pop, store = tabu.heappush, tabu.heappop, tabu._MovePool._store

    def counting_push(heap, entry):
        traffic["pushes"] += 1
        traffic["fixes"] += entry[-1] == -1
        push(heap, entry)

    def counting_pop(heap):
        traffic["pops"] += 1
        return pop(heap)

    def counting_store(self, region, moves):
        traffic["stores"] += 1
        traffic["moves"] += len(moves)
        store(self, region, moves)

    monkeypatch.setattr(tabu, "heappush", counting_push)
    monkeypatch.setattr(tabu, "heappop", counting_pop)
    monkeypatch.setattr(tabu._MovePool, "_store", counting_store)
    _outcome(*enriched_2k)
    assert traffic["pops"] > 100, traffic
    assert traffic["pushes"] <= (
        traffic["stores"] + 2 * traffic["pops"] + traffic["fixes"]
    ), traffic
    # One entry per derived move would be many times that.
    assert traffic["moves"] > 3 * traffic["pushes"], traffic


# ----------------------------------------------------------------------
# flat scalar kernel against the object-call reference
# ----------------------------------------------------------------------


def _walk_collection(rows: int, cols: int, seed: int) -> AreaCollection:
    """A rook grid with a heavily duplicated attribute (``dup`` in
    {1, 2, 3}) and an all-distinct one (``uniq``, also the
    dissimilarity)."""
    rng = random.Random(seed)
    areas, adjacency = [], {}
    for r in range(rows):
        for c in range(cols):
            area_id = r * cols + c
            uniq = round(rng.uniform(0.0, 100.0), 3) + area_id * 1e-6
            areas.append(
                Area(
                    area_id,
                    {"dup": float(rng.choice((1, 2, 3))), "uniq": uniq},
                    dissimilarity=uniq,
                )
            )
            adjacency[area_id] = {
                (r + dr) * cols + (c + dc)
                for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
                if 0 <= r + dr < rows and 0 <= c + dc < cols
            }
    return AreaCollection(areas, adjacency)


def _walk_constraints(rng: random.Random) -> ConstraintSet:
    """All five aggregate families with bounds that bind often: a
    region needs a ``dup`` 1 and a ``dup`` of 2 or more, so the MIN/MAX
    checks hit both the duplicated and the unique extremum."""
    return ConstraintSet(
        [
            min_constraint("dup", upper=1.0),
            max_constraint("dup", lower=2.0),
            min_constraint("uniq", upper=rng.uniform(40.0, 80.0)),
            max_constraint("uniq", lower=rng.uniform(20.0, 60.0)),
            avg_constraint(
                "uniq", rng.uniform(10.0, 30.0), rng.uniform(70.0, 90.0)
            ),
            sum_constraint("uniq", lower=rng.uniform(10.0, 80.0)),
            count_constraint(1, rng.randrange(4, 12)),
        ]
    )


def _mutate(state: SolutionState, rng: random.Random) -> None:
    """One random assign, singleton-region, merge, unassign or move
    step."""
    unassigned = sorted(state.unassigned)
    kind = rng.random()
    if unassigned and (kind < 0.3 or state.p < 2):
        area_id = rng.choice(unassigned)
        neighbors = sorted(
            region.region_id for region in state.neighbor_regions(area_id)
        )
        if neighbors and kind < 0.15:
            state.assign(area_id, state.regions[rng.choice(neighbors)])
        else:
            state.new_region([area_id])
        return
    region = state.regions[rng.choice(sorted(state.regions))]
    removable = sorted(region.removable_areas())
    if kind < 0.5:
        if len(region) > 1 and removable:
            state.unassign(rng.choice(removable))
        return
    adjacent = state.adjacent_regions(region)
    if not adjacent:
        return
    other = rng.choice(adjacent)
    if kind < 0.6:
        state.merge_regions(region, other)
        return
    boundary = state.donor_boundary(region, other)
    candidates = [a for a in boundary if a in removable] or boundary
    if candidates and len(region) > 1:
        state.move(rng.choice(candidates), other)


@pytest.mark.parametrize("seed", range(6))
def test_flat_scalar_derive_matches_reference_and_vector(seed):
    rng = random.Random(seed)
    collection = _walk_collection(6, 7, seed)
    state = SolutionState(collection, _walk_constraints(rng))
    objective = HeterogeneityObjective()
    objective.attach(state)
    pool = tabu._MovePool(state, objective)
    seen = dict.fromkeys(
        ("duplicated_extremum", "unique_extremum", "singleton_receiver"), 0
    )
    for _ in range(120):
        _mutate(state, rng)
        for region_id in sorted(state.regions):
            region = state.regions[region_id]
            moves = pool._derive_moves_scalar(region)
            flat = list(moves.items())
            assert flat == list(derive_moves_scalar(pool, region).items())
            run = pool._derive_moves_batch([region])[0]
            assert _bits(run) == _bits(_sorted_run(moves))
            dup = region._aggregates["dup"]
            holders = [
                area_id
                for area_id in region.removable_areas()
                if collection.attribute(area_id, "dup") == dup.min
            ]
            if len(region) > 1 and holders:
                many = dup._counts[dup.min] > 1
                seen["duplicated_extremum" if many else "unique_extremum"] += 1
            seen["singleton_receiver"] += sum(
                1
                for (_, receiver_id), _ in flat
                if len(state.regions[receiver_id]) == 1
            )
    assert all(count > 0 for count in seen.values()), seen


def _batch_walk(seed: int, seen: dict) -> None:
    """One random walk that prices every region in one batch after each
    mutation and compares each donor's run with the reference derive
    sorted into run order; *seen* counts the cases the batch met."""
    rng = random.Random(100 + seed)
    collection = _walk_collection(6, 7, seed)
    # Looser than _walk_constraints, so neighbors often give to each
    # other, with a tight COUNT cap that large donors fail.
    count = count_constraint(1, rng.randrange(4, 7))
    constraints = ConstraintSet(
        [
            min_constraint("dup", upper=2.0),
            max_constraint("dup", lower=2.0),
            max_constraint("uniq", lower=rng.uniform(10.0, 40.0)),
            avg_constraint("uniq", 5.0, 95.0),
            sum_constraint("uniq", lower=rng.uniform(5.0, 40.0)),
            count,
        ]
    )
    state = SolutionState(collection, constraints)
    # The grid's corners: one region in three pieces, so it has no
    # removable member until a merge joins them.
    state.new_region([0, 6, 41])
    objective = HeterogeneityObjective()
    objective.attach(state)
    pool = tabu._MovePool(state, objective)
    for _ in range(120):
        _mutate(state, rng)
        donors = [state.regions[rid] for rid in sorted(state.regions)]
        batch = pool._derive_moves_batch(donors)
        assert len(batch) == len(donors)
        for donor, run in zip(donors, batch):
            expected = derive_moves_scalar(pool, donor)
            assert _bits(run) == _bits(_sorted_run(expected))
            if len(donor) < 2:
                continue
            if not count.contains(len(donor) - 1):
                seen["fails_count"] += 1
            if not donor.removable_areas():
                seen["no_removable"] += 1
            for attribute, aggregate in (("dup", "min"), ("uniq", "max")):
                agg = donor._aggregates[attribute]
                extremum = getattr(agg, aggregate)
                if any(
                    collection.attribute(area_id, attribute) == extremum
                    for area_id in donor.removable_areas()
                ):
                    many = agg._counts[extremum] > 1
                    key = "duplicated_extremum" if many else "unique_extremum"
                    seen[key] += 1
        # Donors in the same batch that give to each other.
        gives = {
            (donor.region_id, receiver_id)
            for donor, run in zip(donors, batch)
            for _, _, receiver_id in run
        }
        seen["mutual_receivers"] += sum(
            1 for donor_id, receiver_id in gives
            if (receiver_id, donor_id) in gives
        )


def test_one_batch_prices_every_donor_like_the_reference():
    seen = dict.fromkeys(
        (
            "fails_count",
            "no_removable",
            "mutual_receivers",
            "duplicated_extremum",
            "unique_extremum",
        ),
        0,
    )
    for seed in range(6):
        _batch_walk(seed, seen)
    assert all(count > 0 for count in seen.values()), seen


# ----------------------------------------------------------------------
# neighbor-only re-pricing
# ----------------------------------------------------------------------


@pytest.fixture(params=["mas", "enriched-scalar"])
def repricing_solve(request, smoke_2k):
    collection, constraints = smoke_2k
    if request.param == "mas":
        yield collection, constraints
        return
    # ~20-area regions over all five families, every donor scalar.
    with forced_kernels("scalar"):
        yield collection, enriched_constraints(800_000.0 * 0.08)


def test_refreshed_regions_equal_a_from_scratch_derive(
    repricing_solve, monkeypatch
):
    collection, constraints = repricing_solve
    checked = {"refreshed": 0, "neighbor_only": 0}
    refresh = tabu._MovePool._refresh

    def checking_refresh(self):
        dirty = set(self._dirty)
        derived_at = dict(self._derived_at)
        refresh(self)
        for region_id in dirty:
            region = self._state.regions.get(region_id)
            if region is None:
                continue
            expected = _sorted_run(derive_moves_scalar(self, region))
            assert _bits(self._runs[region_id].moves) == _bits(expected)
            checked["refreshed"] += 1
            if derived_at.get(region_id) == region._version:
                checked["neighbor_only"] += 1

    monkeypatch.setattr(tabu._MovePool, "_refresh", checking_refresh)
    _outcome(collection, constraints)
    assert checked["neighbor_only"] > 50, checked
    assert checked["refreshed"] > checked["neighbor_only"]
