"""Property tests for the incremental contiguity oracle and the
SolutionState frontier/adjacency indexes.

The oracle caches ``(is_contiguous, articulation, removable)`` per
region (the removable set of a connected region is only built when
asked for) and invalidates on every membership mutation; the state
maintains
counted border/adjacency indexes through ``assign``/``move``/
``unassign``/``merge_regions``/``dissolve_region``. These tests drive
random mutation sequences and assert, after **every** mutation, that

- every cached contiguity verdict matches a fresh BFS over the same
  member set (``oracles/hotpath_reference.py``),
- the indexes match a from-scratch rederivation
  (``SolutionState.check_indexes``),
- indexed queries return exactly what the reference scans return (the
  bit-identity whole-solve replays against the reference rely on).

A whole enriched solve also replays every block-cut removal with and
without the region's induced rows and validates both structures after
each one.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import bench_config
from repro.bench.workloads import enriched_constraints
from repro.contiguity.graph import BlockCutIndex
from repro.core import ConstraintSet, PerfCounters, sum_constraint
from repro.core.region import Region
from repro.data.datasets import load_dataset
from repro.fact import FaCT
from repro.fact.state import SolutionState

from conftest import make_grid_collection
from oracles import hotpath_reference as reference


def trivial_constraints() -> ConstraintSet:
    return ConstraintSet([sum_constraint("s", lower=0)])


def assert_oracle_matches_reference(state):
    for region in state.iter_regions():
        removable = reference.removable_areas(region)
        assert region.is_contiguous() == reference.is_contiguous(region)
        assert region.removable_areas() == removable
        for area_id in sorted(region.area_ids):
            verdict = reference.remains_contiguous_without(region, area_id)
            assert verdict == (area_id in removable)
            assert region.remains_contiguous_without(area_id) == verdict


def random_mutation_walk(state, rng, steps):
    """Drive *state* through a random mutation sequence.

    Only legal operations are attempted (areas exist, donors stay
    non-empty). Yields after every applied mutation.
    """

    def regions():
        return [state.regions[rid] for rid in sorted(state.regions)]

    for _ in range(steps):
        ops = []
        live = regions()
        if state.unassigned:
            ops.append("new_region")
            if live:
                ops.append("assign")
        donors = [r for r in live if len(r) > 1]
        if donors and len(live) > 1:
            ops.append("move")
        if donors:
            ops.append("unassign")
        if len(live) > 1:
            ops.append("merge")
        if live:
            ops.append("dissolve")
        if not ops:
            break
        op = rng.choice(ops)
        if op == "new_region":
            seed = rng.choice(sorted(state.unassigned))
            state.new_region([seed])
        elif op == "assign":
            area_id = rng.choice(sorted(state.unassigned))
            region = rng.choice(regions())
            state.assign(area_id, region)
        elif op == "move":
            donor = rng.choice([r for r in regions() if len(r) > 1])
            area_id = rng.choice(sorted(donor.area_ids))
            receivers = [
                r for r in regions() if r.region_id != donor.region_id
            ]
            receiver = rng.choice(receivers)
            state.move(area_id, receiver)
        elif op == "unassign":
            donor = rng.choice([r for r in regions() if len(r) > 1])
            area_id = rng.choice(sorted(donor.area_ids))
            state.unassign(area_id)
        elif op == "merge":
            keep, absorb = rng.sample(regions(), 2)
            state.merge_regions(keep, absorb)
        elif op == "dissolve":
            region = rng.choice(regions())
            state.dissolve_region(region)
        yield op


class TestOracleMatchesFreshBFS:
    @pytest.mark.parametrize("seed", [3, 17, 42, 99])
    def test_random_mutation_sequence(self, seed):
        collection = make_grid_collection(5, 5)
        state = SolutionState(collection, trivial_constraints())
        rng = random.Random(seed)
        for _ in random_mutation_walk(state, rng, steps=60):
            assert_oracle_matches_reference(state)
            state.check_indexes()

    def test_disconnected_region_semantics(self, grid3):
        """Two-component and three-component regions match per-node
        BFS verdicts exactly (only singleton components may leave a
        two-component region)."""
        region = Region(0, grid3, areas=[1, 3])  # opposite corners
        assert not region.is_contiguous()
        # Removing either singleton leaves the other, which is
        # connected — both are removable.
        assert region.removable_areas() == frozenset({1, 3})
        region.add_area(2)  # bridges: now one path component 1-2-3
        assert region.is_contiguous()
        assert region.removable_areas() == frozenset({1, 3})
        region.add_area(7)  # detached corner: two components again
        assert not region.is_contiguous()
        assert region.removable_areas() == frozenset({7})
        region.add_area(9)  # three components: nothing may leave
        assert not region.is_contiguous()
        assert region.removable_areas() == frozenset()
        assert region.removable_areas() == reference.removable_areas(region)

    def test_singleton_region(self, grid3):
        region = Region(0, grid3, areas=[5])
        assert region.is_contiguous()
        assert region.removable_areas() == frozenset()
        assert not region.remains_contiguous_without(5)


class TestCacheInvalidation:
    def test_add_and_remove_invalidate(self, grid3):
        perf = PerfCounters()
        region = Region(0, grid3, areas=[1, 2, 3], perf=perf)
        assert region.removable_areas() == frozenset({1, 3})

        # A mutation invalidates the cached verdict; the refresh is
        # either a full rebuild or (once a block-cut structure exists)
        # an incremental replay of the pending mutations.
        def refreshes():
            return perf.oracle_rebuilds + perf.oracle_incremental

        count = refreshes()
        assert region.remains_contiguous_without(1)  # cache hit
        assert refreshes() == count
        region.add_area(6)
        assert region.removable_areas() == frozenset({1, 6})
        assert refreshes() == count + 1
        region.remove_area(6)
        assert region.removable_areas() == frozenset({1, 3})
        assert refreshes() == count + 2
        # The structure established by the first full pass served the
        # later refreshes incrementally.
        assert perf.oracle_incremental >= 1

    def test_merge_regions_invalidates(self, grid3):
        state = SolutionState(grid3, trivial_constraints())
        left = state.new_region([1, 2])
        right = state.new_region([3, 6])
        assert left.removable_areas() == frozenset({1, 2})
        merged = state.merge_regions(left, right)
        assert merged is left
        # The stale verdict would claim 2 is removable; after the merge
        # it is the bridge between 1 and {3, 6}.
        assert merged.removable_areas() == frozenset({1, 6})
        assert not merged.remains_contiguous_without(2)
        assert_oracle_matches_reference(state)
        state.check_indexes()

    def test_dissolve_region_returns_members_to_pool(self, grid3):
        state = SolutionState(grid3, trivial_constraints())
        region = state.new_region([1, 2, 3])
        other = state.new_region([4, 5])
        assert region.removable_areas() == frozenset({1, 3})
        state.dissolve_region(region)
        assert region.region_id not in state.regions
        assert {1, 2, 3} <= set(state.unassigned)
        # The surviving region's oracle and the indexes are intact.
        assert_oracle_matches_reference(state)
        state.check_indexes()
        assert state.unassigned_neighbors(other) == [1, 2, 6, 7, 8]


def connected_walk(state, rng, steps):
    """Moves, unassigns and assigns that keep every region connected,
    picking areas off the fresh-BFS reference so no production oracle
    answer is built along the way. Yields after every mutation."""
    for _ in range(steps):
        region = state.regions[rng.choice(sorted(state.regions))]
        kind = rng.random()
        if kind < 0.2 and state.unassigned:
            area_id = rng.choice(sorted(state.unassigned))
            neighbors = sorted(
                r.region_id for r in state.neighbor_regions(area_id)
            )
            if neighbors:
                state.assign(area_id, state.regions[rng.choice(neighbors)])
                yield
            continue
        if len(region) < 3:
            continue
        removable = sorted(reference.removable_areas(region))
        if kind < 0.3:
            state.unassign(rng.choice(removable))
            yield
            continue
        adjacent = state.adjacent_regions(region)
        if not adjacent:
            continue
        other = rng.choice(adjacent)
        boundary = [
            a for a in state.donor_boundary(region, other) if a in removable
        ]
        if boundary:
            state.move(rng.choice(boundary), other)
            yield


class TestLazyRemovableSet:
    @pytest.mark.parametrize("seed", [3, 17, 42, 99])
    def test_answers_without_the_set_match_the_reference(self, seed):
        """Per-member verdicts served straight off the articulation set
        (before any ``removable_areas()`` call built the set) and the
        set built afterwards both match the fresh-BFS reference."""
        collection = make_grid_collection(6, 6)
        state = SolutionState(collection, trivial_constraints())
        for corner in (0, 3, 18, 21):
            rows = [corner + 6 * row + 1 for row in range(3)]
            state.new_region([start + col for start in rows for col in range(3)])
        rng = random.Random(seed)
        lazy = 0
        for _ in connected_walk(state, rng, steps=80):
            for region in state.iter_regions():
                fresh = region._contig_cache is None
                removable = reference.removable_areas(region)
                for area_id in sorted(region.area_ids):
                    assert region.remains_contiguous_without(area_id) == (
                        area_id in removable
                    )
                if fresh and len(region) >= 2:
                    # Connected: the verdicts above built no set.
                    assert region._contig_cache[2] is None
                    lazy += 1
                assert region.removable_areas() == removable
                assert region._contig_cache[2] == removable
        assert lazy > 40


def _twin(index: BlockCutIndex) -> BlockCutIndex:
    """An independent copy of *index*."""
    twin = BlockCutIndex()
    twin.blocks = {bid: set(m) for bid, m in index.blocks.items()}
    twin.vertex_blocks = {v: set(b) for v, b in index.vertex_blocks.items()}
    twin.articulation = set(index.articulation)
    twin._block_cuts = {bid: set(c) for bid, c in index._block_cuts.items()}
    twin._next_id = index._next_id
    return twin


def test_resplit_off_induced_rows_matches_the_filtered_resplit(monkeypatch):
    """Every block-cut removal of a whole enriched solve, applied once as
    the region asks (off its induced rows when the pending log holds
    only that removal) and once on a copy filtering the collection's
    neighbor sets: both agree and ``check()`` holds for both."""
    seen = {"removals": 0, "with_rows": 0, "resplits": 0}
    remove = BlockCutIndex.remove_vertex

    def replaying_remove(self, vertex, neighbors, adjacency=None):
        twin = _twin(self)
        bids = self.vertex_blocks.get(vertex, ())
        resplit = len(bids) == 1 and len(self.blocks[next(iter(bids))]) >= 3
        applied = remove(self, vertex, neighbors, adjacency)
        assert remove(twin, vertex, neighbors) == applied
        seen["removals"] += 1
        if adjacency is not None:
            seen["with_rows"] += 1
            seen["resplits"] += applied and resplit
        if applied:
            members = list(self.vertex_blocks)
            self.check(members, neighbors)
            twin.check(members, neighbors)
        return applied

    monkeypatch.setattr(BlockCutIndex, "remove_vertex", replaying_remove)
    collection = load_dataset("2k", scale=0.3)
    config = bench_config(len(collection), rng_seed=7)
    FaCT(config).solve(collection, enriched_constraints())
    assert seen["with_rows"] > 0.9 * seen["removals"], seen
    assert seen["resplits"] > 100, seen


class TestIndexedQueriesMatchScanFallback:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_bit_identical_query_results(self, seed):
        """Indexed queries return exactly the reference scans' (sorted)
        results after every mutation — the invariant that makes a
        whole solve replayed against the reference bit-identical."""
        collection = make_grid_collection(5, 5)
        state = SolutionState(collection, trivial_constraints())
        rng = random.Random(seed)
        for _ in random_mutation_walk(state, rng, 60):
            for region_id in sorted(state.regions):
                region = state.regions[region_id]
                assert state.unassigned_neighbors(
                    region
                ) == reference.unassigned_neighbors(state, region)
                assert state.adjacent_regions(
                    region
                ) == reference.adjacent_regions(state, region)
                for other_id in sorted(state.regions):
                    if other_id == region_id:
                        continue
                    other = state.regions[other_id]
                    assert state.donor_boundary(
                        region, other
                    ) == reference.donor_boundary(state, region, other)


class TestPerfCounters:
    def test_hits_and_rebuilds_accounting(self, grid3):
        perf = PerfCounters()
        region = Region(0, grid3, areas=[1, 2, 3], perf=perf)
        region.removable_areas()  # rebuild
        region.removable_areas()  # hit
        region.is_contiguous()  # hit
        assert perf.oracle_rebuilds == 1
        assert perf.oracle_hits == 2
        assert perf.graph_traversals == 1
        assert perf.oracle_hit_rate == pytest.approx(2 / 3)

    def test_full_bfs_checks_cached_vs_uncached(self, grid3):
        cached = PerfCounters()
        region = Region(0, grid3, areas=[1, 2, 3], perf=cached)
        region.remains_contiguous_without(1)  # pays for the rebuild
        region.remains_contiguous_without(2)  # O(1) lookup
        region.remains_contiguous_without(3)  # O(1) lookup
        assert cached.contiguity_checks == 3
        assert cached.full_bfs_checks == 1

    def test_merge_and_reset(self):
        first = PerfCounters()
        first.contiguity_checks = 3
        second = PerfCounters()
        second.contiguity_checks = 4
        second.oracle_hits = 2
        first.merge(second)
        assert first.contiguity_checks == 7
        assert first.oracle_hits == 2
        first.reset()
        assert first.contiguity_checks == 0

    def test_as_dict_is_json_shaped(self):
        perf = PerfCounters()
        perf.contiguity_checks = 2
        perf.oracle_hits = 1
        perf.oracle_rebuilds = 1
        payload = perf.as_dict()
        assert payload["contiguity_checks"] == 2
        assert payload["oracle_hit_rate"] == 0.5

    def test_state_threads_one_counter_into_regions(self, grid3):
        state = SolutionState(grid3, trivial_constraints())
        region = state.new_region([1, 2])
        assert region.perf is state.perf
        assert state.perf.index_updates > 0

    def test_solution_carries_perf(self, grid3):
        from repro.fact import FaCT, FaCTConfig

        constraints = trivial_constraints()
        solution = FaCT(FaCTConfig(rng_seed=1)).solve(grid3, constraints)
        assert solution.perf is not None
        summary = solution.summary()
        assert summary["perf"]["contiguity_checks"] >= 0
