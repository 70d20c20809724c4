"""The incremental objective engine against its naive oracles.

Three layers of checks:

- **property suite** — randomized assign/move/merge/dissolve sequences
  on a solution state; after *every* mutation, every region's
  incrementally maintained heterogeneity and sorted-values structure
  must agree with the O(g²) naive recompute, and every delta query
  must price exactly what a recompute-after-the-move would;
- **reference equivalence** — the maintained-structure fast path and
  the recompute-everything reference (``oracles/hotpath_reference.py``)
  must be *bit-identical*, not just approximately equal, because whole
  solver runs are replayed against the reference and compared;
- **worker invariance** — a fixed seed must produce the identical
  partition at every ``n_jobs``, with and without the Tabu portfolio.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.bench.runner import bench_config
from repro.core import ConstraintSet, min_constraint, sum_constraint
from repro.core.heterogeneity import (
    pairwise_absolute_deviation,
    pairwise_absolute_deviation_naive,
)
from repro.fact import FaCT, FaCTConfig
from repro.fact.objectives import CompactnessObjective, HeterogeneityObjective
from repro.fact.state import SolutionState

from conftest import make_grid_collection
from oracles.hotpath_reference import reference_hotpaths


def _random_world(seed: int, rows: int = 6, cols: int = 6):
    """A rook grid with random dissimilarity values (duplicates
    included, to exercise bisect ties in the sorted structure)."""
    rng = random.Random(seed)
    values = {
        area_id: float(rng.choice([1, 2, 2, 3, 5, 8, 8, 13, 21]))
        for area_id in range(1, rows * cols + 1)
    }
    return make_grid_collection(rows, cols, values=values)


def _check_all_regions(state: SolutionState) -> None:
    """Every region's maintained objective state vs the naive oracle."""
    for region in state.iter_regions():
        values = [
            state.collection.dissimilarity(a) for a in region.area_ids
        ]
        naive = pairwise_absolute_deviation_naive(values)
        assert region.heterogeneity == pytest.approx(naive, abs=1e-6)
        region.check_objective_structure()
        # Delta queries must price a recompute-after-mutation exactly.
        for area_id in sorted(region.area_ids):
            d = state.collection.dissimilarity(area_id)
            removed = [v for v in values]
            removed.remove(d)
            expected = pairwise_absolute_deviation_naive(removed) - naive
            assert region.heterogeneity_delta_remove(area_id) == pytest.approx(
                expected, abs=1e-6
            )
        outside = sorted(state.unassigned)[:3]
        for area_id in outside:
            d = state.collection.dissimilarity(area_id)
            expected = (
                pairwise_absolute_deviation_naive(values + [d]) - naive
            )
            assert region.heterogeneity_delta_add(area_id) == pytest.approx(
                expected, abs=1e-6
            )


def _random_mutations(state: SolutionState, rng: random.Random, steps: int):
    """Drive the state through a random mutation sequence, yielding
    after every step so the caller can assert invariants."""
    collection = state.collection
    for _ in range(steps):
        op = rng.random()
        regions = sorted(state.regions)
        if not regions or (op < 0.25 and state.n_unassigned):
            # Seed a new region from a random unassigned area.
            area_id = rng.choice(sorted(state.unassigned))
            state.new_region([area_id])
        elif op < 0.5 and state.n_unassigned:
            # Grow a random region by an adjacent unassigned area.
            region = state.regions[rng.choice(regions)]
            frontier = state.unassigned_neighbors(region)
            if frontier:
                state.assign(rng.choice(frontier), region)
        elif op < 0.7 and len(regions) >= 2:
            # Move a boundary area between adjacent regions.
            donor = state.regions[rng.choice(regions)]
            moved = False
            for area_id in sorted(donor.area_ids):
                if len(donor) <= 1:
                    break
                for neighbor in sorted(collection.neighbors(area_id)):
                    target_id = state.assignment.get(neighbor)
                    if target_id is not None and target_id != donor.region_id:
                        state.move(area_id, state.regions[target_id])
                        moved = True
                        break
                if moved:
                    break
        elif op < 0.85 and len(regions) >= 2:
            # Merge two adjacent regions.
            keep = state.regions[rng.choice(regions)]
            for other in state.adjacent_regions(keep):
                state.merge_regions(keep, other)
                break
        elif regions:
            # Dissolve a random region back to the unassigned pool.
            state.dissolve_region(state.regions[rng.choice(regions)])
        yield


class TestIncrementalHeterogeneity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_mutations_match_naive_oracle(self, seed):
        # Every state carries the flat-array mirror, so check_indexes()
        # also validates the arrays against the object graph after
        # every mutation.
        collection = _random_world(seed)
        state = SolutionState(collection, ConstraintSet())
        rng = random.Random(1000 + seed)
        for _ in _random_mutations(state, rng, steps=60):
            _check_all_regions(state)
            state.check_indexes()

    def test_reference_path_matches_naive_oracle(self):
        """The same property holds for the reference semantics."""
        with reference_hotpaths():
            collection = _random_world(9)
            state = SolutionState(collection, ConstraintSet())
            rng = random.Random(1009)
            for _ in _random_mutations(state, rng, steps=40):
                _check_all_regions(state)

    def test_reference_paths_bit_identical(self):
        """Maintained and reference paths must agree to the last bit on
        an identical mutation sequence — approximate equality is not
        enough for the solver-level identity check."""

        def run():
            collection = _random_world(4)
            state = SolutionState(collection, ConstraintSet())
            rng = random.Random(77)
            totals = []
            deltas = []
            for _ in _random_mutations(state, rng, steps=50):
                totals.append(state.total_heterogeneity())
                for region in state.iter_regions():
                    for area_id in sorted(region.area_ids):
                        deltas.append(
                            region.heterogeneity_delta_remove(area_id)
                        )
            return totals, deltas

        maintained = run()
        with reference_hotpaths():
            assert run() == maintained

    def test_fastpath_counters_recorded(self):
        collection = _random_world(5)
        state = SolutionState(collection, ConstraintSet())
        region = state.new_region([1])
        for area_id in (2, 7):
            state.assign(area_id, region)
        region.heterogeneity_delta_add(8)
        region.heterogeneity_delta_add(3)
        assert state.perf.delta_fastpath >= 1
        assert state.perf.objective_struct_updates >= 2
        assert 0.0 <= state.perf.delta_fastpath_rate <= 1.0


class TestAssumeSorted:
    def test_matches_default_on_sorted_input(self):
        values = [1.0, 2.0, 2.0, 5.0, 9.0]
        assert pairwise_absolute_deviation(
            values, assume_sorted=True
        ) == pairwise_absolute_deviation(values)

    def test_matches_naive(self):
        rng = random.Random(3)
        values = sorted(rng.uniform(0, 100) for _ in range(40))
        assert pairwise_absolute_deviation(
            values, assume_sorted=True
        ) == pytest.approx(pairwise_absolute_deviation_naive(values))

    def test_region_sorted_structure_feeds_fast_path(self):
        collection = _random_world(6)
        state = SolutionState(collection, ConstraintSet())
        region = state.new_region([1, 2, 3, 8])
        values = region.sorted_dissimilarities()
        assert values == sorted(values)
        assert pairwise_absolute_deviation(
            values, assume_sorted=True
        ) == pytest.approx(region.heterogeneity, abs=1e-9)


class TestCompactnessReference:
    def test_reference_paths_agree(self, small_census):
        """Compactness maintained sums vs fresh recompute (approx: the
        two paths accumulate floats in different orders)."""
        constraints = ConstraintSet(
            [sum_constraint("TOTALPOP", lower=20000)]
        )

        def solve():
            config = FaCTConfig(rng_seed=3, construction_iterations=1)
            return FaCT(config, objective=CompactnessObjective()).solve(
                small_census, constraints
            ).heterogeneity

        maintained = solve()
        with reference_hotpaths():
            assert solve() == pytest.approx(maintained, rel=1e-9)


class TestWorkerInvariance:
    def _constraints(self):
        return ConstraintSet(
            [
                min_constraint("POP16UP", upper=3000),
                sum_constraint("TOTALPOP", lower=20000),
            ]
        )

    @pytest.mark.parametrize(
        "portfolio, instance",
        [(1, "census"), (3, "census"), (3, "smoke-2k")],
        ids=["1", "3", "smoke-2k"],
    )
    def test_partition_invariant_across_n_jobs(
        self, request, portfolio, instance
    ):
        if instance == "census":
            collection = request.getfixturevalue("small_census")
            constraints = self._constraints()
            base = FaCTConfig(rng_seed=7, construction_iterations=4)
        else:
            collection, constraints = request.getfixturevalue("smoke_2k")
            base = bench_config(len(collection), rng_seed=7)
        outcomes = []
        for n_jobs in (1, 2, 4):
            config = replace(base, n_jobs=n_jobs, tabu_portfolio=portfolio)
            solution = FaCT(config).solve(collection, constraints)
            outcomes.append(
                (solution.partition, repr(solution.heterogeneity))
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_portfolio_never_worse_than_single(self, small_census):
        solutions = {}
        for portfolio in (1, 3):
            config = FaCTConfig(
                rng_seed=7,
                construction_iterations=2,
                tabu_portfolio=portfolio,
            )
            solutions[portfolio] = FaCT(config).solve(
                small_census, self._constraints()
            )
        assert solutions[3].p == solutions[1].p
        assert (
            solutions[3].heterogeneity <= solutions[1].heterogeneity + 1e-9
        )

    def test_portfolio_reduction_prefers_lowest_member(self, small_census):
        """Member 0 runs unperturbed from the winning pass, so the
        portfolio's improvement is measured against the same baseline
        the single search starts from."""
        config = FaCTConfig(
            rng_seed=11, construction_iterations=2, tabu_portfolio=2
        )
        solution = FaCT(config).solve(small_census, self._constraints())
        assert solution.tabu is not None
        assert (
            solution.tabu.heterogeneity_after
            <= solution.tabu.heterogeneity_before + 1e-9
        )


class TestObjectiveDetachment:
    def test_detached_drops_attach_state(self, small_census):
        objective = HeterogeneityObjective()
        state = SolutionState(
            small_census,
            ConstraintSet([sum_constraint("TOTALPOP", lower=1)]),
        )
        objective.attach(state)
        clone = objective.detached()
        assert not hasattr(clone, "_state")
        # The original stays attached and usable.
        assert objective.total() == state.total_heterogeneity()

    def test_canonical_from_labels_rebuild(self, small_census):
        constraints = ConstraintSet([sum_constraint("TOTALPOP", lower=1)])
        state = SolutionState(small_census, constraints)
        rng = random.Random(5)
        for _ in _random_mutations(state, rng, steps=30):
            pass
        labels = {
            area_id: region_id
            for area_id, region_id in state.assignment.items()
            if region_id is not None
        }
        # Scrambled label values describing the same partition must
        # rebuild into an identical canonical state.
        remap = {
            rid: 1000 - rid for rid in set(labels.values())
        }
        scrambled = {aid: remap[rid] for aid, rid in labels.items()}
        rebuilt_a = SolutionState.from_labels(
            small_census, constraints, labels
        )
        rebuilt_b = SolutionState.from_labels(
            small_census, constraints, scrambled
        )
        assert rebuilt_a.to_partition() == rebuilt_b.to_partition()
        assert sorted(rebuilt_a.regions) == sorted(rebuilt_b.regions)
        assert (
            rebuilt_a.total_heterogeneity()
            == rebuilt_b.total_heterogeneity()
        )
        assert rebuilt_a.total_heterogeneity() == pytest.approx(
            state.total_heterogeneity(), abs=1e-6
        )
