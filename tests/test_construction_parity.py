"""Scalar-vs-vector parity for the construction phase (Step 2).

The batched construction kernels (``repro.fact.growing``: batch AVG
classification, masked frontier filtering, batch growth pricing) must
be invisible in the answer: with every dispatch forced to the vector
kernels, every substep has to make bit-identical decisions to the run
with every dispatch forced to the scalar loops — same seed pickups
(Substep 2.1 growth choices), same enclave assignments (Substep 2.2),
same final labels — and the full construction pipeline must
additionally be invariant to ``n_jobs``.

These run on the registry's real 1k/2k census datasets, not synthetic
toys, so the default dispatch engages both sides too.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.runner import bench_config, bench_dataset
from repro.bench.workloads import enriched_constraints
from repro.fact import FaCTConfig, check_feasibility, construct
from repro.fact.growing import grow_regions
from repro.fact.pool import SolverPool
from repro.fact.seeding import select_seeds
from repro.fact.state import SolutionState

from conftest import KERNEL_PATHS, forced_kernels


@pytest.fixture(scope="module")
def constraints():
    return enriched_constraints()


@pytest.fixture(scope="module", params=["1k", "2k"])
def dataset(request):
    return request.param, bench_dataset(request.param, scale=1.0)


def _phase_labels(collection, constraints, path):
    """Run Step 2 substep by substep on one forced kernel path and
    snapshot the assignment and ``repr(H)`` after each phase."""
    from repro.fact.growing import (
        _assign_enclaves,
        _AvgClasses,
        _combine_for_extrema,
        _initialize_from_seeds,
    )

    config = bench_config(len(collection), rng_seed=7, enable_tabu=False)
    with forced_kernels(path):
        report = check_feasibility(collection, constraints, config)
        report.raise_if_infeasible()
        seeding = select_seeds(collection, constraints, report)
        state = SolutionState(
            collection, constraints, excluded=report.invalid_areas
        )
        rng = random.Random(config.rng_seed)

        def snapshot():
            labels = tuple(
                sorted(
                    (area, region)
                    for area, region in state.assignment.items()
                    if region is not None
                )
            )
            return labels, repr(state.total_heterogeneity())

        classes = _AvgClasses(state, constraints.avgs)
        _initialize_from_seeds(state, seeding, classes, config, rng)
        seeds = snapshot()
        _assign_enclaves(state, classes, config, rng)
        enclaves = snapshot()
        _combine_for_extrema(state)
        return {
            "seeds": seeds,
            "enclaves": enclaves,
            "final": snapshot(),
            "p": state.p,
            "n_unassigned": state.n_unassigned,
        }


class TestPhaseParity:
    def test_every_substep_bit_identical(self, dataset, constraints):
        _, collection = dataset
        scalar = _phase_labels(collection, constraints, "scalar")
        vector = _phase_labels(collection, constraints, "vector")
        # Substep 2.1: identical seed pickups (growth choices included).
        assert scalar["seeds"] == vector["seeds"]
        # Substep 2.2: identical enclave assignments.
        assert scalar["enclaves"] == vector["enclaves"]
        # Post-extrema: identical final construction labels and shape.
        assert scalar["final"] == vector["final"]
        assert scalar["p"] == vector["p"] > 1
        assert scalar["n_unassigned"] == vector["n_unassigned"]

    def test_numpy_engaged_vector_paths(
        self, dataset, constraints, monkeypatch
    ):
        from repro.core.arrays import CollectionArrays

        _, collection = dataset
        # Only the batched construction kernels gather by dense
        # position during Step 2: a zero count on the vector run would
        # mean it fell through to the scalar loops, and the parity
        # assertions above proved nothing about the vectors.
        calls = {"n": 0}
        gather = CollectionArrays.positions

        def counting(self, area_ids):
            calls["n"] += 1
            return gather(self, area_ids)

        monkeypatch.setattr(CollectionArrays, "positions", counting)
        _phase_labels(collection, constraints, "scalar")
        assert calls["n"] == 0
        _phase_labels(collection, constraints, "vector")
        assert calls["n"] > 0


class TestWholeGrowParity:
    def test_grow_regions_entrypoint(self, dataset, constraints):
        # The public entry point (grow_regions) on both kernel paths —
        # same labels without reaching into the substep internals.
        _, collection = dataset
        config = bench_config(len(collection), rng_seed=7, enable_tabu=False)
        results = {}
        for path in KERNEL_PATHS:
            with forced_kernels(path):
                report = check_feasibility(collection, constraints, config)
                seeding = select_seeds(collection, constraints, report)
                state = SolutionState(
                    collection, constraints, excluded=report.invalid_areas
                )
                grow_regions(
                    state, seeding, config, random.Random(config.rng_seed)
                )
                results[path] = (
                    state.p,
                    tuple(sorted(state.assignment.items())),
                )
        assert results["scalar"] == results["vector"]


class TestPipelineParity:
    def test_full_construction_invariant_to_kernel_path(self, constraints):
        # The full multi-pass construction pipeline: final labels must
        # be identical on both forced kernel paths. Forced paths run
        # serially (spawned pool workers would miss the patches).
        collection = bench_dataset("1k", scale=1.0)
        config = FaCTConfig(
            rng_seed=7, construction_iterations=3, enable_tabu=False
        )
        outcomes = set()
        for path in KERNEL_PATHS:
            with forced_kernels(path):
                partition = construct(collection, constraints, config).partition
            outcomes.add(
                (partition.p, tuple(sorted(partition.labels().items())))
            )
        assert len(outcomes) == 1

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_full_construction_invariant_to_jobs(self, n_jobs, constraints):
        # At the default dispatch: the pass-distribution machinery
        # must not reorder decisions at any worker count (the pool
        # sets the count; construct without one runs in-process).
        collection = bench_dataset("1k", scale=1.0)
        outcomes = set()
        for jobs in (1, n_jobs):
            config = FaCTConfig(
                rng_seed=7,
                construction_iterations=3,
                n_jobs=jobs,
                enable_tabu=False,
            )
            feasibility = check_feasibility(collection, constraints, config)
            with SolverPool(
                collection, constraints, feasibility.invalid_areas, config,
                max_workers=jobs,
            ) as pool:
                partition = construct(
                    collection, constraints, config,
                    feasibility=feasibility, pool=pool,
                ).partition
            outcomes.add(
                (partition.p, tuple(sorted(partition.labels().items())))
            )
        assert len(outcomes) == 1
