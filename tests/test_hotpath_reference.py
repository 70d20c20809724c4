"""Whole-solve identity: the maintained hot paths against their
recompute-from-scratch reference (``oracles/hotpath_reference.py``).

A solve on the default dispatch must land on exactly the partition a
solve does with every hot-path query recomputed from scratch and every
kernel forced scalar — the maintained oracle, indexes, sorted
structures and heap index are pure accelerations.
"""

from __future__ import annotations

from repro.bench.runner import bench_config
from repro.fact import FaCT

from conftest import forced_kernels
from oracles.hotpath_reference import reference_hotpaths


def _outcome(collection, constraints):
    config = bench_config(len(collection), rng_seed=7)
    solution = FaCT(config).solve(collection, constraints)
    return (
        solution.partition.labels(),
        solution.p,
        solution.n_unassigned,
        repr(solution.heterogeneity),
    )


def test_solve_matches_reference_bit_for_bit(smoke_2k):
    collection, constraints = smoke_2k
    production = _outcome(collection, constraints)
    with reference_hotpaths(), forced_kernels("scalar"):
        reference = _outcome(collection, constraints)
    assert reference == production
    assert production[1] > 1
