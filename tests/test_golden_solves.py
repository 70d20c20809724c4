"""Pinned outcomes of three small fixed solves.

The whole-solve identity tests compare production against reference
oracles at the same commit, so a change that moves both the same way
passes them. These pins tie the trajectory to numbers recorded once:
``p``, a sha256 of the sorted ``(area, region)`` pairs and
``repr(H)``. A solve that lands anywhere else fails here.

- ``smoke_2k``: registry ``2k`` at scale 0.08 under ``MAS``, seed 7,
  benchmark configuration.
- ``enriched_2k``: registry ``2k`` at scale 0.3 under the eight
  enriched constraints, seed 701, benchmark configuration.
- ``service_job``: a 117-area service-style job — ``2k`` at scale
  0.05 (dataset seed 700), the schema's default constraints and
  exactly 117 Tabu iterations, seed 700.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.runner import bench_config
from repro.bench.workloads import combo_constraints, enriched_constraints
from repro.core.constraints import ConstraintSet
from repro.data.datasets import load_dataset
from repro.data.schema import default_constraints
from repro.fact import FaCT, FaCTConfig

SERVICE_TABU_ITERATIONS = 117


def _labels_digest(labels: dict) -> str:
    """sha256 of the partition's (area, region) pairs sorted by area."""
    pairs = sorted((int(area), int(region)) for area, region in labels.items())
    return hashlib.sha256(json.dumps(pairs).encode("ascii")).hexdigest()


def _smoke_2k():
    collection = load_dataset("2k", scale=0.08)
    config = bench_config(len(collection), rng_seed=7)
    return collection, combo_constraints("MAS"), config


def _enriched_2k():
    collection = load_dataset("2k", scale=0.3)
    config = bench_config(len(collection), rng_seed=701)
    return collection, enriched_constraints(), config


def _service_job():
    collection = load_dataset("2k", scale=0.05, seed=700)
    config = FaCTConfig(
        rng_seed=700,
        tabu_max_no_improve=SERVICE_TABU_ITERATIONS,
        tabu_max_iterations=SERVICE_TABU_ITERATIONS,
    )
    return collection, ConstraintSet(default_constraints()), config


GOLDEN = {
    "smoke_2k": (
        _smoke_2k,
        24,
        "e01bed761916b0718fa2d8ce0b7df4ad7c7c36ea5b414daeca533a27c91c8df9",
        "291581.4999999999",
    ),
    "enriched_2k": (
        _enriched_2k,
        2,
        "c15dcc47a85a932822d7769e6d861a801b1c5bd1b975fbfbc1c91f57c04d0ebf",
        "66962032.59999732",
    ),
    "service_job": (
        _service_job,
        18,
        "d1fc74b44b53b82b5497a9700e4ae10d1f996e79c5fffd6e7e366726f8ca6238",
        "146935.09999999986",
    ),
}


def solve_outcome(build) -> tuple[int, str, str]:
    """``(p, labels digest, repr(H))`` of one fixed solve."""
    collection, constraints, config = build()
    solution = FaCT(config).solve(collection, constraints)
    return (
        solution.p,
        _labels_digest(solution.partition.labels()),
        repr(solution.heterogeneity),
    )


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_solve_lands_on_its_pinned_outcome(name, monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_CELL_DEADLINE", raising=False)
    build, p, digest, heterogeneity = GOLDEN[name]
    assert solve_outcome(build) == (p, digest, heterogeneity)
