"""``Region.merge`` maintains only the surviving region.

The per-area merge it replaced is kept as the oracle
``oracles/hotpath_reference.py::merge``: it also keeps the absorbed
region's aggregates, sorted list, block-cut log and label-vector
entries up to date, area by area. Whole solves with either merge give
the same labels, ``p`` and ``repr(H)``, and after every merge the
survivor's aggregate states, sorted list and ``H`` and the whole label
vector are bit-identical, the absorbed region is empty with emptied
aggregate states, and ``check_indexes()`` holds.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.bench.runner import bench_config
from repro.bench.workloads import enriched_constraints
from repro.core.region import Region
from repro.data.datasets import load_dataset
from repro.fact import FaCT
from repro.fact.state import SolutionState

from oracles.hotpath_reference import merge as per_area_merge


@pytest.fixture(scope="module")
def enriched_2k():
    """Registry ``2k`` at scale 0.3 under the enriched constraints."""
    return load_dataset("2k", scale=0.3), enriched_constraints()


@pytest.fixture(params=["smoke_2k", "enriched_2k"])
def instance(request):
    return request.getfixturevalue(request.param)


def _aggregate_states(region: Region) -> dict:
    return {
        name: (agg.count, repr(agg.sum), agg.min, agg.max)
        for name, agg in region._aggregates.items()
    }


def _fingerprint(state: SolutionState, keep: Region, absorb: Region):
    mirror = state.array_state
    keep_id = keep.region_id
    return (
        keep_id,
        sorted(keep.area_ids),
        repr(keep.heterogeneity),
        {
            name: (
                agg.count,
                repr(agg.sum),
                agg.min,
                agg.max,
                sorted(agg._counts.items()),
            )
            for name, agg in keep._aggregates.items()
        },
        keep.sorted_dissimilarities(),
        hashlib.sha256(mirror.labels.tobytes()).hexdigest(),
        _aggregate_states(absorb),
    )


def _solve(collection, constraints, merge=None):
    """The solve's outcome plus a fingerprint after every merge."""
    trace = []
    merge_regions = SolutionState.merge_regions

    def checking_merge_regions(self, keep, absorb):
        merged = merge_regions(self, keep, absorb)
        assert len(absorb) == 0 and absorb.heterogeneity == 0.0
        self.check_indexes()
        trace.append(_fingerprint(self, merged, absorb))
        return merged

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SolutionState, "merge_regions", checking_merge_regions)
        if merge is not None:
            patch.setattr(Region, "merge", merge)
        config = bench_config(len(collection), rng_seed=7)
        solution = FaCT(config).solve(collection, constraints)
    outcome = (
        solution.partition.labels(),
        solution.p,
        repr(solution.heterogeneity),
    )
    return outcome, trace


def test_survivor_only_merge_matches_the_per_area_oracle(instance):
    collection, constraints = instance
    outcome, trace = _solve(collection, constraints)
    expected_outcome, expected_trace = _solve(
        collection, constraints, per_area_merge
    )
    assert outcome == expected_outcome
    assert len(trace) > 10
    assert trace == expected_trace
    # The absorbed states are emptied exactly as an emptied region's.
    assert all(
        absorbed
        == {name: (0, repr(0.0), math.inf, -math.inf) for name in absorbed}
        for *_, absorbed in trace
    )
