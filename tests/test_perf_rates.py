"""Counter-rate tripwire for the hot paths that keep a solve fast.

One deterministic solve (registry ``2k`` at scale 0.3, the enriched
workload, seed 7, ``bench_config``) and three machine-independent
rates, two read from its :class:`repro.core.perf.PerfCounters`:

- ``oracle_rebuild_share`` — full Hopcroft–Tarjan rebuilds as a share
  of all contiguity-oracle refreshes. The incremental block-cut oracle
  keeps it near 0; if it silently falls back to full rebuilds the
  share climbs toward 1.
- ``candidate_evals_per_derive`` — (candidate, receiver) pairs priced
  per vectorized move derive. A blowup means move derivation lost its
  dedup or feasibility pruning.

Each bound is ``max(2 x base, base + slack)`` over the full-scale 2k
rates measured when the incremental oracle landed (9 rebuilds in
18,759 refreshes; 2,764,849 evaluations over 18,852 derives), with
slack 0.05 and 50 respectively.

Two more figures are read off the Tabu move pool at every refresh.
The vector kernel prices all of a refresh's large donors in one batch,
so each refresh makes at most one receiver-side pricing call
(``_receiver_feasible_all``), however many donors it re-derives; a
per-donor derive makes one call per donor. The other figure is
lazy-heap entries per live move. The pool compacts its heap once it
holds more than ``4 x live + 1024`` entries, so the heap never exceeds
that; without compaction stale entries pile up with iterations x
boundary size (the full-scale 2k enriched solve ended at 612,280
entries for 1,200 live moves, about 510x). The counts are
deterministic, so the tests cannot flap on a slow machine.
"""

from __future__ import annotations

import pytest

from repro.bench.runner import bench_config
from repro.bench.workloads import enriched_constraints
from repro.data.datasets import load_dataset
from repro.fact import FaCT, tabu
from repro.runtime import RunStatus

MAX_ORACLE_REBUILD_SHARE = 0.0505
MAX_CANDIDATE_EVALS_PER_DERIVE = 293.3
MAX_HEAP_ENTRIES_PER_LIVE_MOVE = 4
HEAP_SLACK_ENTRIES = 1024
# Below these volumes a rate says nothing.
MIN_ORACLE_REFRESHES = 200
MIN_VECTOR_DERIVES = 50
MIN_POOL_REFRESHES = 200


@pytest.fixture(scope="module")
def solve():
    """The solve's counters, ``(heap entries, live moves)`` after every
    move-pool refresh, and ``(vector derives, pricing calls)`` made by
    every refresh."""
    heap_trace = []
    kernel_trace = []
    calls = [0]
    refresh = tabu._MovePool._refresh
    price = tabu._MovePool._receiver_feasible_all

    def recording_refresh(self):
        calls[0] = 0
        derives = self._state.perf.vector_derives
        refresh(self)
        kernel_trace.append(
            (self._state.perf.vector_derives - derives, calls[0])
        )
        heap_trace.append((len(self._heap), self._live))

    def counting_price(self, *args):
        calls[0] += 1
        return price(self, *args)

    collection = load_dataset("2k", scale=0.3)
    config = bench_config(len(collection), rng_seed=7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabu._MovePool, "_refresh", recording_refresh)
        patch.setattr(tabu._MovePool, "_receiver_feasible_all", counting_price)
        solution = FaCT(config).solve(collection, enriched_constraints())
    assert solution.status is RunStatus.COMPLETE
    return solution.perf, heap_trace, kernel_trace


@pytest.fixture(scope="module")
def perf(solve):
    return solve[0]


def test_oracle_rebuild_share(perf):
    refreshes = perf.oracle_rebuilds + perf.oracle_incremental
    assert refreshes >= MIN_ORACLE_REFRESHES
    assert perf.oracle_rebuilds / refreshes <= MAX_ORACLE_REBUILD_SHARE


def test_candidate_evaluations_per_vector_derive(perf):
    assert perf.vector_derives >= MIN_VECTOR_DERIVES
    rate = perf.candidate_evaluations / perf.vector_derives
    assert rate <= MAX_CANDIDATE_EVALS_PER_DERIVE


def test_heap_entries_per_live_move(solve):
    heap_trace = solve[1]
    assert len(heap_trace) >= MIN_POOL_REFRESHES
    worst = max(
        (entries - HEAP_SLACK_ENTRIES) / max(live, 1)
        for entries, live in heap_trace
    )
    assert worst <= MAX_HEAP_ENTRIES_PER_LIVE_MOVE


def test_one_vector_pricing_call_per_refresh(solve):
    kernel_trace = solve[2]
    assert len(kernel_trace) >= MIN_POOL_REFRESHES
    # The gate only means something if refreshes re-derive several
    # large donors at once.
    assert sum(derives >= 2 for derives, _ in kernel_trace) >= MIN_POOL_REFRESHES
    assert max(calls for _, calls in kernel_trace) <= 1
