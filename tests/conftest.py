"""Shared fixtures for the test-suite.

Provides small deterministic worlds the tests reason about exactly:

- ``grid3`` — the paper's running example world: a 3×3 rook grid whose
  areas carry attribute ``s`` with value ``a_i = i`` (the values that
  make every worked example in Section V come out: MIN [2,4] seeds
  {2,3,4}, MAX [6,7] seeds {6,7}, filtration drops {1,8,9}, and the
  AVG [4,5] pairings 2+6 and 3+7 average to 4 and 5).
- ``line5`` — a 5-area path graph (articulation-point scenarios).
- ``tiny_census`` / ``small_census`` — synthetic census datasets of 30
  and 200 tracts for integration tests.
- ``smoke_2k`` — the registry ``2k`` dataset at scale 0.08 under the
  ``MAS`` combo, the instance the whole-solve identity checks replay.
- ``kernel_path`` — runs a test once with every size dispatch of the
  array core forced scalar and once forced vector (see
  :func:`forced_kernels`).
"""

from __future__ import annotations

import signal
import sys
from contextlib import contextmanager

import pytest

from repro.core import Area, AreaCollection
from repro.data import load_dataset, synthetic_census

# Chaos tests interrupt the solver mid-flight; a bug in the
# interruption machinery shows up as a hang, not a failure. With no
# pytest-timeout available in this offline environment, a SIGALRM
# watchdog provides the equivalent: any chaos-marked test still
# running after this many seconds fails instead of stalling CI.
CHAOS_WATCHDOG_SECONDS = 60


@pytest.fixture(autouse=True)
def _chaos_watchdog(request):
    """Fail chaos-marked tests that hang instead of letting CI stall."""
    if request.node.get_closest_marker("chaos") is None:
        yield
        return
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"chaos test exceeded the {CHAOS_WATCHDOG_SECONDS}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(CHAOS_WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_grid_collection(
    rows: int,
    cols: int,
    values: dict[int, float] | None = None,
    attribute: str = "s",
) -> AreaCollection:
    """A rows×cols rook-grid collection with one attribute.

    Area ids are 1-based in row-major order (matching the paper's
    a_1 … a_9 numbering); by default area ``i`` has value ``i``.
    """
    areas = []
    adjacency: dict[int, set[int]] = {}
    for r in range(rows):
        for c in range(cols):
            area_id = r * cols + c + 1
            value = float(values[area_id]) if values else float(area_id)
            areas.append(
                Area(
                    area_id=area_id,
                    attributes={attribute: value},
                    dissimilarity=value,
                )
            )
            neighbors = set()
            if r > 0:
                neighbors.add(area_id - cols)
            if r < rows - 1:
                neighbors.add(area_id + cols)
            if c > 0:
                neighbors.add(area_id - 1)
            if c < cols - 1:
                neighbors.add(area_id + 1)
            adjacency[area_id] = neighbors
    return AreaCollection(areas, adjacency)


def make_line_collection(
    values: list[float], attribute: str = "s"
) -> AreaCollection:
    """A path-graph collection: area ``i+1`` holds ``values[i]``."""
    n = len(values)
    areas = [
        Area(i + 1, {attribute: float(values[i])}, dissimilarity=float(values[i]))
        for i in range(n)
    ]
    adjacency = {
        i + 1: {j for j in (i, i + 2) if 1 <= j <= n} for i in range(n)
    }
    return AreaCollection(areas, adjacency)


@pytest.fixture
def grid3() -> AreaCollection:
    """The 3×3 running-example world (area i has s = i)."""
    return make_grid_collection(3, 3)


@pytest.fixture
def line5() -> AreaCollection:
    """A 5-area path graph with s = 1..5."""
    return make_line_collection([1, 2, 3, 4, 5])


@pytest.fixture(scope="session")
def tiny_census() -> AreaCollection:
    """30 synthetic census tracts (session-scoped: read-only)."""
    return synthetic_census(30, seed=11)


@pytest.fixture(scope="session")
def small_census() -> AreaCollection:
    """200 synthetic census tracts (session-scoped: read-only)."""
    return synthetic_census(200, seed=12)


@pytest.fixture(scope="session")
def smoke_2k():
    """``(collection, constraints)``: registry ``2k`` at scale 0.08
    under the ``MAS`` combo (session-scoped: read-only). Solve it with
    ``bench_config(len(collection), rng_seed=7)``."""
    from repro.bench.workloads import combo_constraints

    return load_dataset("2k", scale=0.08), combo_constraints("MAS")


KERNEL_PATHS = ("scalar", "vector")


@contextmanager
def forced_kernels(path: str):
    """Pin every size dispatch of the array core to one side.

    The solver picks scalar or numpy kernels by input size
    (``_VECTOR_MIN_DONOR`` for the Tabu move derive,
    ``_VECTOR_MIN_BATCH`` for the construction batches). ``"scalar"``
    raises both thresholds out of reach and keeps ``_AvgClasses`` on its
    per-query path; ``"vector"`` drops both thresholds to 0 so every
    input takes the numpy kernel. Both sides must give bit-identical
    answers. Pool workers started fresh (spawn) miss the patches, so
    forced-path solves run with ``n_jobs=1``.
    """
    from repro.fact import growing, tabu

    if path not in KERNEL_PATHS:
        raise ValueError(f"unknown kernel path {path!r}")
    threshold = sys.maxsize if path == "scalar" else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tabu, "_VECTOR_MIN_DONOR", threshold)
        patch.setattr(growing, "_VECTOR_MIN_BATCH", threshold)
        if path == "scalar":
            batched_init = growing._AvgClasses.__init__

            def per_query_init(self, state, avgs):
                batched_init(self, state, avgs)
                self._codes = None

            patch.setattr(growing._AvgClasses, "__init__", per_query_init)
        yield path


@pytest.fixture(params=KERNEL_PATHS)
def kernel_path(request):
    """Run the test once per kernel path; yields the path name."""
    with forced_kernels(request.param) as path:
        yield path
