"""Hot-path microbenchmark — cached vs uncached reference path.

The incremental contiguity oracle and the frontier/adjacency indexes
(PR "hot-path caches") must be *pure* accelerations: with caches
disabled the solver recomputes everything from scratch, and both modes
must produce bit-identical partitions for a fixed seed. This module
measures the speedup and proves the identity in one run:

    python -m repro.bench micro --output BENCH_hotpaths.json

It solves the same dataset twice — once with hot-path caches enabled
(the default) and once with them disabled via
:func:`repro.core.perf.set_hotpath_caches` — then

- **fails (exit code 2)** unless labels, ``p``, unassigned count and
  heterogeneity match exactly between the two runs;
- reports the wall-clock speedup and the reduction in full graph
  traversals (Hopcroft–Tarjan / BFS passes) the oracle achieved;
- times the three hot-path queries in isolation (micro-ops):
  ``remains_contiguous_without``, ``unassigned_neighbors`` and
  ``adjacent_regions``.

``--smoke`` shrinks the dataset so CI can assert the cached/uncached
identity in seconds; the full-scale run that produced the checked-in
``BENCH_hotpaths.json`` uses the defaults.

Two further modes share the dataset/seed options:

- ``--objective`` (:func:`run_objective`) targets the incremental
  objective engine: it verifies the cached delta path against the
  recompute-everything reference path, verifies that the Tabu
  portfolio returns bit-identical partitions at every worker count,
  and reports the delta fast-path rate plus the tabu-phase speedup —
  the full-scale run produces the checked-in ``BENCH_objective.json``;
- ``--scaling`` (:func:`run_scaling`) solves each dataset of the
  registry sweep (2k/10k/25k/50k by default) once and reports the
  per-phase wall-clock and hot-path counters — the full-scale run
  produces the checked-in ``BENCH_scaling.json``. With
  ``--perf-baseline`` the run's oracle-rebuild and candidate-
  evaluation rates are additionally graded WIN / NEUTRAL /
  REGRESSION against a checked-in record (exit 3 on REGRESSION);
- ``--profile`` wraps one cached solve in :mod:`cProfile` and prints
  the top cumulative-time entries — the optimization worklist.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

import numpy as np

from ..core.area import AreaCollection
from ..core.constraints import ConstraintSet
from ..core.perf import set_hotpath_caches
from ..data.datasets import load_dataset
from ..fact.solver import FaCT
from ..fact.state import SolutionState
from ..obs.progress import scaling_row
from ..obs.telemetry import SolveTelemetry
from ..runtime.atomic import atomic_write_text
from .runner import BENCH_SCHEMA_VERSION, bench_config
from .workloads import combo_constraints, enriched_constraints

__all__ = [
    "compare_perf_to_baseline",
    "read_bench_record",
    "run_micro",
    "run_objective",
    "run_scaling",
    "main",
]

_SMOKE_SCALE = 0.08

# Perf-gate verdict thresholds. Both gated metrics are lower-is-better
# *rates* (scale-invariant by construction, unlike the raw counters),
# but a smoke-scale run still shifts them — tiny regions mean tinier
# denominators — so a verdict needs BOTH a relative factor and an
# absolute gap before it leaves NEUTRAL. The gate is a tripwire for
# structural breakage (e.g. the incremental oracle silently falling
# back to full rebuilds pushes ``oracle_rebuild_share`` from ~0 to
# ~1), not a percent-level performance assertion.
_PERF_GATE_REL = 2.0
_PERF_GATE_ABS = {
    "oracle_rebuild_share": 0.05,
    "candidate_evals_per_derive": 50.0,
}
# A comparison needs this many denominator events in the *current* run
# before its rate means anything — a sub-minimum run (e.g. the 0.08
# identity smoke, whose tabu phase barely moves) reports the
# comparison as NEUTRAL with ``insufficient_volume`` set instead of
# flapping. The CI perf-gate step runs at scale 0.3, which clears the
# minimums while keeping region granularity (and therefore the rates)
# comparable to the full-scale baseline.
_PERF_MIN_VOLUME = {
    "oracle_rebuild_share": 200,
    "candidate_evals_per_derive": 50,
}


def read_bench_record(path: str) -> dict | None:
    """Load a ``BENCH_*.json`` record, accepting records of any schema
    version.

    Version-1 records (written before the telemetry PR) gain
    ``schema_version=1`` and an empty ``telemetry`` block so consumers
    can treat every record uniformly. Returns ``None`` when the file is
    missing or unparseable.
    """
    import os

    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    payload.setdefault("schema_version", 1)
    payload.setdefault("telemetry", {})
    return payload


def _telemetry_block(telemetry: SolveTelemetry) -> dict:
    """Span count + per-phase wall-clock summary for a JSON payload."""
    summary = telemetry.summary()
    return {
        "total_spans": summary["total_spans"],
        "total_events": summary["total_events"],
        "phase_seconds": {
            phase: round(seconds, 4)
            for phase, seconds in sorted(summary["phase_seconds"].items())
        },
        "progress_events": summary.get("progress_events", 0),
        "eta_error": summary.get("eta_error"),
    }


def _solve_once(
    collection: AreaCollection,
    constraints: ConstraintSet,
    rng_seed: int,
    cached: bool,
) -> dict:
    """One full FaCT solve with the cache gate forced to *cached*.

    Both modes run with (in-memory) telemetry on, so the wall-clock
    comparison stays apples-to-apples and the record carries the span
    summary.
    """
    config = bench_config(len(collection), rng_seed=rng_seed, enable_tabu=True)
    telemetry = SolveTelemetry()
    previous = set_hotpath_caches(cached)
    try:
        started = time.perf_counter()
        solution = FaCT(config).solve(
            collection, constraints, telemetry=telemetry
        )
        wall = time.perf_counter() - started
    finally:
        set_hotpath_caches(previous)
    return {
        "wall_seconds": wall,
        "labels": solution.partition.labels(),
        "p": solution.p,
        "n_unassigned": solution.n_unassigned,
        "heterogeneity": solution.heterogeneity,
        "perf": solution.perf.as_dict() if solution.perf is not None else {},
        "telemetry": _telemetry_block(telemetry),
    }


def _grow_state(
    collection: AreaCollection,
    constraints: ConstraintSet,
    target_regions: int = 12,
    fill_fraction: float = 0.8,
) -> SolutionState:
    """A deterministic partially-grown state for micro-op timing.

    Regions are grown breadth-first from the lowest area ids; growth
    stops at *fill_fraction* so the unassigned frontier is non-empty
    (otherwise ``unassigned_neighbors`` would measure an empty query).
    """
    state = SolutionState(collection, constraints)
    budget = int(len(collection) * fill_fraction)
    per_region = max(2, budget // target_regions)
    while state.n_unassigned > len(collection) - budget:
        seed = min(state.unassigned)
        region = state.new_region([seed])
        while len(region) < per_region:
            frontier = state.unassigned_neighbors(region)
            if not frontier:
                break
            state.assign(frontier[0], region)
        if state.n_unassigned <= len(collection) - budget:
            break
    return state


def _time_micro_ops(
    collection: AreaCollection,
    constraints: ConstraintSet,
    cached: bool,
    repeats: int = 3,
) -> dict[str, float]:
    """Mean per-call latency (µs) of the three hot-path queries."""
    previous = set_hotpath_caches(cached)
    try:
        state = _grow_state(collection, constraints)
        regions = [state.regions[rid] for rid in sorted(state.regions)]

        def contiguity() -> int:
            calls = 0
            for region in regions:
                for area_id in sorted(region.area_ids):
                    region.remains_contiguous_without(area_id)
                    calls += 1
            return calls

        def frontier() -> int:
            calls = 0
            for region in regions:
                state.unassigned_neighbors(region)
                calls += 1
            return calls

        def adjacency() -> int:
            calls = 0
            for region in regions:
                state.adjacent_regions(region)
                calls += 1
            return calls

        timings: dict[str, float] = {}
        for name, op in (
            ("remains_contiguous_without", contiguity),
            ("unassigned_neighbors", frontier),
            ("adjacent_regions", adjacency),
        ):
            best = float("inf")
            for _ in range(repeats):
                started = time.perf_counter()
                calls = op()
                elapsed = time.perf_counter() - started
                best = min(best, elapsed / max(1, calls))
            timings[name] = best * 1e6
        return timings
    finally:
        set_hotpath_caches(previous)


def run_micro(
    dataset: str = "2k",
    scale: float = 1.0,
    rng_seed: int = 7,
    combo: str = "MAS",
    micro_ops: bool = True,
) -> dict:
    """Run the cached/uncached comparison and return the result dict.

    ``result["identical"]`` is the acceptance gate: ``False`` means the
    caches changed solver behaviour and the build must fail.
    """
    collection = load_dataset(dataset, scale=scale)
    constraints = combo_constraints(combo)

    cached = _solve_once(collection, constraints, rng_seed, cached=True)
    uncached = _solve_once(collection, constraints, rng_seed, cached=False)

    identical = (
        cached["labels"] == uncached["labels"]
        and cached["p"] == uncached["p"]
        and cached["n_unassigned"] == uncached["n_unassigned"]
        and cached["heterogeneity"] == uncached["heterogeneity"]
    )
    traversals_cached = max(1, cached["perf"].get("graph_traversals", 0))
    traversals_uncached = uncached["perf"].get("graph_traversals", 0)
    bfs_checks_cached = max(1, cached["perf"].get("full_bfs_checks", 0))
    bfs_checks_uncached = uncached["perf"].get("full_bfs_checks", 0)

    result = {
        "benchmark": "hotpaths",
        "schema_version": BENCH_SCHEMA_VERSION,
        "telemetry": cached["telemetry"],
        "dataset": dataset,
        "scale": scale,
        "n_areas": len(collection),
        "combo": combo,
        "rng_seed": rng_seed,
        "identical": identical,
        "p": cached["p"],
        "n_unassigned": cached["n_unassigned"],
        "heterogeneity": cached["heterogeneity"],
        "cached": {
            "wall_seconds": round(cached["wall_seconds"], 4),
            "perf": cached["perf"],
        },
        "uncached": {
            "wall_seconds": round(uncached["wall_seconds"], 4),
            "perf": uncached["perf"],
        },
        "speedup": round(
            uncached["wall_seconds"] / max(1e-9, cached["wall_seconds"]), 3
        ),
        # Contiguity checks answered by a full BFS, uncached / cached —
        # the oracle's headline: checks become O(1) lookups unless the
        # check itself triggers the lazy rebuild.
        "bfs_check_reduction": round(
            bfs_checks_uncached / bfs_checks_cached, 3
        ),
        # All induced-subgraph passes (incl. oracle rebuilds), both
        # modes — the conservative overall-work view.
        "traversal_reduction": round(
            traversals_uncached / traversals_cached, 3
        ),
    }
    if micro_ops:
        result["micro_ops_us"] = {
            "cached": {
                name: round(value, 3)
                for name, value in _time_micro_ops(
                    collection, constraints, cached=True
                ).items()
            },
            "uncached": {
                name: round(value, 3)
                for name, value in _time_micro_ops(
                    collection, constraints, cached=False
                ).items()
            },
        }
    return result


def _solve_objective_once(
    collection: AreaCollection,
    constraints: ConstraintSet,
    rng_seed: int,
    cached: bool,
    n_jobs: int = 1,
    tabu_portfolio: int = 1,
) -> dict:
    """One FaCT solve with explicit parallelism knobs, for the
    objective-identity benchmark."""
    from dataclasses import replace

    config = replace(
        bench_config(len(collection), rng_seed=rng_seed, enable_tabu=True),
        n_jobs=n_jobs,
        tabu_portfolio=tabu_portfolio,
    )
    telemetry = SolveTelemetry()
    previous = set_hotpath_caches(cached)
    try:
        started = time.perf_counter()
        solution = FaCT(config).solve(
            collection, constraints, telemetry=telemetry
        )
        wall = time.perf_counter() - started
    finally:
        set_hotpath_caches(previous)
    perf = solution.perf.as_dict() if solution.perf is not None else {}
    return {
        "wall_seconds": wall,
        "labels": solution.partition.labels(),
        "p": solution.p,
        "n_unassigned": solution.n_unassigned,
        "heterogeneity": solution.heterogeneity,
        "status": solution.status.value,
        "tabu_seconds": perf.get("timings", {}).get("tabu", 0.0),
        "perf": perf,
        "telemetry": _telemetry_block(telemetry),
    }


def _baseline_tabu_seconds(path: str) -> float | None:
    """Tabu-phase seconds of the checked-in hot-path baseline, if the
    file exists and carries them (PR2's ``BENCH_hotpaths.json``).

    Goes through :func:`read_bench_record`, so baselines of any schema
    version are accepted."""
    payload = read_bench_record(path)
    if payload is None:
        return None
    try:
        value = payload["cached"]["perf"]["timings"]["tabu"]
    except (KeyError, TypeError):
        return None
    return float(value)


def run_objective(
    dataset: str = "2k",
    scale: float = 1.0,
    rng_seed: int = 7,
    combo: str = "MAS",
    n_jobs_grid: Sequence[int] = (1, 2, 4),
    tabu_portfolio: int = 3,
    baseline_path: str = "BENCH_hotpaths.json",
) -> dict:
    """The objective-engine benchmark: delta fast path + portfolio.

    Three checks in one run, mirroring the PR's acceptance gates:

    - **identity** — cached vs uncached (reference-path) solves must
      produce bit-identical partitions; the maintained sorted-values
      structure and the heap move index are pure accelerations;
    - **fast-path rate** — share of objective delta queries served by
      the maintained structure without a full recompute
      (``delta_fastpath_rate`` from
      :class:`~repro.core.perf.PerfCounters`);
    - **worker invariance** — with the Tabu portfolio on, partitions
      must be bit-identical at every ``n_jobs`` in *n_jobs_grid*.

    ``result["identical"]`` and ``result["n_jobs_invariant"]`` are the
    failure gates;
    tabu-phase wall-clock is reported against both the in-run uncached
    solve and the checked-in PR2 baseline file.
    """
    collection = load_dataset(dataset, scale=scale)
    constraints = combo_constraints(combo)

    cached = _solve_objective_once(collection, constraints, rng_seed, cached=True)
    uncached = _solve_objective_once(
        collection, constraints, rng_seed, cached=False
    )
    identical = (
        cached["labels"] == uncached["labels"]
        and cached["heterogeneity"] == uncached["heterogeneity"]
    )

    portfolio_runs = {
        n_jobs: _solve_objective_once(
            collection,
            constraints,
            rng_seed,
            cached=True,
            n_jobs=n_jobs,
            tabu_portfolio=tabu_portfolio,
        )
        for n_jobs in n_jobs_grid
    }
    reference = portfolio_runs[n_jobs_grid[0]]
    n_jobs_invariant = all(
        run["labels"] == reference["labels"]
        and run["heterogeneity"] == reference["heterogeneity"]
        for run in portfolio_runs.values()
    )

    baseline_tabu = _baseline_tabu_seconds(baseline_path)
    tabu_cached = cached["tabu_seconds"]
    return {
        "benchmark": "objective",
        "schema_version": BENCH_SCHEMA_VERSION,
        "telemetry": cached["telemetry"],
        "dataset": dataset,
        "scale": scale,
        "n_areas": len(collection),
        "combo": combo,
        "rng_seed": rng_seed,
        "identical": identical,
        "n_jobs_invariant": n_jobs_invariant,
        "p": cached["p"],
        "n_unassigned": cached["n_unassigned"],
        "heterogeneity": cached["heterogeneity"],
        "delta_fastpath_rate": cached["perf"].get("delta_fastpath_rate", 0.0),
        "delta_fastpath": cached["perf"].get("delta_fastpath", 0),
        "delta_recompute": cached["perf"].get("delta_recompute", 0),
        "objective_struct_updates": cached["perf"].get(
            "objective_struct_updates", 0
        ),
        "tabu_seconds_cached": round(tabu_cached, 4),
        "tabu_seconds_uncached": round(uncached["tabu_seconds"], 4),
        "tabu_speedup_vs_uncached": round(
            uncached["tabu_seconds"] / max(1e-9, tabu_cached), 3
        ),
        "tabu_baseline_seconds": baseline_tabu,
        "tabu_speedup_vs_baseline": (
            round(baseline_tabu / max(1e-9, tabu_cached), 3)
            if baseline_tabu is not None
            else None
        ),
        "wall_seconds_cached": round(cached["wall_seconds"], 4),
        "wall_seconds_uncached": round(uncached["wall_seconds"], 4),
        "portfolio": {
            "tabu_portfolio": tabu_portfolio,
            "runs": {
                str(n_jobs): {
                    "wall_seconds": round(run["wall_seconds"], 4),
                    "tabu_seconds": round(run["tabu_seconds"], 4),
                    "heterogeneity": run["heterogeneity"],
                    "p": run["p"],
                }
                for n_jobs, run in portfolio_runs.items()
            },
            "heterogeneity": reference["heterogeneity"],
            "improvement_over_single": round(
                (cached["heterogeneity"] - reference["heterogeneity"])
                / max(1e-9, cached["heterogeneity"]),
                4,
            ),
        },
        "cached_perf": cached["perf"],
        "uncached_perf": uncached["perf"],
    }


def _solve_scaling_once(
    collection: AreaCollection,
    constraints: ConstraintSet,
    rng_seed: int,
) -> dict:
    """One cached solve of the scaling sweep."""
    config = bench_config(len(collection), rng_seed=rng_seed, enable_tabu=True)
    telemetry = SolveTelemetry()
    started = time.perf_counter()
    solution = FaCT(config).solve(collection, constraints, telemetry=telemetry)
    wall = time.perf_counter() - started
    perf = solution.perf.as_dict() if solution.perf is not None else {}
    return {
        "wall_seconds": wall,
        "p": solution.p,
        "n_unassigned": solution.n_unassigned,
        "heterogeneity": solution.heterogeneity,
        "status": solution.status.value,
        "construction_seconds": solution.construction_seconds,
        "tabu_seconds": perf.get("timings", {}).get("tabu", 0.0),
        "perf": perf,
        "telemetry": _telemetry_block(telemetry),
    }


def run_scaling(
    datasets: Sequence[str] = ("2k", "10k", "25k", "50k"),
    scale: float = 1.0,
    rng_seed: int = 7,
    workload: str = "enriched",
) -> dict:
    """The scaling benchmark: one solve per dataset size.

    The default *workload* is the six-constraint *enriched* set
    (:func:`repro.bench.workloads.enriched_constraints`) — the paper's
    headline setting, and the regime the vector kernels target: large
    regions (the SUM threshold) and a constraint count where
    per-candidate feasibility checking dominates the Tabu phase. Any
    ``MAS``-subset combo code is accepted instead for narrower sweeps.

    Per dataset the block carries the partition shape (``p``,
    unassigned count, heterogeneity) and one ``run`` row with the
    construction/tabu/total wall-clock, the run status (an interrupted
    cell stays visible in the checked-in artifact rather than silently
    truncated) and the hot-path counters the perf gate grades.
    """
    dataset_blocks: dict[str, dict] = {}
    all_complete = True
    telemetry_block: dict = {}
    constraints = (
        enriched_constraints()
        if workload == "enriched"
        else combo_constraints(workload)
    )
    for name in datasets:
        collection = load_dataset(name, scale=scale)
        run = _solve_scaling_once(collection, constraints, rng_seed)
        all_complete = all_complete and run["status"] == "complete"
        perf = run["perf"]
        dataset_blocks[name] = {
            "n_areas": len(collection),
            "p": run["p"],
            "n_unassigned": run["n_unassigned"],
            "heterogeneity": run["heterogeneity"],
            "run": {
                "wall_seconds": round(run["wall_seconds"], 4),
                "construction_seconds": round(run["construction_seconds"], 4),
                "tabu_seconds": round(run["tabu_seconds"], 4),
                "status": run["status"],
                "candidate_evaluations": perf.get("candidate_evaluations", 0),
                "vector_derives": perf.get("vector_derives", 0),
                "donor_cache_hits": perf.get("donor_cache_hits", 0),
                "oracle_rebuilds": perf.get("oracle_rebuilds", 0),
                "oracle_incremental": perf.get("oracle_incremental", 0),
                "oracle_fallbacks": perf.get("oracle_fallbacks", 0),
                "oracle_incremental_rate": perf.get(
                    "oracle_incremental_rate", 0.0
                ),
            },
        }
        telemetry_block = run["telemetry"]
    return {
        "benchmark": "scaling",
        "schema_version": BENCH_SCHEMA_VERSION,
        "telemetry": telemetry_block,
        "numpy_version": np.__version__,
        "scale": scale,
        "workload": workload,
        "constraints": [str(c) for c in constraints],
        "rng_seed": rng_seed,
        "all_complete": all_complete,
        "datasets": dataset_blocks,
    }


def _perf_rates(row: dict) -> dict:
    """The gated scale-invariant rates of one scaling run row, as
    ``{metric: (rate, denominator_volume)}``.

    ``oracle_rebuild_share`` — full Hopcroft–Tarjan rebuilds as a share
    of all oracle refreshes (lower is better; the incremental
    block-cut oracle drives it toward 0, and structural breakage
    drives it back toward 1). ``candidate_evals_per_derive`` — mean
    (candidate, receiver) pairs priced per vector derive (a boundary-
    size proxy; a blowup means move derivation lost its dedup or
    feasibility pruning). The rate is ``None`` when the row predates
    the counter or the denominator is empty (a run whose donors all
    stayed below the vector-derive threshold has no vector derives).
    """
    rebuilds = row.get("oracle_rebuilds")
    incremental = row.get("oracle_incremental")
    refreshes = (rebuilds or 0) + (incremental or 0)
    evals = row.get("candidate_evaluations")
    derives = row.get("vector_derives")
    return {
        "oracle_rebuild_share": (
            (rebuilds / refreshes, refreshes)
            if rebuilds is not None and incremental is not None and refreshes
            else (None, refreshes)
        ),
        "candidate_evals_per_derive": (
            (evals / derives, derives)
            if evals is not None and derives
            else (None, derives or 0)
        ),
    }


def _perf_verdict(metric: str, current: float, baseline: float) -> str:
    """WIN / NEUTRAL / REGRESSION for one lower-is-better rate.

    Leaving NEUTRAL requires both the relative factor
    (``_PERF_GATE_REL``) and the metric's absolute gap
    (``_PERF_GATE_ABS``) — smoke-scale runs legitimately shift the
    rates by small absolute amounts, and near-zero baselines make any
    relative factor trivially exceedable.
    """
    gap = current - baseline
    abs_slack = _PERF_GATE_ABS[metric]
    if current > baseline * _PERF_GATE_REL and gap > abs_slack:
        return "REGRESSION"
    if baseline > current * _PERF_GATE_REL and -gap > abs_slack:
        return "WIN"
    return "NEUTRAL"


def compare_perf_to_baseline(result: dict, baseline: dict | None) -> dict:
    """Grade a scaling run's perf counters against a checked-in
    ``BENCH_scaling.json``.

    One comparison per (dataset, metric) present in both records (see
    :func:`repro.obs.progress.scaling_row` for which row of a dataset
    block is graded); the ``overall`` verdict is REGRESSION if any comparison
    regressed, else WIN if any won, else NEUTRAL. A missing baseline
    (or one predating the gated counters) yields zero comparisons and
    an overall NEUTRAL — the gate only bites once a post-oracle
    baseline is checked in.
    """
    comparisons: list[dict] = []
    base_datasets = (baseline or {}).get("datasets", {})
    for name, block in result.get("datasets", {}).items():
        row = scaling_row(block)
        base_row = scaling_row(base_datasets.get(name, {}))
        if row is None or base_row is None:
            continue
        base_rates = _perf_rates(base_row)
        for metric, (current, volume) in _perf_rates(row).items():
            base_value, _ = base_rates[metric]
            if current is None or base_value is None:
                continue
            entry = {
                "dataset": name,
                "metric": metric,
                "current": round(current, 6),
                "baseline": round(base_value, 6),
                "volume": volume,
            }
            if volume < _PERF_MIN_VOLUME[metric]:
                entry["verdict"] = "NEUTRAL"
                entry["insufficient_volume"] = True
            else:
                entry["verdict"] = _perf_verdict(metric, current, base_value)
            comparisons.append(entry)
    verdicts = {entry["verdict"] for entry in comparisons}
    if "REGRESSION" in verdicts:
        overall = "REGRESSION"
    elif "WIN" in verdicts:
        overall = "WIN"
    else:
        overall = "NEUTRAL"
    return {
        "overall": overall,
        "comparisons": comparisons,
        "baseline_found": bool(base_datasets),
    }


def _profile_solve(
    dataset: str, scale: float, rng_seed: int, combo: str, top: int = 25
) -> None:
    """cProfile one cached solve and print the *top* cumulative-time
    entries (the optimization worklist view)."""
    import cProfile
    import io
    import pstats

    collection = load_dataset(dataset, scale=scale)
    constraints = combo_constraints(combo)
    config = bench_config(len(collection), rng_seed=rng_seed, enable_tabu=True)
    previous = set_hotpath_caches(True)
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        FaCT(config).solve(collection, constraints)
        profiler.disable()
    finally:
        set_hotpath_caches(previous)
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print(stream.getvalue())


def _strip_labels(result: dict) -> dict:
    """The JSON payload: everything except the raw label maps."""
    return {key: value for key, value in result.items() if key != "labels"}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench micro",
        description=(
            "Measure the hot-path caches against the uncached reference "
            "path and verify bit-identical solver output."
        ),
    )
    parser.add_argument("--dataset", default="2k", help="registry dataset name")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="dataset scale factor"
    )
    parser.add_argument("--seed", type=int, default=7, help="solver RNG seed")
    parser.add_argument(
        "--combo", default="MAS", help="constraint combination (subset of MAS)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI mode: shrink the dataset to scale {_SMOKE_SCALE} and "
        "skip micro-op timing; the cached/uncached identity check "
        "still runs in full",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON result here (default: stdout only)",
    )
    parser.add_argument(
        "--objective",
        action="store_true",
        help="objective-engine mode: verify the incremental objective "
        "deltas (cached vs reference path) and the Tabu portfolio's "
        "n_jobs invariance; report the delta fast-path rate and the "
        "tabu-phase speedup (emits BENCH_objective.json with --output)",
    )
    parser.add_argument(
        "--scaling",
        action="store_true",
        help="scaling mode: solve each of --datasets once and report "
        "per-phase wall-clock and hot-path counters (emits "
        "BENCH_scaling.json with --output)",
    )
    parser.add_argument(
        "--datasets",
        default="2k,10k,25k,50k",
        help="scaling mode: comma-separated registry dataset names to "
        "sweep (default 2k,10k,25k,50k). Full-scale runtime grows "
        "steeply with size — expect roughly 1 min (2k), 5 min (10k), "
        "8 min (25k) and 30-45 min (50k) per sweep, dominated by the "
        "tabu phase; use --smoke (or trim --datasets) for CI-sized "
        "runs",
    )
    parser.add_argument(
        "--perf-baseline",
        default=None,
        help="scaling mode: checked-in BENCH_scaling.json to grade "
        "this run's perf counters against (oracle rebuild share, "
        "candidate evaluations per derive). Each (dataset, metric) "
        "pair present in both records gets a WIN / NEUTRAL / "
        "REGRESSION verdict; any REGRESSION fails the run (exit 3). "
        "Thresholds are deliberately coarse so a --smoke run can be "
        "graded against a full-scale baseline",
    )
    parser.add_argument(
        "--workload",
        default="enriched",
        help="scaling mode: 'enriched' (six-constraint workload, the "
        "default) or a MAS-subset combo code",
    )
    parser.add_argument(
        "--jobs",
        default="1,2,4",
        help="objective mode: comma-separated n_jobs grid for the "
        "worker-invariance check (default 1,2,4)",
    )
    parser.add_argument(
        "--portfolio",
        type=int,
        default=3,
        help="objective mode: tabu_portfolio size for the invariance "
        "runs (default 3)",
    )
    parser.add_argument(
        "--baseline",
        default="BENCH_hotpaths.json",
        help="objective mode: prior-PR benchmark file to compare the "
        "tabu-phase wall-clock against",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one cached solve and print the top-25 "
        "cumulative-time entries instead of benchmarking",
    )
    args = parser.parse_args(argv)

    scale = _SMOKE_SCALE if args.smoke else args.scale

    if args.profile:
        _profile_solve(args.dataset, scale, args.seed, args.combo)
        return 0

    if args.scaling:
        result = run_scaling(
            datasets=tuple(
                part.strip()
                for part in args.datasets.split(",")
                if part.strip()
            ),
            scale=scale,
            rng_seed=args.seed,
            workload=args.workload,
        )
        if args.perf_baseline:
            result["perf_gate"] = compare_perf_to_baseline(
                result, read_bench_record(args.perf_baseline)
            )
    elif args.objective:
        n_jobs_grid = tuple(
            int(part) for part in args.jobs.split(",") if part.strip()
        )
        result = run_objective(
            dataset=args.dataset,
            scale=scale,
            rng_seed=args.seed,
            combo=args.combo,
            n_jobs_grid=n_jobs_grid,
            tabu_portfolio=args.portfolio,
            baseline_path=args.baseline,
        )
    else:
        result = run_micro(
            dataset=args.dataset,
            scale=scale,
            rng_seed=args.seed,
            combo=args.combo,
            micro_ops=not args.smoke,
        )

    payload = json.dumps(_strip_labels(result), indent=2, sort_keys=True)
    if args.output:
        # Atomic: a watchdog kill mid-write must not truncate a
        # checked-in BENCH_*.json.
        atomic_write_text(args.output, payload + "\n")
    print(payload)

    if args.scaling:
        timings = ", ".join(
            f"{name}: tabu {block['run']['tabu_seconds']}s"
            for name, block in result["datasets"].items()
        )
        print(f"OK: {timings}", file=sys.stderr)
        gate = result.get("perf_gate")
        if gate is not None:
            for entry in gate["comparisons"]:
                print(
                    f"perf-gate {entry['verdict']}: "
                    f"{entry['dataset']} "
                    f"{entry['metric']} {entry['current']} "
                    f"(baseline {entry['baseline']})",
                    file=sys.stderr,
                )
            if not gate["baseline_found"]:
                print(
                    "perf-gate NEUTRAL: no usable baseline at "
                    f"{args.perf_baseline}",
                    file=sys.stderr,
                )
            if gate["overall"] == "REGRESSION":
                print(
                    "FAIL: perf gate regressed against "
                    f"{args.perf_baseline}",
                    file=sys.stderr,
                )
                return 3
            print(f"perf-gate overall: {gate['overall']}", file=sys.stderr)
        return 0

    if not result["identical"]:
        print(
            "FAIL: cached and uncached runs diverged — the hot-path "
            "caches changed solver behaviour",
            file=sys.stderr,
        )
        return 2
    if args.objective:
        if not result["n_jobs_invariant"]:
            print(
                "FAIL: portfolio results differ across n_jobs — worker "
                "execution changed solver behaviour",
                file=sys.stderr,
            )
            return 2
        speedup_note = (
            f"tabu speedup vs PR2 baseline {result['tabu_speedup_vs_baseline']}x"
            if result["tabu_speedup_vs_baseline"] is not None
            else "no baseline file for tabu speedup comparison"
        )
        print(
            "OK: identical output, n_jobs-invariant portfolio; delta "
            f"fast-path rate {result['delta_fastpath_rate']:.2%}, "
            f"tabu speedup vs reference path "
            f"{result['tabu_speedup_vs_uncached']}x, {speedup_note}",
            file=sys.stderr,
        )
        return 0
    print(
        f"OK: identical output; speedup {result['speedup']}x, "
        f"full-BFS check reduction {result['bfs_check_reduction']}x, "
        f"graph-traversal reduction {result['traversal_reduction']}x",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
