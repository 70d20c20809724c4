"""Scaling and profiling harness for the FaCT solver.

Two modes share the dataset/seed options:

- ``--scaling`` (:func:`run_scaling`) solves each dataset of the
  registry sweep (2k/10k/25k/50k by default) once and reports the
  per-phase wall-clock and hot-path counters — the full-scale run
  produces the checked-in ``BENCH_scaling.json``. With
  ``--perf-baseline`` the run's oracle-rebuild and candidate-
  evaluation rates are additionally graded WIN / NEUTRAL /
  REGRESSION against a checked-in record (exit 3 on REGRESSION);
- ``--profile`` wraps one solve in :mod:`cProfile` and prints the top
  cumulative-time entries — the optimization worklist.

``--smoke`` shrinks the dataset scale so CI can run either mode in
seconds. The cached hot paths' identity with their recompute-from-
scratch reference semantics is a test-suite property
(``tests/oracles/hotpath_reference.py``), not a harness mode.
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
from ..data.datasets import load_dataset
from ..fact.solver import FaCT
from ..obs.progress import scaling_row
from ..obs.telemetry import SolveTelemetry
from ..runtime.atomic import atomic_write_text
from .runner import BENCH_SCHEMA_VERSION, bench_config
from .workloads import combo_constraints, enriched_constraints

__all__ = [
    "compare_perf_to_baseline",
    "read_bench_record",
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
# before its rate means anything — a sub-minimum run (e.g. a --smoke
# run at scale 0.08, whose tabu phase barely moves) reports the
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


def _solve_scaling_once(
    collection: AreaCollection,
    constraints: ConstraintSet,
    rng_seed: int,
) -> dict:
    """One solve of the scaling sweep."""
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
    """cProfile one solve and print the *top* cumulative-time entries
    (the optimization worklist view)."""
    import cProfile
    import io
    import pstats

    collection = load_dataset(dataset, scale=scale)
    constraints = combo_constraints(combo)
    config = bench_config(len(collection), rng_seed=rng_seed, enable_tabu=True)
    profiler = cProfile.Profile()
    profiler.enable()
    FaCT(config).solve(collection, constraints)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    print(stream.getvalue())


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench micro",
        description=(
            "Scaling sweep (--scaling) or cProfile breakdown (--profile) "
            "of FaCT solves."
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
        help=f"CI mode: shrink the dataset to scale {_SMOKE_SCALE}",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON result here (default: stdout only)",
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
        "--profile",
        action="store_true",
        help="cProfile one solve and print the top-25 "
        "cumulative-time entries instead of benchmarking",
    )
    args = parser.parse_args(argv)
    if not (args.scaling or args.profile):
        parser.error("choose a mode: --scaling or --profile")

    scale = _SMOKE_SCALE if args.smoke else args.scale

    if args.profile:
        _profile_solve(args.dataset, scale, args.seed, args.combo)
        return 0

    result = run_scaling(
        datasets=tuple(
            part.strip() for part in args.datasets.split(",") if part.strip()
        ),
        scale=scale,
        rng_seed=args.seed,
        workload=args.workload,
    )
    if args.perf_baseline:
        result["perf_gate"] = compare_perf_to_baseline(
            result, read_bench_record(args.perf_baseline)
        )

    payload = json.dumps(result, indent=2, sort_keys=True)
    if args.output:
        # Atomic: a watchdog kill mid-write must not truncate a
        # checked-in BENCH_*.json.
        atomic_write_text(args.output, payload + "\n")
    print(payload)

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
                f"FAIL: perf gate regressed against {args.perf_baseline}",
                file=sys.stderr,
            )
            return 3
        print(f"perf-gate overall: {gate['overall']}", file=sys.stderr)
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
