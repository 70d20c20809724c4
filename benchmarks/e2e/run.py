"""End-to-end benchmark of FaCT and the solve service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload enriched-2k --seed 7
    python3 benchmarks/e2e/run.py --workload mas-10k --seed 7 --trace 1
    python3 benchmarks/e2e/run.py --workload service-stream --output out.json

One run executes one workload from a fresh process and prints one
``workload metric value unit`` line per metric, a ``digest`` line per
solve or job, and, as its last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` (default)
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the same inputs with timing wrappers installed and reports the
per-layer metrics instead (and writes ``.bench_e2e/trace.json``).

Exit status: 0 for a correct run, 1 when any output failed its check,
2 when this checkout holds no ``src/repro`` to benchmark, 3 when the
run outlived its watchdog (5x the recorded baseline run time) and was
censored.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from workloads import (
    HERE,
    ROOT,
    SOLVERS,
    WORK,
    WORKLOADS,
    Censored,
    run_service,
    run_solver,
    service_counts,
    solver_count,
)

# A run must end well inside the 180 s a single run may take.
_WATCHDOG_CAP_S = 170.0
_WATCHDOG_FACTOR = 5.0


def load_catalogue() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def watchdog_seconds(workload: str) -> float:
    """5x the baseline median run time, capped for the 180 s limit."""
    try:
        with open(HERE / "baseline.json", encoding="utf-8") as handle:
            baseline = json.load(handle)["workloads"][workload]["run_wall_s"]
    except (OSError, KeyError, ValueError):
        return _WATCHDOG_CAP_S
    return min(_WATCHDOG_FACTOR * baseline["median"], _WATCHDOG_CAP_S)


def execute(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload at the size *seconds* implies; returns a record."""
    started = time.monotonic()
    deadline = started + watchdog_seconds(workload)
    try:
        if workload in SOLVERS:
            result = run_solver(
                workload, seed, solver_count(workload, seconds), trace,
                deadline=deadline,
            )
        else:
            open_jobs, drain_jobs = service_counts(seconds)
            result = run_service(
                seed, open_jobs, drain_jobs, trace, deadline=deadline
            )
        status = "measured"
    except Censored as error:
        result = {"attempted": 1, "failed": 1, "errors": [str(error)],
                  "digests": [], "e2e": {}}
        status = "censored"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "status": status,
        "wall_s": time.monotonic() - started,
        **result,
    }


def render(record: dict, catalogue: dict) -> tuple[list[str], dict]:
    """The metric lines and the final JSON object of one run record.

    Metrics come out in catalogue order with the catalogue's units; a
    metric the run could not produce is left out.
    """
    section = "per_layer" if record["trace"] else "end_to_end"
    values = record.get("layers" if record["trace"] else "e2e") or {}
    workload = record["workload"]
    lines = [f"digest {workload} {index} {digest}"
             for index, digest in enumerate(record["digests"])]
    metrics = {}
    for entry in catalogue[section]:
        name = entry["name"]
        if name not in values:
            continue
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        lines.append(f"{workload} {name} {values[name]!r} {entry['unit']}")
    for name in record.get("untraced", []):
        lines.append(f"untraced {workload} {name}")
    correct = record["status"] == "measured" and record["failed"] == 0
    summary = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    return lines, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20,
                        help="measured seconds per run; sets the solve/job count")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--output", metavar="FILE",
                        help="also write the full run record as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    for name in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(ROOT / "src"))

    record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    lines, summary = render(record, load_catalogue())
    for line in lines:
        print(line)
    for error in record["errors"]:
        print(f"error {args.workload} {error}", file=sys.stderr)
    if record["trace"] and record["status"] == "measured":
        WORK.mkdir(exist_ok=True)
        with open(WORK / "trace.json", "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "processes": record.pop("traces")}, handle)
    record.pop("traces", None)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps(summary))
    if record["status"] == "censored":
        return 3
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
