"""Paired comparison of two sets of benchmark runs: parent vs change.

Usage (from the repository root)::

    # run N pairs, alternating which side goes first, then report
    python3 benchmarks/e2e/compare.py run PARENT_ROOT CHANGE_ROOT \\
        --workload mas-10k --pairs 10 --out DIR
    # report on records already written with run.py --output
    python3 benchmarks/e2e/compare.py report PARENT_DIR CHANGE_DIR
    # median and quartiles of one set (the baseline in baseline.json)
    python3 benchmarks/e2e/compare.py summarize DIR

``run`` executes each checkout's own ``benchmarks/e2e/run.py`` with the
same seeds and run length on both sides. ``report`` prints one row per
(workload, end-to-end metric) with each side's median and quartiles,
the change's win fraction over runs paired by seed, and a label:

- REGRESSION: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- IMPROVED: the change wins at least 9 of 10 pairs (ties count for
  neither) and the medians differ by more than the parent's
  interquartile range;
- UNRESOLVED: either side's interquartile range, as a share of its
  median, is wider than the bound, and not every change run reads
  better than every parent run;
- NEUTRAL: anything else.

A ``failed`` row compares failed operations; more failures on the
change side is a REGRESSION. Censored runs are counted and never mixed
into the statistics. ``report`` exits 1 when any row is a REGRESSION.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

WIN_FRACTION = 0.9


def load_records(directory) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _share(value: float, base: float) -> float:
    if base:
        return value / abs(base)
    return 0.0 if value == 0 else math.inf


def classify(parent, change, pairs, better: str, bound: float) -> dict:
    """Label one metric; *pairs* are (parent, change) values of one seed."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * _share(c_med - p_med, p_med)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    spread = max(_share(p_q3 - p_q1, p_med), _share(c_q3 - c_q1, c_med))
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if worse > bound:
        label = "REGRESSION"
    elif (
        worse < 0
        and win_fraction >= WIN_FRACTION
        and abs(c_med - p_med) > p_q3 - p_q1
    ):
        label = "IMPROVED"
    elif spread > bound and not all_better:
        label = "UNRESOLVED"
    else:
        label = "NEUTRAL"
    return {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "worse_share": worse,
        "win_fraction": win_fraction,
        "spread": spread,
        "label": label,
    }


def report(parent_records, change_records, catalogue) -> list[dict]:
    """One row per (workload, metric) plus a ``failed`` row per workload."""
    rows = []
    workloads = sorted(
        {r["workload"] for r in parent_records}
        | {r["workload"] for r in change_records}
    )
    for workload in workloads:
        sides = []
        for records in (parent_records, change_records):
            mine = [r for r in records if r["workload"] == workload]
            measured = {r["seed"]: r for r in mine if r["status"] == "measured"}
            censored = len(mine) - len(measured)
            sides.append((measured, censored, sum(r["failed"] for r in mine)))
        (parent, p_censored, p_failed), (change, c_censored, c_failed) = sides
        for entry in catalogue["end_to_end"]:
            name = entry["name"]
            p_values = [r["e2e"][name] for r in parent.values() if name in r["e2e"]]
            c_values = [r["e2e"][name] for r in change.values() if name in r["e2e"]]
            if not p_values or not c_values:
                continue
            pairs = [
                (parent[seed]["e2e"][name], change[seed]["e2e"][name])
                for seed in sorted(set(parent) & set(change))
                if name in parent[seed]["e2e"] and name in change[seed]["e2e"]
            ]
            row = classify(
                p_values, c_values, pairs, entry["better"], entry["bound"]
            )
            row.update(workload=workload, metric=name, unit=entry["unit"],
                       bound=entry["bound"], runs=(len(p_values), len(c_values)))
            rows.append(row)
        rows.append({
            "workload": workload,
            "metric": "failed",
            "failed": (p_failed, c_failed),
            "censored": (p_censored, c_censored),
            "label": "REGRESSION" if c_failed > p_failed else "NEUTRAL",
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = []
    for row in rows:
        head = f"{row['workload']:<15} {row['metric']:<20}"
        if row["metric"] == "failed":
            lines.append(
                f"{head} parent {row['failed'][0]} change {row['failed'][1]} "
                f"(censored runs {row['censored'][0]}/{row['censored'][1]})"
                f"  {row['label']}"
            )
            continue
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        lines.append(
            f"{head} parent {p_med:.6g} [{p_q1:.6g}, {p_q3:.6g}]"
            f"  change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] {row['unit']}"
            f"  worse {100 * row['worse_share']:+.1f}% (bound"
            f" {100 * row['bound']:.0f}%)  spread {100 * row['spread']:.1f}%"
            f"  wins {row['win_fraction']:.2f}  n={row['runs'][0]}/{row['runs'][1]}"
            f"  {row['label']}"
        )
    return lines


def summarize(records: list[dict], catalogue: dict) -> dict:
    """Median, quartiles and spread of every end-to-end metric and of
    the run wall time, per workload, over the measured runs."""
    summary = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records
                if r["workload"] == workload and r["status"] == "measured"]
        entry = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs)}
        series = {"run_wall_s": [r["wall_s"] for r in runs]}
        for metric in catalogue["end_to_end"]:
            series[metric["name"]] = [
                r["e2e"][metric["name"]] for r in runs if metric["name"] in r["e2e"]
            ]
        for name, values in series.items():
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            entry[name] = {"median": median, "q1": q1, "q3": q3,
                           "iqr_share": _share(q3 - q1, median)}
        summary[workload] = entry
    return summary


def run_pairs(parent_root, change_root, workload, pairs, first_seed,
              seconds, out) -> None:
    """Run *pairs* pairs; the side that runs first alternates."""
    sides = {"parent": Path(parent_root).resolve(),
             "change": Path(change_root).resolve()}
    for side in sides:
        (Path(out) / side).mkdir(parents=True, exist_ok=True)
    for index in range(pairs):
        seed = first_seed + index
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            output = (Path(out) / side / f"{workload}-{seed}.json").resolve()
            subprocess.run(
                [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--output", str(output)],
                cwd=sides[side],
                stdout=subprocess.DEVNULL,
                check=False,
            )
            print(f"{side} {workload} seed {seed} done", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/compare.py")
    commands = parser.add_subparsers(dest="command", required=True)
    run_cmd = commands.add_parser("run", help="run paired benchmark runs")
    run_cmd.add_argument("parent_root")
    run_cmd.add_argument("change_root")
    run_cmd.add_argument("--workload", required=True)
    run_cmd.add_argument("--pairs", type=int, default=10)
    run_cmd.add_argument("--first-seed", type=int, default=1)
    run_cmd.add_argument("--seconds", type=int, default=20)
    run_cmd.add_argument("--out", required=True)
    report_cmd = commands.add_parser("report", help="compare two record sets")
    report_cmd.add_argument("parent_dir")
    report_cmd.add_argument("change_dir")
    summarize_cmd = commands.add_parser("summarize", help="median/IQR of a set")
    summarize_cmd.add_argument("directory")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        catalogue = json.load(handle)
    if args.command == "summarize":
        print(json.dumps(summarize(load_records(args.directory), catalogue),
                         indent=1, sort_keys=True))
        return 0
    if args.command == "run":
        run_pairs(args.parent_root, args.change_root, args.workload,
                  args.pairs, args.first_seed, args.seconds, args.out)
        parent_dir = Path(args.out) / "parent"
        change_dir = Path(args.out) / "change"
    else:
        parent_dir, change_dir = args.parent_dir, args.change_dir
    rows = report(load_records(parent_dir), load_records(change_dir), catalogue)
    for line in format_rows(rows):
        print(line)
    return 1 if any(row["label"] == "REGRESSION" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
