"""Tests of the end-to-end benchmark, at reduced size.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import pytest

import compare
import run
import tracing
import workloads

SEED = 3


def _run(workload: str, trace: bool) -> dict:
    """One reduced run of *workload*, as a run.py record."""
    if workload in workloads.SOLVERS:
        scale = 0.1 if workload == "enriched-2k" else 0.02
        result = workloads.run_solver(workload, SEED, 1, trace, scale=scale)
    else:
        result = workloads.run_service(
            SEED, open_jobs=4, drain_jobs=2, trace=trace, rate=20.0, setups=1
        )
    return {"workload": workload, "seed": SEED, "trace": trace,
            "status": "measured", **result}


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def runs(request):
    return {trace: _run(request.param, trace) for trace in (False, True)}


def test_every_metric_prints_with_its_unit(runs):
    catalogue = run.load_catalogue()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = runs[trace]
        assert record["failed"] == 0, record["errors"]
        lines, summary = run.render(record, catalogue)
        assert summary["correct"]
        for entry in catalogue[section]:
            prefix = f"{record['workload']} {entry['name']} "
            line = next(line for line in lines if line.startswith(prefix))
            assert line.endswith(f" {entry['unit']}")
            assert summary["metrics"][entry["name"]]["unit"] == entry["unit"]
        assert set(summary["metrics"]) == {e["name"] for e in catalogue[section]}
        assert record.get("untraced", []) == []


def test_traced_and_untraced_runs_give_identical_partitions(runs):
    assert runs[True]["digests"] == runs[False]["digests"]
    assert runs[False]["digests"]


def test_missing_wrapper_target_is_reported_untraced(monkeypatch):
    import repro.fact.portfolio

    monkeypatch.delattr(repro.fact.portfolio, "tabu_improve")
    trace = tracing.Trace().install()
    try:
        assert "fact.tabu" in trace.untraced
    finally:
        trace.uninstall()
    extra = {"ops": 1, "perf": {}}
    result = workloads.layer_metrics([trace.as_dict()], extra)
    assert "fact.tabu" in result["untraced"]
    assert "perf.vector_derives" in result["untraced"]
    for name in ("fact.tabu.s", "fact.tabu.iterations", "perf.vector_derives"):
        assert name not in result["layers"]
    assert "fact.construction.s" in result["layers"]


def test_from_labels_works_under_its_wrapper():
    import repro
    from repro.fact.state import SolutionState

    collection = repro.load_dataset("2k", scale=0.02, seed=SEED)
    constraints = repro.ConstraintSet([repro.sum_constraint("TOTALPOP", lower=20000)])
    labels = repro.solve_emp(collection, constraints, rng_seed=SEED).partition.labels()
    expected = SolutionState.from_labels(collection, constraints, labels)

    class Derived(SolutionState):
        pass

    trace = tracing.Trace().install()
    try:
        via_class = SolutionState.from_labels(collection, constraints, labels)
        via_instance = expected.from_labels(collection, constraints, labels)
        via_subclass = Derived.from_labels(collection, constraints, labels)
    finally:
        trace.uninstall()
    for state in (via_class, via_instance, via_subclass):
        assert state.to_partition().labels() == expected.to_partition().labels()
    assert type(via_subclass) is Derived
    assert trace.aggregate[("fact.state.from_labels", None)][0] == 3


def test_a_run_past_its_watchdog_is_censored(monkeypatch):
    monkeypatch.setattr(run, "watchdog_seconds", lambda workload: 0.0)
    record = run.execute("enriched-2k", SEED, 5, trace=False)
    assert record["status"] == "censored"
    _, summary = run.render(record, run.load_catalogue())
    assert not summary["correct"] and summary["metrics"] == {}


def _records(solve_s: list[float]) -> list[dict]:
    return [
        {"workload": "mas-10k", "seed": seed, "status": "measured", "failed": 0,
         "e2e": {"solve_s": value, "p_total": 4000}}
        for seed, value in enumerate(solve_s)
    ]


def _labels(parent, change, solve_bound=None) -> dict:
    catalogue = run.load_catalogue()
    for entry in catalogue["end_to_end"]:
        if entry["name"] == "solve_s" and solve_bound is not None:
            entry["bound"] = solve_bound
    rows = compare.report(_records(parent), _records(change), catalogue)
    return {row["metric"]: row["label"] for row in rows}


PARENT = [20.0 + 0.05 * (i % 5) for i in range(10)]


def test_compare_calls_a_twenty_percent_slowdown_a_regression():
    slower = [1.2 * value for value in PARENT]
    labels = _labels(PARENT, slower, solve_bound=0.1)
    assert labels["solve_s"] == "REGRESSION"
    assert labels["p_total"] == "NEUTRAL"
    # The same slowdown inside the metric's bound is not a regression.
    assert _labels(PARENT, slower, solve_bound=0.25)["solve_s"] == "NEUTRAL"


def test_compare_calls_a_consistent_speedup_improved():
    labels = _labels(PARENT, [0.9 * value for value in PARENT])
    assert labels["solve_s"] == "IMPROVED"


def test_compare_calls_identical_sets_neutral():
    labels = _labels(PARENT, list(PARENT))
    assert set(labels.values()) == {"NEUTRAL"}
