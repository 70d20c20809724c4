"""Telemetry threaded through full FaCT solves.

The two headline properties:

- the span tree is *connected* regardless of worker count — one root
  ``solve`` span, every worker span stitched under it, no orphans, no
  unclosed spans — and the event log passes structural validation;
- telemetry never influences the solver: the partition is bit-identical
  with telemetry on or off.

Plus chaos coverage: a fault injected at any registered checkpoint
lands in the event log as a ``fault.injected`` record while the log
stays structurally valid, and a resumed run records its ledger replays.
"""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet
from repro.data.schema import default_constraints
from repro.fact import FaCT, FaCTConfig
from repro.obs import (
    SolveTelemetry,
    final_metrics_snapshot,
    read_events,
    span_records,
    validate_events,
)
from repro.runtime import CHECKPOINTS, FaultInjector, RunStatus, inject


@pytest.fixture
def constraints() -> ConstraintSet:
    return ConstraintSet(default_constraints())


def _traced_solve(census, constraints, tmp_path, n_jobs=1, **overrides):
    trace = tmp_path / f"trace-{n_jobs}.jsonl"
    config = FaCTConfig(
        rng_seed=3,
        n_jobs=n_jobs,
        tabu_portfolio=2,
        trace_path=str(trace),
        **overrides,
    )
    solution = FaCT(config).solve(census, constraints)
    return solution, read_events(str(trace))


class TestSpanTree:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_one_connected_tree_at_any_worker_count(
        self, tiny_census, constraints, tmp_path, n_jobs
    ):
        solution, events = _traced_solve(
            tiny_census, constraints, tmp_path, n_jobs=n_jobs
        )
        assert solution.status is RunStatus.COMPLETE
        assert validate_events(events) == []
        spans = span_records(events)
        roots = [s for s in spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["solve"]
        assert {s["trace_id"] for s in spans} == {roots[0]["trace_id"]}

    def test_parallel_spans_come_from_worker_processes(
        self, tiny_census, constraints, tmp_path
    ):
        _solution, events = _traced_solve(
            tiny_census, constraints, tmp_path, n_jobs=2
        )
        pids = {s["pid"] for s in span_records(events)}
        assert len(pids) > 1  # worker spans stitched into the trace

    def test_span_taxonomy_present(self, tiny_census, constraints, tmp_path):
        _solution, events = _traced_solve(
            tiny_census, constraints, tmp_path
        )
        names = {s["name"] for s in span_records(events)}
        assert names >= {
            "solve",
            "feasibility",
            "construction",
            "attempt",
            "pass",
            "grow",
            "enclave",
            "extrema",
            "adjust",
            "tabu",
            "member",
            "search",
        }

    def test_identical_span_counts_across_worker_counts(
        self, tiny_census, constraints, tmp_path
    ):
        counts = set()
        for n_jobs in (1, 2, 4):
            _solution, events = _traced_solve(
                tiny_census, constraints, tmp_path, n_jobs=n_jobs
            )
            counts.add(len(span_records(events)))
        assert len(counts) == 1  # same work, same trace shape


class TestBitIdentity:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_partition_identical_with_telemetry_on_and_off(
        self, tiny_census, constraints, tmp_path, n_jobs
    ):
        solution, events = _traced_solve(
            tiny_census, constraints, tmp_path, n_jobs=n_jobs
        )
        # The traced run emitted progress events — the identity below
        # therefore also covers the progress/ETA telemetry path.
        assert any(e["kind"] == "progress" for e in events)
        bare = FaCT(
            FaCTConfig(rng_seed=3, n_jobs=n_jobs, tabu_portfolio=2)
        ).solve(tiny_census, constraints)
        assert solution.partition.labels() == bare.partition.labels()
        assert solution.heterogeneity == bare.heterogeneity  # bitwise

    def test_partition_identical_with_progress_muted(
        self, tiny_census, constraints, tmp_path, monkeypatch
    ):
        # verbosity 0 silences progress emission entirely; the solve
        # must not notice (emission decides whether to WRITE an event,
        # never a solver decision).
        loud, loud_events = _traced_solve(tiny_census, constraints, tmp_path)
        assert any(e["kind"] == "progress" for e in loud_events)
        quiet_dir = tmp_path / "quiet"
        quiet_dir.mkdir()
        monkeypatch.setenv("REPRO_TRACE_VERBOSITY", "0")
        quiet, quiet_events = _traced_solve(
            tiny_census, constraints, quiet_dir
        )
        assert not any(e["kind"] == "progress" for e in quiet_events)
        assert loud.partition.labels() == quiet.partition.labels()
        assert loud.heterogeneity == quiet.heterogeneity  # bitwise


class TestRunArtifacts:
    def test_metrics_snapshot_and_file(self, tiny_census, constraints,
                                       tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        solution, events = _traced_solve(
            tiny_census,
            constraints,
            tmp_path,
            metrics_path=str(metrics_path),
        )
        snapshot = final_metrics_snapshot(events)
        assert snapshot is not None
        phase_keys = [
            key for key in snapshot["counters"]
            if key.startswith("phase_seconds{")
        ]
        assert phase_keys  # the solver's per-phase wall clock
        assert "# TYPE repro_phase_seconds counter" in (
            metrics_path.read_text()
        )

    def test_run_end_carries_final_status(self, tiny_census, constraints,
                                          tmp_path):
        _solution, events = _traced_solve(tiny_census, constraints, tmp_path)
        end = [e for e in events if e["kind"] == "run.end"]
        assert len(end) == 1
        assert end[0]["status"] == "complete"
        assert end[0]["open_spans"] == []

    def test_in_memory_telemetry_needs_no_paths(self, tiny_census,
                                                constraints):
        telemetry = SolveTelemetry()
        FaCT(FaCTConfig(rng_seed=3)).solve(
            tiny_census, constraints, telemetry=telemetry
        )
        summary = telemetry.summary()
        assert summary["total_spans"] > 0
        assert "construction" in summary["phase_seconds"]


@pytest.mark.chaos
class TestFaultInjectionEvents:
    def _config(self, tmp_path, trace) -> FaCTConfig:
        # Mirrors the chaos suite's resilient config: certification and
        # a checkpoint path make every registered checkpoint reachable.
        return FaCTConfig(
            rng_seed=3,
            certify="final",
            checkpoint_path=str(tmp_path / "solve.ckpt.json"),
            trace_path=str(trace),
        )

    @pytest.mark.parametrize("checkpoint", CHECKPOINTS)
    def test_fault_at_any_checkpoint_lands_in_event_log(
        self, small_census, constraints, checkpoint, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        injector = FaultInjector().cancel(checkpoint)
        with inject(injector):
            solution = FaCT(self._config(tmp_path, trace)).solve(
                small_census, constraints
            )
        assert solution.status is RunStatus.CANCELLED
        events = read_events(str(trace))
        assert validate_events(events) == []
        faults = [e for e in events if e["kind"] == "fault.injected"]
        assert faults and faults[0]["checkpoint"] == checkpoint
        assert faults[0]["action"] == "cancel"
        interrupted = [e for e in events if e["kind"] == "run.interrupted"]
        assert interrupted and interrupted[0]["status"] == "cancelled"
        ends = [e for e in events if e["kind"] == "run.end"]
        assert ends[-1]["status"] == "cancelled"

    def test_crash_fault_closes_log_with_error_status(
        self, tiny_census, constraints, tmp_path
    ):
        from repro.runtime import InjectedFault

        trace = tmp_path / "trace.jsonl"
        injector = FaultInjector().fail("construction.grow.enclave")
        with inject(injector):
            with pytest.raises(InjectedFault):
                FaCT(
                    FaCTConfig(rng_seed=3, trace_path=str(trace))
                ).solve(tiny_census, constraints)
        events = read_events(str(trace))
        assert any(e["kind"] == "fault.injected" for e in events)
        ends = [e for e in events if e["kind"] == "run.end"]
        assert ends and ends[-1]["status"] == "error"

    def test_fault_listener_restored_after_solve(
        self, tiny_census, constraints, tmp_path
    ):
        from repro.runtime.faults import set_fault_listener

        sentinel = lambda *args: None  # noqa: E731
        previous = set_fault_listener(sentinel)
        try:
            _traced_solve(tiny_census, constraints, tmp_path)
            assert set_fault_listener(sentinel) is sentinel
        finally:
            set_fault_listener(previous)

    def test_resume_records_checkpoint_replays(
        self, tiny_census, constraints, tmp_path
    ):
        import os

        config = FaCTConfig(
            rng_seed=5,
            checkpoint_path=str(tmp_path / "solve.ckpt.json"),
        )
        injector = FaultInjector().cancel("tabu.iteration", on_visit=5)
        with inject(injector):
            FaCT(config).solve(tiny_census, constraints)
        assert os.path.exists(config.checkpoint_path)

        trace = tmp_path / "resume.jsonl"
        resumed_config = FaCTConfig(
            rng_seed=5,
            checkpoint_path=config.checkpoint_path,
            trace_path=str(trace),
        )
        resumed = FaCT(resumed_config).solve(
            tiny_census, constraints, resume_from=config.checkpoint_path
        )
        assert resumed.status is RunStatus.COMPLETE
        assert resumed.perf.checkpoint_replays >= 1
        events = read_events(str(trace))
        assert validate_events(events) == []
        replays = [e for e in events if e["kind"] == "checkpoint.replay"]
        assert replays and replays[0]["phase"] == "construction"
