"""Checkpoint/resume: kill a solve at an arbitrary snapshot boundary,
resume from the checkpoint file, and demand a partition bit-identical
to an uninterrupted run with the same seed — at any worker count.

Also covers the SolveLedger's refusal modes (missing file, garbage,
foreign fingerprint) and the atomic-write primitive everything rests
on.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import ConstraintSet
from repro.data.schema import default_constraints
from repro.exceptions import CheckpointError
from repro.fact import FaCT, FaCTConfig, SolveLedger
from repro.runtime import FaultInjector, InjectedFault, RunStatus, inject
from repro.runtime.atomic import atomic_write_text

pytestmark = pytest.mark.chaos


@pytest.fixture
def constraints() -> ConstraintSet:
    return ConstraintSet(default_constraints())


def _config(tmp_path, **overrides) -> FaCTConfig:
    options = dict(
        rng_seed=5,
        checkpoint_path=str(tmp_path / "solve.ckpt.json"),
    )
    options.update(overrides)
    return FaCTConfig(**options)


class TestAtomicWrite:
    def test_atomic_write_replaces_content(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "first")
        atomic_write_text(target, "second")
        assert target.read_text() == "second"

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "payload")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_preserves_previous_file(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(target, "survivor")

        class Hostile:
            def __str__(self):
                raise RuntimeError("boom mid-serialization")

        with pytest.raises(TypeError):
            atomic_write_text(target, Hostile())
        assert target.read_text() == "survivor"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestLedgerRefusals:
    def test_missing_checkpoint_file_raises(self, tiny_census, constraints,
                                            tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            FaCT(_config(tmp_path)).solve(
                tiny_census, constraints,
                resume_from=str(tmp_path / "nope.json"),
            )

    def test_garbage_checkpoint_file_raises(self, tiny_census, constraints,
                                            tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            SolveLedger.load(bad, _config(tmp_path), constraints, tiny_census)

    def test_wrong_format_version_raises(self, tiny_census, constraints,
                                         tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "repro-solve-checkpoint/999"}))
        with pytest.raises(CheckpointError, match="unsupported format"):
            SolveLedger.load(bad, _config(tmp_path), constraints, tiny_census)

    def test_foreign_fingerprint_raises_and_names_the_mismatch(
        self, tiny_census, constraints, tmp_path
    ):
        # Write a checkpoint under seed 5, try to resume under seed 6:
        # splicing seed-5 work units into a seed-6 run would silently
        # produce a partition belonging to *neither* run.
        config = _config(tmp_path)
        injector = FaultInjector().cancel("tabu.iteration")
        with inject(injector):
            FaCT(config).solve(tiny_census, constraints)
        assert os.path.exists(config.checkpoint_path)
        with pytest.raises(CheckpointError, match="rng_seed"):
            FaCT(_config(tmp_path, rng_seed=6)).solve(
                tiny_census, constraints,
                resume_from=config.checkpoint_path,
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tabu_tenure", 1),
            ("tabu_max_no_improve", 2),
            ("tabu_max_iterations", 1),
            ("strict_avg_feasibility", True),
            ("degenerate_unassigned_ratio", 0.5),
        ],
    )
    def test_changed_tabu_knob_refuses_resume(
        self, tiny_census, constraints, tmp_path, key, value
    ):
        # Each knob steers the construction outcome or the Tabu
        # trajectory: replaying units recorded under the old value
        # would return the old run's answer.
        config = _config(tmp_path, checkpoint_keep_on_complete=True)
        FaCT(config).solve(tiny_census, constraints)
        assert os.path.exists(config.checkpoint_path)
        with pytest.raises(CheckpointError, match=key):
            FaCT(_config(tmp_path, **{key: value})).solve(
                tiny_census, constraints,
                resume_from=config.checkpoint_path,
            )

    def test_changed_objective_refuses_resume(
        self, tiny_census, constraints, tmp_path
    ):
        # Units recorded under H(P) replayed into a compactness solve
        # would return the heterogeneity run's partition.
        from repro.fact.objectives import CompactnessObjective

        config = _config(tmp_path, checkpoint_keep_on_complete=True)
        FaCT(config).solve(tiny_census, constraints)
        assert os.path.exists(config.checkpoint_path)
        with pytest.raises(CheckpointError, match="CompactnessObjective"):
            FaCT(_config(tmp_path), objective=CompactnessObjective()).solve(
                tiny_census, constraints,
                resume_from=config.checkpoint_path,
            )


class TestCheckpointLifecycle:
    def test_complete_solve_deletes_its_checkpoint(self, tiny_census,
                                                   constraints, tmp_path):
        config = _config(tmp_path)
        solution = FaCT(config).solve(tiny_census, constraints)
        assert solution.status is RunStatus.COMPLETE
        assert not os.path.exists(config.checkpoint_path)
        assert solution.perf.checkpoint_writes > 0

    def test_interrupted_solve_keeps_its_checkpoint(self, tiny_census,
                                                    constraints, tmp_path):
        config = _config(tmp_path)
        injector = FaultInjector().cancel("tabu.iteration")
        with inject(injector):
            solution = FaCT(config).solve(tiny_census, constraints)
        assert solution.status is RunStatus.CANCELLED
        assert os.path.exists(config.checkpoint_path)
        payload = json.loads(open(config.checkpoint_path).read())
        assert payload["format"] == "repro-solve-checkpoint/1"
        assert payload["units"]  # completed construction passes recorded
        assert payload["consumed_seconds"] >= 0.0

    def test_checkpoint_file_is_always_parseable_json(self, tiny_census,
                                                      constraints, tmp_path):
        # Atomic rewrites mean the on-disk file is a complete snapshot
        # at every instant a snapshot exists at all; simulate "crash at
        # the write boundary" at every ordinal and re-parse.
        config = _config(tmp_path)
        visit = 1
        while True:
            injector = FaultInjector().fail("checkpoint.write",
                                            on_visit=visit)
            try:
                with inject(injector):
                    FaCT(config).solve(tiny_census, constraints)
            except InjectedFault:
                # The fault fires *before* the write — at visit 1 no
                # file exists yet; from visit 2 on it must parse whole.
                if visit > 1:
                    json.loads(open(config.checkpoint_path).read())
                visit += 1
                continue
            break  # solve outran the fault ordinal: every write seen
        assert visit > 2


class TestBitIdenticalResume:
    # The checkpoint.write fault fires before the write, so ordinal k
    # kills a run whose file holds exactly k-1 completed units.
    @pytest.mark.parametrize("kill_at_visit", [2, 3])
    def test_kill_at_any_snapshot_then_resume_matches_reference(
        self, tiny_census, constraints, tmp_path, kill_at_visit
    ):
        reference = FaCT(FaCTConfig(rng_seed=5)).solve(
            tiny_census, constraints
        )

        config = _config(tmp_path)
        injector = FaultInjector().fail("checkpoint.write",
                                        on_visit=kill_at_visit)
        with pytest.raises(InjectedFault):
            with inject(injector):
                FaCT(config).solve(tiny_census, constraints)
        assert os.path.exists(config.checkpoint_path)

        resumed = FaCT(config).solve(
            tiny_census, constraints, resume_from=config.checkpoint_path
        )
        assert resumed.status is RunStatus.COMPLETE
        assert resumed.partition.labels() == reference.partition.labels()
        assert resumed.heterogeneity == reference.heterogeneity  # bitwise
        assert resumed.perf.checkpoint_replays >= 1
        # A completed resume cleans up after itself too.
        assert not os.path.exists(config.checkpoint_path)

    def test_cancelled_run_resumes_bit_identically(self, tiny_census,
                                                   constraints, tmp_path):
        reference = FaCT(FaCTConfig(rng_seed=5)).solve(
            tiny_census, constraints
        )
        config = _config(tmp_path)
        injector = FaultInjector().cancel("tabu.iteration", on_visit=2)
        with inject(injector):
            partial = FaCT(config).solve(tiny_census, constraints)
        assert partial.interrupted
        resumed = FaCT(config).solve(
            tiny_census, constraints, resume_from=config.checkpoint_path
        )
        assert resumed.partition.labels() == reference.partition.labels()
        assert resumed.heterogeneity == reference.heterogeneity

    def test_resume_into_parallel_run_matches_serial_reference(
        self, tiny_census, constraints, tmp_path
    ):
        # The ledger records *units* (pure functions of derived seeds),
        # so a checkpoint written by a serial run can be finished by a
        # 2-worker run — and vice versa — without changing the answer.
        reference = FaCT(FaCTConfig(rng_seed=5)).solve(
            tiny_census, constraints
        )
        config = _config(tmp_path)
        injector = FaultInjector().cancel("tabu.iteration")
        with inject(injector):
            FaCT(config).solve(tiny_census, constraints)
        resumed = FaCT(_config(tmp_path, n_jobs=2)).solve(
            tiny_census, constraints, resume_from=config.checkpoint_path
        )
        assert resumed.status is RunStatus.COMPLETE
        assert resumed.partition.labels() == reference.partition.labels()
        assert resumed.heterogeneity == reference.heterogeneity

    def test_certified_resume_passes_final_certification(
        self, tiny_census, constraints, tmp_path
    ):
        config = _config(tmp_path, certify="final")
        injector = FaultInjector().cancel("tabu.iteration")
        with inject(injector):
            FaCT(config).solve(tiny_census, constraints)
        resumed = FaCT(config).solve(
            tiny_census, constraints, resume_from=config.checkpoint_path
        )
        assert resumed.certificate is not None
        assert resumed.certificate.valid
