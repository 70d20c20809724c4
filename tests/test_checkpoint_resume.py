"""Checkpoint/resume: kill a solve at an arbitrary snapshot boundary,
resume from the checkpoint file, and demand a partition bit-identical
to an uninterrupted run with the same seed — at any worker count.

Also covers decomposed (per-component) solves, the SolveLedger's
refusal modes (missing file, garbage, foreign fingerprint) and the
atomic-write primitive everything rests on.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.core import Area, AreaCollection, ConstraintSet, sum_constraint
from repro.data import schema, synthetic_census
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


def _islands():
    """A 60-tract census split into 3 connected components, with a
    bound every component can meet."""
    return (
        synthetic_census(60, seed=8, patches=3),
        ConstraintSet([sum_constraint(schema.TOTALPOP, lower=15000)]),
    )


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

    @pytest.mark.parametrize(
        "recorded, resumed", [(True, False), (False, True)]
    )
    def test_toggled_decompose_refuses_resume(
        self, tmp_path, recorded, resumed
    ):
        # Component units and whole-solve units live under different
        # keys and come from different subproblems: neither may be
        # replayed into the other kind of solve.
        collection, islands = _islands()
        config = _config(
            tmp_path,
            decompose_components=recorded,
            checkpoint_keep_on_complete=True,
        )
        FaCT(config).solve(collection, islands)
        assert os.path.exists(config.checkpoint_path)
        with pytest.raises(CheckpointError, match="decompose_components"):
            FaCT(_config(tmp_path, decompose_components=resumed)).solve(
                collection, islands, resume_from=config.checkpoint_path
            )

    def test_changed_objective_weight_refuses_resume(
        self, tiny_census, constraints, tmp_path
    ):
        # The weights steer every Tabu move; units recorded under one
        # weighting would return that weighting's partition.
        from repro.fact.objectives import (
            HeterogeneityObjective,
            WeightedObjective,
        )

        def weighted(weight):
            return WeightedObjective([(HeterogeneityObjective(), weight)])

        config = _config(
            tmp_path, tabu_portfolio=2, checkpoint_keep_on_complete=True
        )
        reference = FaCT(config, objective=weighted(1.0)).solve(
            tiny_census, constraints
        )
        with pytest.raises(CheckpointError, match="objective"):
            FaCT(config, objective=weighted(2.0)).solve(
                tiny_census, constraints,
                resume_from=config.checkpoint_path,
            )
        # The same weighting still resumes, replaying every unit.
        resumed = FaCT(config, objective=weighted(1.0)).solve(
            tiny_census, constraints, resume_from=config.checkpoint_path
        )
        assert resumed.perf.checkpoint_replays == 5
        assert resumed.partition.labels() == reference.partition.labels()


def _rebuilt(collection, attributes=None, extra_edge=None):
    """A copy of *collection* with one area's attributes replaced
    (``(area_id, {name: value})``) or one adjacency edge added."""
    areas = []
    for area in collection:
        values = dict(area.attributes)
        if attributes is not None and area.area_id == attributes[0]:
            values.update(attributes[1])
        areas.append(Area(area.area_id, values, area.dissimilarity))
    adjacency = {
        area_id: set(collection.neighbors(area_id))
        for area_id in collection.ids
    }
    if extra_edge is not None:
        a, b = extra_edge
        adjacency[a].add(b)
        adjacency[b].add(a)
    return AreaCollection(
        areas, adjacency,
        dissimilarity_attribute=collection.dissimilarity_attribute,
    )


class TestDataFingerprint:
    """The fingerprint covers the data, not just its size: a resume
    against a changed dataset must refuse the recorded units."""

    def _refused(self, tiny_census, changed, constraints, tmp_path):
        config = _config(tmp_path, checkpoint_keep_on_complete=True)
        FaCT(config).solve(tiny_census, constraints)
        assert os.path.exists(config.checkpoint_path)
        with pytest.raises(CheckpointError, match="data_sha256"):
            FaCT(config).solve(
                changed, constraints, resume_from=config.checkpoint_path
            )

    def test_changed_attribute_value_refuses_resume(
        self, tiny_census, constraints, tmp_path
    ):
        name = tiny_census.dissimilarity_attribute
        area_id = tiny_census.ids[0]
        value = tiny_census.attribute(area_id, name)
        changed = _rebuilt(
            tiny_census, attributes=(area_id, {name: 3 * value})
        )
        self._refused(tiny_census, changed, constraints, tmp_path)

    def test_changed_adjacency_edge_refuses_resume(
        self, tiny_census, constraints, tmp_path
    ):
        a = tiny_census.ids[0]
        b = next(
            other
            for other in tiny_census.ids
            if other != a and other not in tiny_census.neighbors(a)
        )
        changed = _rebuilt(tiny_census, extra_edge=(a, b))
        assert len(changed) == len(tiny_census)
        self._refused(tiny_census, changed, constraints, tmp_path)

    def test_checkpoint_without_data_digest_is_refused(
        self, tiny_census, constraints, tmp_path
    ):
        # Files written before the digest existed cannot vouch for
        # their data.
        config = _config(tmp_path, checkpoint_keep_on_complete=True)
        FaCT(config).solve(tiny_census, constraints)
        payload = json.loads(open(config.checkpoint_path).read())
        del payload["fingerprint"]["data_sha256"]
        atomic_write_text(config.checkpoint_path, json.dumps(payload))
        with pytest.raises(CheckpointError, match="data_sha256"):
            FaCT(config).solve(
                tiny_census, constraints,
                resume_from=config.checkpoint_path,
            )

    def test_unchanged_rebuild_resumes(
        self, tiny_census, constraints, tmp_path
    ):
        # An equal dataset built afresh hashes the same.
        config = _config(tmp_path, checkpoint_keep_on_complete=True)
        reference = FaCT(config).solve(tiny_census, constraints)
        resumed = FaCT(config).solve(
            _rebuilt(tiny_census), constraints,
            resume_from=config.checkpoint_path,
        )
        assert resumed.partition.labels() == reference.partition.labels()
        assert resumed.perf.checkpoint_replays >= 1


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


class TestFaultCheckpointVisits:
    """Every unit of a checkpointed portfolio solve passes the same
    fault checkpoints as many times at any worker count. Worker
    processes keep their own visit counts, so at ``n_jobs=2`` only the
    parent's are seen: one ``construction.pass.start`` gate for the
    fan-out, and one ``pool.result`` and ``checkpoint.write`` per unit
    it collects and records."""

    # 3 construction passes + 3 portfolio members.
    FRESH = {
        1: {
            "checkpoint.write": 6,
            "construction.adjust.phase": 15,
            "construction.grow.enclave": 12,
            "construction.grow.seed": 60,
            "construction.pass.start": 3,
            "feasibility.checked": 1,
            "pool.result": 6,
            "preflight.components": 1,
            "preflight.lint": 1,
            "tabu.iteration": 30,
        },
        2: {
            "checkpoint.write": 6,
            "construction.pass.start": 1,
            "feasibility.checked": 1,
            "pool.result": 6,
            "preflight.components": 1,
            "preflight.lint": 1,
        },
    }
    # Resumed from a file holding 4 units (killed at the 5th write):
    # only the 2 recomputed members pass pool.result at either worker
    # count. Inline, replayed units still pass their start gate (how
    # the inline path sees cancellation mid-phase); fanned out, the
    # gate runs once.
    RESUMED = {
        1: {
            "checkpoint.write": 2,
            "construction.pass.start": 3,
            "feasibility.checked": 1,
            "pool.result": 2,
            "preflight.components": 1,
            "preflight.lint": 1,
            "tabu.iteration": 16,
        },
        2: {
            "checkpoint.write": 2,
            "construction.pass.start": 1,
            "feasibility.checked": 1,
            "pool.result": 2,
            "preflight.components": 1,
            "preflight.lint": 1,
        },
    }

    @staticmethod
    def _portfolio_config(tmp_path, n_jobs):
        return _config(
            tmp_path, tabu_portfolio=3, n_jobs=n_jobs, certify="off"
        )

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_checkpointed_portfolio_solve_visits(
        self, tiny_census, constraints, tmp_path, n_jobs
    ):
        injector = FaultInjector()
        with inject(injector):
            solution = FaCT(self._portfolio_config(tmp_path, n_jobs)).solve(
                tiny_census, constraints
            )
        assert solution.status is RunStatus.COMPLETE
        assert dict(injector.visits) == self.FRESH[n_jobs]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_resumed_portfolio_solve_visits(
        self, tiny_census, constraints, tmp_path, n_jobs
    ):
        config = self._portfolio_config(tmp_path, n_jobs)
        with pytest.raises(InjectedFault):
            with inject(FaultInjector().fail("checkpoint.write", on_visit=5)):
                FaCT(config).solve(tiny_census, constraints)
        injector = FaultInjector()
        with inject(injector):
            resumed = FaCT(config).solve(
                tiny_census, constraints, resume_from=config.checkpoint_path
            )
        assert resumed.perf.checkpoint_replays == 4
        assert dict(injector.visits) == self.RESUMED[n_jobs]


class TestDecomposedResume:
    """A decomposed solve records each component's units under
    ``component/{i}/`` and resumes from them bit-identically, like a
    whole solve, at any worker count."""

    # 3 components x (3 construction passes + 2 portfolio members).
    UNITS = 15
    KEY = re.compile(r"component/[0-2]/(construction/0/[0-2]|tabu/[01])")

    @staticmethod
    def _decomposed(tmp_path, n_jobs, **overrides):
        return _config(
            tmp_path,
            rng_seed=11,
            n_jobs=n_jobs,
            decompose_components=True,
            tabu_portfolio=2,
            **overrides,
        )

    @pytest.fixture(scope="class")
    def reference(self):
        collection, islands = _islands()
        config = FaCTConfig(
            rng_seed=11, decompose_components=True, tabu_portfolio=2
        )
        return FaCT(config).solve(collection, islands)

    def test_decomposed_solve_writes_component_units(
        self, tmp_path, reference
    ):
        collection, islands = _islands()
        config = self._decomposed(
            tmp_path, 1, checkpoint_keep_on_complete=True
        )
        solution = FaCT(config).solve(collection, islands)
        assert solution.perf.checkpoint_writes == self.UNITS
        with open(config.checkpoint_path) as handle:
            units = json.load(handle)["units"]
        assert len(units) == self.UNITS
        assert all(self.KEY.fullmatch(key) for key in units)
        assert solution.partition.labels() == reference.partition.labels()

    # The checkpoint.write fault fires before the write, so visit k
    # kills a run whose file holds k-1 units: 3 falls in component 0's
    # construction, 10 in component 1's portfolio, 13 in component 2's
    # construction.
    @pytest.mark.parametrize("kill_at_visit", [3, 10, 13])
    @pytest.mark.parametrize(
        "killed_jobs, resumed_jobs", [(1, 1), (2, 2), (1, 2), (2, 1)]
    )
    def test_killed_decomposed_solve_resumes_bit_identically(
        self, tmp_path, reference, kill_at_visit, killed_jobs, resumed_jobs
    ):
        collection, islands = _islands()
        config = self._decomposed(tmp_path, killed_jobs)
        injector = FaultInjector().fail(
            "checkpoint.write", on_visit=kill_at_visit
        )
        with pytest.raises(InjectedFault):
            with inject(injector):
                FaCT(config).solve(collection, islands)
        with open(config.checkpoint_path) as handle:
            units = json.load(handle)["units"]
        assert len(units) == kill_at_visit - 1
        assert all(self.KEY.fullmatch(key) for key in units)

        resumed = FaCT(self._decomposed(tmp_path, resumed_jobs)).solve(
            collection, islands, resume_from=config.checkpoint_path
        )
        assert resumed.status is RunStatus.COMPLETE
        assert resumed.partition.labels() == reference.partition.labels()
        assert repr(resumed.heterogeneity) == repr(reference.heterogeneity)
        assert resumed.perf.checkpoint_replays == kill_at_visit - 1
        assert not os.path.exists(config.checkpoint_path)
