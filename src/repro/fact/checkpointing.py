"""Crash-recoverable solves: the atomic solve-checkpoint ledger.

A :class:`SolveLedger` persists the progress of one :meth:`FaCT.solve`
call to a versioned JSON file so a killed process can resume and finish
**bit-identically** to an uninterrupted run.

Why unit-granular replay works
------------------------------
The solver's parallel decomposition already forces every unit of work —
one construction pass, one Tabu portfolio member — to be a pure
function of its derived seed and inputs (that is what makes results
invariant to ``n_jobs``). The ledger exploits the same property for
durability: instead of snapshotting raw RNG state mid-stream, it
records each *completed* unit's result keyed by its coordinates —

- ``construction/{attempt}/{pass}`` → retry attempt *attempt*'s pass
  *pass*;
- ``tabu/{member}`` → portfolio member *member*;

each stored as ``[score, labels, stats]`` of its
:class:`~repro.fact.pool.UnitResult` — and on resume replays recorded
units verbatim while recomputing the rest. A replayed unit is
byte-for-byte what the unit would produce if re-run (JSON round-trips
Python floats exactly — ``json.dumps`` emits ``repr``
shortest-round-trip forms), so the reduction downstream sees identical
inputs in identical order and the final partition matches the
uninterrupted run for any kill point and any worker count.
Interrupted (partially executed) units are deliberately *not*
recorded: the uninterrupted reference run completes them, so a resumed
run must recompute them in full.

Durability
----------
Every record triggers a whole-file rewrite through
:func:`repro.runtime.atomic.atomic_write_text` (same-directory temp
file + ``os.replace``), so the file on disk is always a complete,
parseable snapshot — a crash during the write leaves the previous
snapshot intact. Each write is announced at the ``checkpoint.write``
fault checkpoint; an injected ``fail`` there simulates dying exactly
at the snapshot boundary.

A decomposed solve (``FaCTConfig.decompose_components``) prefixes
component *i*'s keys with ``component/{i}/``.

The file also carries a **fingerprint** of the problem (seed, phase
shape, construction and Tabu knobs, decomposition, objective with its
weights, constraint strings, dataset size and a sha256 of the
dataset's content). Resuming against a different problem raises
:class:`repro.exceptions.CheckpointError` instead of silently splicing
mismatched results, and the consumed wall-clock is stored so a resumed
deadline run only gets the time the original had left.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..core.perf import PerfCounters
from ..exceptions import CheckpointError
from ..obs.telemetry import DISABLED
from ..runtime import Budget, Interrupted
from ..runtime.atomic import atomic_write_text
from .objectives import WeightedObjective
from .pool import UnitResult

__all__ = ["SolveLedger"]

_FORMAT = "repro-solve-checkpoint/1"


def _fingerprint(config, constraints, collection, objective=None) -> dict:
    """The identity of one solve, as far as replay safety is concerned.

    Everything a recorded unit's result depends on (beyond its own
    coordinates): the seed scheme, the phase shape, the construction
    knobs that change its outcome, the Tabu tenure and stopping rules,
    whether components are solved separately, the objective Tabu
    minimizes (:func:`_objective_identity`) and the problem itself.
    Constraints compare by their canonical string forms, the data by
    :func:`_data_digest`.
    """
    return {
        "rng_seed": config.rng_seed,
        "construction_iterations": config.construction_iterations,
        "construction_retry_attempts": config.construction_retry_attempts,
        "tabu_portfolio": config.tabu_portfolio,
        "tabu_tenure": config.tabu_tenure,
        "tabu_max_no_improve": config.tabu_max_no_improve,
        "tabu_max_iterations": config.tabu_max_iterations,
        "merge_limit": config.merge_limit,
        "pickup": config.pickup,
        "strict_avg_feasibility": config.strict_avg_feasibility,
        "degenerate_unassigned_ratio": config.degenerate_unassigned_ratio,
        "decompose_components": config.decompose_components,
        "objective": _objective_identity(objective),
        "constraints": sorted(str(c) for c in constraints),
        "n_areas": len(collection),
        "data_sha256": _data_digest(collection),
    }


def _objective_identity(objective):
    """The objective's class name (``None`` is the default
    heterogeneity objective); a :class:`WeightedObjective` adds each
    component's identity and weight, recursively."""
    if objective is None:
        return "HeterogeneityObjective"
    if not isinstance(objective, WeightedObjective):
        return type(objective).__name__
    return {
        "class": "WeightedObjective",
        "components": [
            [_objective_identity(component), float(weight)]
            for component, weight in objective._components
        ],
    }


def _data_digest(collection) -> str:
    """sha256 over the problem data, in one pass over the areas: each
    area's id, sorted attributes, dissimilarity and sorted neighbour
    ids, plus the collection's dissimilarity attribute. Floats enter
    through ``repr``, which round-trips them exactly."""
    digest = hashlib.sha256(repr(collection.dissimilarity_attribute).encode())
    for area_id in sorted(collection.ids):
        area = collection.area(area_id)
        digest.update(
            repr(
                (
                    area_id,
                    sorted(area.attributes.items()),
                    area.dissimilarity,
                    sorted(collection.neighbors(area_id)),
                )
            ).encode()
        )
    return digest.hexdigest()


class SolveLedger:
    """Checkpoint file for one solve; records and replays work units.

    Create one with :meth:`fresh` (new solve) or :meth:`load` (resume).
    The ledger accumulates its own :class:`PerfCounters`
    (``checkpoint_writes`` / ``checkpoint_replays``) in
    :attr:`counters`; the solver merges them into the solution's perf.
    """

    def __init__(self, path, fingerprint: dict, units: dict | None = None,
                 consumed_seconds: float = 0.0,
                 keep_on_complete: bool = False):
        self.path = os.fspath(path)
        self.fingerprint = fingerprint
        self.units: dict[str, object] = dict(units or {})
        self.consumed_seconds = float(consumed_seconds)
        # Retention: with keep_on_complete the file survives a COMPLETE
        # solve (the service archives job checkpoints for audit); the
        # default deletes it so a finished run cannot be resumed into a
        # stale answer.
        self.keep_on_complete = bool(keep_on_complete)
        self.counters = PerfCounters()
        # The solver assigns its SolveTelemetry so snapshot writes are
        # traced (``checkpoint.write`` spans); defaults to the no-op.
        self.telemetry = DISABLED

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def fresh(cls, path, config, constraints, collection,
              keep_on_complete: bool = False,
              objective=None) -> "SolveLedger":
        """Start a new ledger for this solve (any stale file at *path*
        is superseded by the first write)."""
        return cls(
            path,
            _fingerprint(config, constraints, collection, objective),
            keep_on_complete=keep_on_complete,
        )

    @classmethod
    def load(cls, path, config, constraints, collection,
             keep_on_complete: bool = False,
             objective=None) -> "SolveLedger":
        """Load a ledger to resume from; validates format and
        fingerprint.

        Raises :class:`~repro.exceptions.CheckpointError` when the file
        is missing, unparseable, of an unknown version, or written for
        a different problem.
        """
        path = os.fspath(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint file {path!r} does not exist"
            ) from None
        except (OSError, json.JSONDecodeError) as error:
            raise CheckpointError(
                f"checkpoint file {path!r} is unreadable: {error}"
            ) from error
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            raise CheckpointError(
                f"checkpoint file {path!r} has unsupported format "
                f"{payload.get('format') if isinstance(payload, dict) else None!r}"
                f" (expected {_FORMAT!r})"
            )
        expected = _fingerprint(config, constraints, collection, objective)
        found = payload.get("fingerprint")
        if found != expected:
            # Name both sides of every mismatched key: "the file says
            # rng_seed=5, this solve says rng_seed=6" is actionable,
            # a bare list of key names is not.
            mismatched = ", ".join(
                f"{key}: checkpoint has "
                f"{(found or {}).get(key, '<missing>')!r}, resuming solve "
                f"expects {expected.get(key, '<missing>')!r}"
                for key in sorted(set(expected) | set(found or {}))
                if (found or {}).get(key) != expected.get(key)
            )
            raise CheckpointError(
                f"checkpoint file {path!r} was written for a different "
                f"problem ({mismatched})"
            )
        return cls(
            path,
            expected,
            units=payload.get("units", {}),
            consumed_seconds=float(payload.get("consumed_seconds", 0.0)),
            keep_on_complete=keep_on_complete,
        )

    # ------------------------------------------------------------------
    # work units
    # ------------------------------------------------------------------
    def lookup(self, key: str):
        """Replay the unit recorded under *key*, or ``None``.

        Returns the :class:`~repro.fact.pool.UnitResult` the unit's
        task returned, with JSON's lists turned back into the task's
        tuples. Replayed units carry fresh (empty) perf counters and
        no spans — hot-path counters and telemetry are diagnostics,
        not part of the bit-identity contract, which covers the
        partition.
        """
        stored = self.units.get(key)
        if stored is None:
            return None
        score, labels, stats = stored
        self.counters.checkpoint_replays += 1
        return UnitResult(
            score=tuple(score) if isinstance(score, list) else score,
            labels={int(area_id): label for area_id, label in labels.items()},
            stats=tuple(stats) if isinstance(stats, list) else dict(stats),
            status=None,
            perf=PerfCounters(),
            spans=[],
        )

    def record(self, key: str, result, budget: Budget | None = None) -> None:
        """Record one *completed* unit as ``[score, labels, stats]`` and
        snapshot the file. Interrupted units (``result.status`` set)
        are ignored — see the module docstring."""
        if result.status is not None:
            return
        self.units[key] = [result.score, result.labels, result.stats]
        self._snapshot(budget)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _snapshot(self, budget: Budget | None) -> None:
        """Atomically rewrite the checkpoint file.

        The ``checkpoint.write`` fault point fires first — a ``fail``
        fault there aborts *before* the write, simulating a crash at
        the snapshot boundary; an interruption signal is noted but the
        write still happens (the unit is already complete, and losing
        it would force the resumed run to redo finished work).
        """
        consumed = self.consumed_seconds
        if budget is not None:
            consumed = max(consumed, budget.elapsed())
            try:
                budget.checkpoint("checkpoint.write")
            except Interrupted:
                pass  # observed by the caller at its next checkpoint
        payload = {
            "format": _FORMAT,
            "fingerprint": self.fingerprint,
            "consumed_seconds": consumed,
            "units": self.units,
        }
        with self.telemetry.tracer.span(
            "checkpoint.write", units=len(self.units)
        ):
            atomic_write_text(self.path, json.dumps(payload, sort_keys=True))
        self.consumed_seconds = consumed
        self.counters.checkpoint_writes += 1

    def delete(self) -> None:
        """Remove the checkpoint file (called after a COMPLETE solve —
        a finished run must not be resumable into a stale answer)."""
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass
