"""Experiment runner — one row of a paper table/figure per call.

Each experiment in Section VII measures, for one dataset and one
constraint combination at one threshold setting, the paper's three
performance measures: construction time, Tabu time, the answer-set
size ``p`` (plus the number of unassigned areas) and the relative
heterogeneity improvement. :func:`run_emp` and :func:`run_maxp`
produce one :class:`ExperimentRow` each; the table/figure modules
assemble grids of them.

Resilience: a cell that raises is reported as an *error row*
(``status="error"``, the exception in ``error``) instead of aborting
the whole table; ``REPRO_BENCH_CELL_DEADLINE`` imposes a per-cell
wall-clock budget (interrupted cells carry the solver's best-so-far
numbers flagged ``deadline_exceeded``); and an ambient
:class:`~repro.bench.journal.RunJournal` installed via
:func:`use_journal` makes multi-hour report runs resumable.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..core.area import AreaCollection
from ..data.datasets import load_dataset
from ..fact.config import FaCTConfig
from ..fact.solver import FaCT
from ..obs.telemetry import SolveTelemetry
from ..baselines.maxp import MaxPConfig, solve_maxp
from ..data import schema
from ..runtime import RunStatus
from .journal import RunJournal, journal_key
from .workloads import Range, combo_constraints, format_range

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "ExperimentRow",
    "bench_scale",
    "bench_dataset",
    "bench_config",
    "bench_cell_deadline",
    "run_emp",
    "run_maxp",
    "use_journal",
    "active_journal",
]

_SCALE_ENV = "REPRO_BENCH_SCALE"
_DEFAULT_BENCH_SCALE = 0.15
_CELL_DEADLINE_ENV = "REPRO_BENCH_CELL_DEADLINE"

# Version of the bench journal row layout. Version 2 added
# ``schema_version`` itself and the ``telemetry`` summary block; the
# journal reader accepts version-1 rows (the fields default) so
# existing journals keep replaying.
BENCH_SCHEMA_VERSION = 2


def bench_scale() -> float:
    """The dataset scale used by the pytest benchmarks.

    Controlled by the ``REPRO_BENCH_SCALE`` environment variable
    (default 0.15, i.e. the default ``2k`` dataset shrinks to ~350
    areas so the whole suite runs in minutes). The full-size runs for
    EXPERIMENTS.md use :mod:`repro.bench.report` with ``--scale 1``.
    """
    return float(os.environ.get(_SCALE_ENV, _DEFAULT_BENCH_SCALE))


def bench_cell_deadline() -> float | None:
    """Per-cell wall-clock budget in seconds, or ``None`` (no budget).

    Controlled by the ``REPRO_BENCH_CELL_DEADLINE`` environment
    variable. A cell that hits its deadline still yields a measured
    row — the solver's best-so-far answer flagged
    ``deadline_exceeded`` — so one pathological cell cannot stall an
    entire report run.
    """
    raw = os.environ.get(_CELL_DEADLINE_ENV)
    if raw is None or not raw.strip():
        return None
    return float(raw)


def bench_dataset(name: str = "2k", scale: float | None = None) -> AreaCollection:
    """Load a registry dataset at the benchmark scale."""
    return load_dataset(name, scale=bench_scale() if scale is None else scale)


def bench_config(
    n_areas: int,
    rng_seed: int = 7,
    enable_tabu: bool = True,
    deadline_seconds: float | None = None,
) -> FaCTConfig:
    """The FaCT configuration used across all benchmarks.

    One construction pass and the paper's default Tabu knobs (tenure
    10, patience = dataset size), with a hard iteration cap of ``4n``
    so a pathological search cannot stall a benchmark run. Retries are
    disabled: a degenerate cell is itself a measured result, and
    benchmark rows must reflect exactly one construction per seed.
    """
    return FaCTConfig(
        rng_seed=rng_seed,
        construction_iterations=1,
        enable_tabu=enable_tabu,
        tabu_max_no_improve=n_areas,
        tabu_max_iterations=4 * n_areas,
        deadline_seconds=(
            deadline_seconds
            if deadline_seconds is not None
            else bench_cell_deadline()
        ),
        construction_retry_attempts=0,
    )


@dataclass(frozen=True)
class ExperimentRow:
    """One measured experiment cell.

    Field names mirror the quantities the paper plots: ``p``,
    unassigned count, construction/tabu seconds and heterogeneity
    improvement. ``status`` is ``"ok"`` for a clean run,
    ``"deadline_exceeded"``/``"cancelled"`` for an interrupted one
    (the measured numbers are then the solver's best-so-far), or
    ``"error"`` when the cell raised — ``error`` then holds the
    exception and the numeric fields are zeroed.
    """

    solver: str
    combo: str
    dataset: str
    n_areas: int
    setting: str
    p: int
    n_unassigned: int
    construction_seconds: float
    tabu_seconds: float
    improvement: float
    heterogeneity: float
    status: str = "ok"
    error: str = ""
    rng_seed: int = 7
    enable_tabu: bool = True
    schema_version: int = BENCH_SCHEMA_VERSION
    # Telemetry summary of the measured solve (total spans and
    # per-phase wall-clock from the in-memory SolveTelemetry); empty
    # for error rows, baseline (MP) rows and version-1 journal rows.
    telemetry: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        """Construction plus Tabu wall-clock time."""
        return self.construction_seconds + self.tabu_seconds

    @property
    def failed(self) -> bool:
        """True when the cell raised instead of measuring."""
        return self.status == "error"

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (used by the report writer and journal)."""
        return {
            "solver": self.solver,
            "combo": self.combo,
            "dataset": self.dataset,
            "n_areas": self.n_areas,
            "setting": self.setting,
            "p": self.p,
            "n_unassigned": self.n_unassigned,
            "construction_seconds": round(self.construction_seconds, 4),
            "tabu_seconds": round(self.tabu_seconds, 4),
            "improvement": round(self.improvement, 4),
            "heterogeneity": round(self.heterogeneity, 2),
            "status": self.status,
            "error": self.error,
            "rng_seed": self.rng_seed,
            "enable_tabu": self.enable_tabu,
            "schema_version": self.schema_version,
            "telemetry": dict(self.telemetry),
        }


# ----------------------------------------------------------------------
# ambient journal
# ----------------------------------------------------------------------

_journal: RunJournal | None = None


@contextmanager
def use_journal(journal: RunJournal | None):
    """Install *journal* as the ambient run journal.

    While active, :func:`run_emp` and :func:`run_maxp` replay cells
    the journal already holds and record every cell they measure. The
    journal is ambient rather than a parameter because the table and
    figure generators between the report driver and the runners have
    no business knowing about it.
    """
    global _journal
    previous = _journal
    _journal = journal
    try:
        yield journal
    finally:
        _journal = previous


def active_journal() -> RunJournal | None:
    """The currently installed run journal, if any."""
    return _journal


def _finish_row(key: tuple, make_row) -> ExperimentRow:
    """Replay *key* from the ambient journal, or measure it with
    *make_row* — converting an exception into an error row — and
    record the outcome."""
    journal = _journal
    if journal is not None:
        cached = journal.lookup(key)
        if cached is not None:
            return cached
    solver, combo, dataset, setting, n_areas, rng_seed, enable_tabu = key
    try:
        row = make_row()
    except Exception as exc:  # noqa: BLE001 - any cell failure becomes a row
        row = ExperimentRow(
            solver=solver,
            combo=combo,
            dataset=dataset,
            n_areas=n_areas,
            setting=setting,
            p=0,
            n_unassigned=n_areas,
            construction_seconds=0.0,
            tabu_seconds=0.0,
            improvement=0.0,
            heterogeneity=0.0,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            rng_seed=rng_seed,
            enable_tabu=enable_tabu,
        )
    if journal is not None:
        journal.record(row)
    return row


def _row_status(status: RunStatus) -> str:
    return "ok" if status is RunStatus.COMPLETE else status.value


def run_emp(
    collection: AreaCollection,
    combo: str,
    min_range: Range = None,
    avg_range: Range = None,
    sum_range: Range = None,
    dataset: str = "?",
    enable_tabu: bool = True,
    rng_seed: int = 7,
) -> ExperimentRow:
    """Run FaCT for one combination/threshold cell and measure it."""
    # The setting label names only the explicitly varied ranges: it
    # identifies the table *column*, while the combo identifies the
    # row. Unvaried constraint types keep their Table II defaults and
    # would only blur the column labels.
    kwargs = {}
    settings = []
    if min_range is not None:
        kwargs["min_range"] = min_range
        settings.append(f"MIN{format_range(min_range)}")
    if avg_range is not None:
        kwargs["avg_range"] = avg_range
        settings.append(f"AVG{format_range(avg_range)}")
    if sum_range is not None:
        kwargs["sum_range"] = sum_range
        settings.append(f"SUM{format_range(sum_range)}")
    setting = " ".join(settings) or "defaults"
    key = journal_key(
        "FaCT", combo, dataset, setting, len(collection), rng_seed, enable_tabu
    )

    def _measure() -> ExperimentRow:
        constraints = combo_constraints(combo, **kwargs)
        config = bench_config(
            len(collection), rng_seed=rng_seed, enable_tabu=enable_tabu
        )
        # In-memory telemetry (no trace file): the row carries a
        # summary of the solve's span tree and per-phase wall-clock.
        telemetry = SolveTelemetry()
        solution = FaCT(config).solve(
            collection, constraints, telemetry=telemetry
        )
        return ExperimentRow(
            solver="FaCT",
            combo=combo,
            dataset=dataset,
            n_areas=len(collection),
            setting=setting,
            p=solution.p,
            n_unassigned=solution.n_unassigned,
            construction_seconds=solution.construction_seconds,
            tabu_seconds=solution.tabu_seconds,
            improvement=solution.improvement,
            heterogeneity=solution.heterogeneity,
            status=_row_status(solution.status),
            rng_seed=rng_seed,
            enable_tabu=enable_tabu,
            telemetry=_telemetry_summary(telemetry),
        )

    return _finish_row(key, _measure)


def _telemetry_summary(telemetry: SolveTelemetry) -> dict:
    """The row's ``telemetry`` block: span count and per-phase seconds."""
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


def run_maxp(
    collection: AreaCollection,
    threshold: float,
    dataset: str = "?",
    enable_tabu: bool = True,
    rng_seed: int = 7,
) -> ExperimentRow:
    """Run the classic max-p baseline (the paper's *MP* rows)."""
    n = len(collection)
    setting = f"SUM{format_range((threshold, None))}"
    key = journal_key("MP", "MP", dataset, setting, n, rng_seed, enable_tabu)

    def _measure() -> ExperimentRow:
        config = MaxPConfig(
            rng_seed=rng_seed,
            iterations=1,
            enable_tabu=enable_tabu,
            tabu_max_no_improve=n,
            tabu_max_iterations=4 * n,
        )
        result = solve_maxp(collection, schema.TOTALPOP, threshold, config)
        return ExperimentRow(
            solver="MP",
            combo="MP",
            dataset=dataset,
            n_areas=n,
            setting=setting,
            p=result.p,
            n_unassigned=result.n_unassigned,
            construction_seconds=result.construction_seconds,
            tabu_seconds=result.tabu_seconds,
            improvement=result.improvement,
            heterogeneity=result.heterogeneity,
            rng_seed=rng_seed,
            enable_tabu=enable_tabu,
        )

    return _finish_row(key, _measure)
