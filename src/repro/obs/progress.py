"""Progress/ETA engine: fold a run event log into percent + ETA.

The solver emits compact ``progress`` records (phase, done, total) at
phase boundaries and at a bounded cadence inside the long phases (see
:meth:`repro.obs.SolveTelemetry.progress`). :class:`ProgressModel`
folds that stream — together with the phase markers the solver already
emits (``metrics.snapshot``, ``run.end``) — into one phase-weighted
completion fraction in ``[0, 1]`` plus a naive proportional ETA.

The fold is deterministic: the same event list always produces the
same snapshot, so the service endpoints, the console and the bench
harness all agree on what "63% done" means.

Phase weights are one constant, :data:`DEFAULT_WEIGHTS`. The service
endpoints, the console and :func:`eta_error` (which the telemetry
summary reports) all fold with it, so the ETA a job serves is the ETA
that gets scored. The model reads no files.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_WEIGHTS",
    "ProgressModel",
    "eta_error",
]

# Phase keys of the fold, in solve order. ``progress`` events whose
# phase carries a suffix ("tabu.search") roll up to the first segment.
PHASES = ("feasibility", "construction", "tabu")

# Share of a solve's wall clock credited to each phase when it
# completes.
DEFAULT_WEIGHTS = {
    "feasibility": 0.03,
    "construction": 0.17,
    "tabu": 0.80,
}


def _normalize(weights: dict) -> dict:
    total = sum(max(float(v), 0.0) for v in weights.values())
    if total <= 0.0:
        return dict(DEFAULT_WEIGHTS)
    return {k: max(float(v), 0.0) / total for k, v in weights.items()}


def _base_phase(phase: str) -> str:
    return str(phase).split(".", 1)[0]


class ProgressModel:
    """Deterministic fold of an event list into a progress snapshot.

    Parameters
    ----------
    weights:
        ``{phase: share}`` over :data:`PHASES`; normalized on entry.
        ``None`` uses :data:`DEFAULT_WEIGHTS`.
    """

    def __init__(self, weights: dict | None = None):
        merged = dict(DEFAULT_WEIGHTS)
        merged.update(weights or {})
        self.weights = _normalize(
            {phase: merged.get(phase, 0.0) for phase in PHASES}
        )

    def snapshot(self, events: list[dict], now: float | None = None) -> dict:
        """Fold *events* into::

            {fraction, phase, eta_seconds, elapsed_seconds,
             status, progress_events, phases: {phase: fraction}}

        ``fraction`` is monotone over a well-formed log: per-phase
        fractions only ratchet forward, and a completed phase pins at
        1.0. ``now`` (wall clock) extends ``elapsed_seconds`` past the
        last event for live views; ``None`` measures to the last event.
        """
        fractions = {phase: 0.0 for phase in PHASES}
        started_ts: float | None = None
        last_ts: float | None = None
        status: str | None = None
        current_phase: str | None = None
        progress_events = 0
        for event in events:
            kind = event.get("kind")
            ts = event.get("ts")
            if isinstance(ts, (int, float)):
                if started_ts is None:
                    started_ts = float(ts)
                last_ts = float(ts)
            if kind == "progress":
                progress_events += 1
                phase = _base_phase(event.get("phase", ""))
                if phase in fractions:
                    done = float(event.get("done") or 0.0)
                    total = float(event.get("total") or 0.0)
                    if total > 0.0:
                        sample = min(max(done / total, 0.0), 1.0)
                        if sample > fractions[phase]:
                            fractions[phase] = sample
                    current_phase = phase
            elif kind == "metrics.snapshot":
                phase = event.get("phase")
                if phase == "final":
                    continue  # emitted by close(); run.end decides
                if phase in fractions:
                    # A phase snapshot marks that phase (and every
                    # earlier one) complete.
                    for earlier in PHASES:
                        fractions[earlier] = 1.0
                        if earlier == phase:
                            break
                    index = PHASES.index(phase)
                    if index + 1 < len(PHASES):
                        current_phase = PHASES[index + 1]
            elif kind == "run.end":
                status = str(event.get("status") or "ok")
                if status in ("ok", "complete"):
                    for phase in PHASES:
                        fractions[phase] = 1.0
            elif kind == "run.interrupted":
                status = str(event.get("status") or "interrupted")
        fraction = sum(
            self.weights[phase] * fractions[phase] for phase in PHASES
        )
        fraction = min(max(fraction, 0.0), 1.0)
        if fraction >= 1.0:
            current_phase = "done"
        elif current_phase is None:
            current_phase = PHASES[0] if events else None
        elapsed = None
        eta = None
        if started_ts is not None:
            end_ts = max(now or 0.0, last_ts or started_ts)
            elapsed = max(end_ts - started_ts, 0.0)
            if 1e-9 < fraction < 1.0 and elapsed > 0.0:
                eta = elapsed * (1.0 - fraction) / fraction
            elif fraction >= 1.0:
                eta = 0.0
        return {
            "fraction": fraction,
            "phase": current_phase,
            "eta_seconds": eta,
            "elapsed_seconds": elapsed,
            "status": status,
            "progress_events": progress_events,
            "phases": fractions,
        }


def eta_error(events: list[dict], weights: dict | None = None) -> dict | None:
    """ETA calibration quality of one finished run: the wall-clock
    prediction the model would have served at each ``progress`` event
    versus the actual wall. Returns ``None`` for runs with no
    ``run.end`` or no progress events.

    Keys: ``predicted_wall_seconds`` (final prediction, at the last
    progress event), ``actual_wall_seconds``, ``final_error_ratio``
    (``|predicted - actual| / actual``) and ``mean_error_ratio``
    (mean over every prediction point).
    """
    run_start = next(
        (e for e in events if e.get("kind") == "run.start"), None
    )
    run_end = next(
        (e for e in events if e.get("kind") == "run.end"), None
    )
    if run_start is None or run_end is None:
        return None
    actual = float(run_end.get("ts", 0.0)) - float(run_start.get("ts", 0.0))
    if actual <= 0.0:
        return None
    model = ProgressModel(weights)
    predictions: list[float] = []
    for position, event in enumerate(events):
        if event.get("kind") != "progress":
            continue
        snap = model.snapshot(events[: position + 1])
        fraction = snap["fraction"]
        elapsed = snap["elapsed_seconds"]
        if fraction and fraction > 1e-9 and elapsed is not None:
            predictions.append(elapsed / fraction)
    if not predictions:
        return None
    ratios = [abs(p - actual) / actual for p in predictions]
    return {
        "predicted_wall_seconds": round(predictions[-1], 6),
        "actual_wall_seconds": round(actual, 6),
        "final_error_ratio": round(ratios[-1], 6),
        "mean_error_ratio": round(sum(ratios) / len(ratios), 6),
    }
