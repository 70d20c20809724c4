"""FaCT Phase 3 — Tabu-search local optimization (Section V-C).

Starting from the construction phase's feasible partition, repeatedly
moves boundary areas between adjacent regions to minimize the overall
heterogeneity ``H(P)`` without ever violating a constraint or breaking
contiguity, and without changing ``p`` (donor regions never empty).

Classic Tabu mechanics (Glover & Laguna):

- each iteration executes the **best admissible move**, even when it
  worsens ``H`` (to escape local optima);
- the reverse of an executed move — (area, donor region) — is *tabu*
  for ``tabu_tenure`` iterations;
- **aspiration**: a tabu move is admissible anyway when it would beat
  the best heterogeneity seen so far;
- the search stops after ``tabu_max_no_improve`` consecutive
  iterations without improving the best ``H`` (paper default: the
  dataset size), or when no admissible move exists.

The candidate-move pool is maintained incrementally: after a move,
only regions whose state changed (donor, receiver, regions bordering
the moved area) have their incident moves re-derived, mirroring the
paper's "update the valid moves … in the region updated by the
previous move"; a small region dirty only as a neighbor re-prices
just the pairs the move changed, and all large dirty regions are
priced together in one numpy batch. On top of the pool sits a **lazy
min-heap index**: entries are invalidated by a per-donor generation
stamp or a superseded delta instead of being searched for, the
per-iteration "best admissible move" query pops a handful of entries
instead of scanning the entire pool — O(log m) amortized versus O(m)
per iteration — and the heap is compacted to the live moves once dead
entries outnumber them by a fixed factor, so its size stays
proportional to the pool. The exhaustive reference scan lives in
``tests/oracles/hotpath_reference.py``; both order candidates by the
same total key ``(delta, area, receiver, donor)``, so the test suite
can replay a whole solve against it and demand an identical
trajectory.

For the portfolio parallelism of :mod:`repro.fact.portfolio`, the
search accepts an optional seeded RNG plus a perturbation count:
``perturbation_moves`` random admissible moves are applied (and made
tabu) before the deterministic descent starts, diversifying the
portfolio members' starting points. The best snapshot is taken *before*
the kicks, so a member never returns something worse than its input.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from random import Random

import numpy as np

from ..core.aggregates import Aggregate
from ..core.partition import Partition
from ..obs.spans import NULL_TRACER
from ..core.region import Region
from ..runtime import Interrupted, RunStatus
from .config import FaCTConfig
from .state import SolutionState

__all__ = ["TabuResult", "tabu_improve"]


@dataclass
class TabuResult:
    """Outcome of the local-search phase.

    ``improvement`` is the paper's measure: ``|H_before - H_after| /
    H_before`` (0 when the construction heterogeneity was already 0).
    ``status`` is ``COMPLETE`` when the search reached its natural
    stopping condition, or the interruption status when a budget
    deadline/cancel cut it short — the returned partition is then the
    best one seen before the interruption (always constraint-valid;
    the search never stores an invalid snapshot).
    """

    partition: Partition
    heterogeneity_before: float
    heterogeneity_after: float
    iterations: int = 0
    moves_applied: int = 0
    elapsed_seconds: float = 0.0
    status: RunStatus = RunStatus.COMPLETE

    @property
    def improvement(self) -> float:
        """Relative heterogeneity improvement achieved by the search."""
        if self.heterogeneity_before == 0:
            return 0.0
        return (
            abs(self.heterogeneity_before - self.heterogeneity_after)
            / self.heterogeneity_before
        )


# A move is "take `area` out of region `donor_id` into region
# `receiver_id`"; its key omits the donor because an area belongs to
# exactly one region at a time.
_MoveKey = tuple[int, int]  # (area_id, receiver_region_id)

# The vectorized move scorer packs one (candidate, receiver) pair into
# a single int64 — candidate ordinal in the high bits, receiver region
# id in the low 31 (region ids are solve-local counters, nowhere near
# 2**31). Sorted codes decode to the scalar loop's (area asc, receiver
# asc) visit order.
_PAIR_SHIFT = 31
_PAIR_MASK = (1 << _PAIR_SHIFT) - 1
_NEG_INF = float("-inf")
_POS_INF = float("inf")

# Donors smaller than this take the scalar derive: the vector batch
# pays a fixed cost per refresh (CSR gather, pair dedup, kernel
# dispatch) that a lone donor only amortizes once its boundary yields a
# few dozen candidate pairs. Both paths are bit-identical by contract,
# so this is purely a dispatch heuristic, set at the measured crossover
# (DESIGN §13): small-region workloads (many tiny regions) run at scalar
# speed, the enriched workload's 250+-area regions always vectorize.
# Tests monkeypatch this to force either path on any fixture.
_VECTOR_MIN_DONOR = 48

# Heap compaction rule: once the lazy heap holds more than
# _COMPACT_FACTOR x live moves + _COMPACT_SLACK entries, _refresh
# rebuilds it from the live moves. The factor bounds memory to a
# constant multiple of the pool and makes each rebuild O(1) amortized
# per push; the slack keeps tiny pools from rebuilding every iteration.
_COMPACT_FACTOR = 4
_COMPACT_SLACK = 1024

# In-search progress cadence: offer a `progress` event every this many
# iterations (the telemetry layer applies its own wall-clock bound on
# top, so short iterations cannot flood the event log).
_PROGRESS_ITERATIONS = 64


def tabu_improve(
    state: SolutionState,
    config: FaCTConfig,
    objective=None,
    budget=None,
    rng: Random | None = None,
    perturbation_moves: int = 0,
    tracer=None,
    telemetry=None,
) -> TabuResult:
    """Run Tabu search on *state* in place and return the best result.

    Parameters
    ----------
    objective:
        An :class:`repro.fact.objectives.Objective`; defaults to the
        paper's heterogeneity ``H(P)``. When a custom objective is
        used, the ``heterogeneity_before/after`` fields of the result
        carry *that objective's* scores.
    budget:
        Optional :class:`repro.runtime.Budget` checked at the top of
        every iteration; on deadline/cancel the search stops and
        returns the best snapshot so far with the interruption status.
    rng, perturbation_moves:
        Portfolio diversification: apply this many random admissible
        moves (chosen by *rng*, each made tabu) before the
        deterministic search starts. The best-seen snapshot is taken
        before the kicks, so the result is never worse than the input
        partition. ``perturbation_moves > 0`` requires an *rng*.
    tracer:
        Optional :class:`repro.obs.Tracer`; the search becomes one
        ``search`` span carrying iteration/score attributes.
    telemetry:
        Optional :class:`repro.obs.SolveTelemetry`; the search emits
        in-loop ``progress`` events (iterations against the iteration
        cap) every :data:`_PROGRESS_ITERATIONS` iterations, further
        rate-bounded by the telemetry layer. Emission is
        write-only — it never feeds back into move selection — so
        partitions stay bit-identical with telemetry on or off.
    """
    import time

    from .objectives import HeterogeneityObjective

    if tracer is None:
        tracer = NULL_TRACER
    emit_progress = telemetry is not None and getattr(
        telemetry, "enabled", False
    )
    with tracer.span("search") as search_span:
        started = time.perf_counter()
        n = len(state.collection)
        patience = config.resolved_tabu_patience(n)
        iteration_cap = config.resolved_tabu_cap(n)

        if objective is None:
            objective = HeterogeneityObjective()
        objective.attach(state)
        current_h = objective.total()
        initial_h = current_h
        best_h = current_h

        # Labels are maintained incrementally (O(1) per move). The best
        # snapshot is implicit: `trail` records (area, previous label)
        # for every move since the last new best, kicks included, and
        # is unwound once at the end instead of copying the whole dict
        # at each new best.
        labels = _initial_labels(state)
        trail: list[tuple[int, int]] = []

        pool = _MovePool(state, objective)
        tabu_until: dict[_MoveKey, int] = {}
        iterations = 0
        moves_applied = 0
        no_improve = 0
        status = RunStatus.COMPLETE

        for _ in range(perturbation_moves):
            kick = pool.random_admissible(rng)
            if kick is None:
                break
            delta, area_id, donor_id, receiver_id = kick
            state.move(area_id, state.regions[receiver_id])
            trail.append((area_id, labels[area_id]))
            labels[area_id] = receiver_id
            current_h += delta
            moves_applied += 1
            # The undo of a kick is tabu through the first `tenure`
            # iterations of the main loop (which counts from 1).
            tabu_until[(area_id, donor_id)] = config.tabu_tenure
            objective.apply_move(donor_id, receiver_id, area_id)
            pool.after_move(area_id, donor_id, receiver_id)

        while iterations < iteration_cap and no_improve < patience:
            if budget is not None:
                try:
                    budget.checkpoint("tabu.iteration")
                except Interrupted as signal:
                    status = signal.status
                    break
            iterations += 1
            chosen = pool.best_admissible(iterations, tabu_until, current_h, best_h)
            if chosen is None:
                break
            delta, area_id, donor_id, receiver_id = chosen
            receiver = state.regions[receiver_id]
            state.move(area_id, receiver)
            trail.append((area_id, labels[area_id]))
            labels[area_id] = receiver_id
            current_h += delta
            moves_applied += 1
            # Forbid the reverse move for `tenure` iterations.
            tabu_until[(area_id, donor_id)] = iterations + config.tabu_tenure
            objective.apply_move(donor_id, receiver_id, area_id)
            pool.after_move(area_id, donor_id, receiver_id)
            if current_h < best_h - 1e-9:
                best_h = current_h
                trail.clear()
                no_improve = 0
            else:
                no_improve += 1
            if emit_progress and iterations % _PROGRESS_ITERATIONS == 0:
                telemetry.progress(
                    "tabu.search",
                    done=iterations,
                    total=iteration_cap,
                    no_improve=no_improve,
                    patience=patience,
                )

        for area_id, previous in reversed(trail):
            labels[area_id] = previous
        result = TabuResult(
            partition=Partition.from_labels(labels),
            heterogeneity_before=initial_h,
            heterogeneity_after=best_h,
            iterations=iterations,
            moves_applied=moves_applied,
            elapsed_seconds=time.perf_counter() - started,
            status=status,
        )
        if search_span.recording:
            search_span.set(
                iterations=iterations,
                moves_applied=moves_applied,
                heterogeneity_before=initial_h,
                heterogeneity_after=best_h,
                status=status.value,
            )
        return result


def _run_starts(values):
    """Mask of the entries of the sorted, non-empty array *values* that
    differ from their predecessor (the first of each run of equals)."""
    first = np.empty(len(values), dtype=bool)
    first[0] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


def _within(value, lower: float, upper: float):
    """Elementwise ``lower <= value <= upper``. Finite values never fail
    an infinite bound, so those comparisons are skipped — half the
    verdict work for the one-sided constraints of real workloads."""
    if lower == _NEG_INF:
        return value <= upper if upper != _POS_INF else True
    if upper == _POS_INF:
        return value >= lower
    return (value >= lower) & (value <= upper)


def _deviation_sums(regions: list[Region], bounds: list[int], d):
    """``sum_j |d_i - d_j|`` over the members of ``regions[k]`` for each
    ``d_i`` in ``d[bounds[k]:bounds[k + 1]]`` — the batch form of
    ``Region._abs_deviation_sum``: the same closed form off the same
    maintained prefix lists (``searchsorted`` == ``bisect_left``), so
    the same bits."""
    rank = np.empty(len(d), dtype=np.int64)
    below = np.empty(len(d), dtype=np.float64)
    top = np.empty(len(d), dtype=np.float64)
    size = np.empty(len(d), dtype=np.int64)
    for region, lo, hi in zip(regions, bounds[:-1], bounds[1:]):
        values, prefix = region._struct_arrays()
        rank[lo:hi] = found = values.searchsorted(d[lo:hi], side="left")
        below[lo:hi] = prefix[found]
        top[lo:hi] = prefix[-1]
        size[lo:hi] = len(values)
    return (d * rank - below) + ((top - below) - d * (size - rank))


def _initial_labels(state: SolutionState) -> dict[int, int]:
    """Labels of the current assignment (excluded areas included as
    unassigned so the Partition covers the whole collection)."""
    labels: dict[int, int] = {}
    assignment = state.assignment
    for area_id in state.collection.ids:
        region_id = assignment.get(area_id)
        labels[area_id] = -1 if region_id is None else region_id
    return labels


def _constraint_plan(state: SolutionState) -> tuple:
    """The constraint set as ``(aggregate, attribute, per-area value
    table, lower, upper)`` tuples for the scalar derive; COUNT carries
    no attribute and no table. Table values are the same floats the
    regions' aggregate states hold."""
    collection = state.collection
    tables: dict[str, dict[int, float]] = {}
    plan = []
    for constraint in state.constraints:
        attribute = table = None
        if constraint.aggregate != Aggregate.COUNT:
            attribute = constraint.attribute
            table = tables.get(attribute)
            if table is None:
                table = tables[attribute] = {
                    area_id: float(value)
                    for area_id, value in collection.attribute_values(
                        attribute
                    ).items()
                }
        plan.append(
            (constraint.aggregate, attribute, table, constraint.lower,
             constraint.upper)
        )
    return tuple(plan)


class _MovePool:
    """Incrementally maintained pool of valid moves with a heap index.

    Moves are grouped by donor region. After an executed move only the
    dirty regions are re-derived: the donor, the receiver, and regions
    containing a neighbor of the moved area (those are the only places
    where moves can appear or disappear). Each refresh splits them by
    size. Donors smaller than ``_VECTOR_MIN_DONOR`` (or every donor,
    under an objective other than ``H``) take the scalar derive; a
    small donor dirty only as a neighbor keeps its membership
    (``Region._version``), so its donor-side rows are reused and only
    what the move changed is re-priced (see
    :meth:`_derive_moves_scalar`). The large donors are priced
    together by one :meth:`_derive_moves_batch` call, which keeps
    nothing between refreshes. Cached entries of
    clean regions can still carry stale receiver-side deltas —
    :meth:`best_admissible` therefore re-validates its chosen move
    against live region state before returning it, correcting or
    evicting stale entries on the spot.

    The heap index holds entries ``(delta, area, receiver, donor,
    stamp)``. An entry is valid while its stamp is the donor's current
    generation stamp and its delta equals the donor's cached delta for
    that key; validity is decided at pop time, never by searching the
    heap. The stamp is bumped when a donor's membership changed (every
    old entry of that donor dies at once); a neighbor-only re-derive
    keeps the stamp and pushes only the keys whose delta is new or
    changed. Entries popped but still valid (tabu-skipped, or the
    chosen move itself) are pushed back, so every live move keeps at
    least one valid entry.

    Dead entries are dropped in bulk: once the heap holds more than
    ``_COMPACT_FACTOR`` × live moves + ``_COMPACT_SLACK`` entries it is
    rebuilt from the live moves alone. A dead entry can only turn valid
    again when its exact tuple is pushed anew (a re-derive or a
    correction assigns that delta under that stamp, and every such
    assignment pushes), so dropping it never changes a pop outcome.
    """

    def __init__(self, state: SolutionState, objective):
        from .objectives import HeterogeneityObjective

        self._state = state
        self._objective = objective
        self._moves_by_donor: dict[int, dict[_MoveKey, float]] = {}
        self._dirty: set[int] = set(state.regions)
        # Areas moved since the last refresh: a neighbor-only dirty
        # region re-discovers receivers only around them.
        self._moved: list[int] = []
        # Only the paper objective is priced off the regions'
        # maintained sorted/prefix lists (and may take the vector
        # kernel); any other objective prices through its own
        # delta_move in the scalar kernel. Both kernels produce
        # identical move dicts in identical insertion order.
        self._heterogeneity = type(objective) is HeterogeneityObjective
        self._plan = _constraint_plan(state)
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._stamp: dict[int, int] = {}
        # Membership version each donor's moves were last derived at.
        self._derived_at: dict[int, int] = {}
        # Live moves (sum of the per-donor dict sizes), kept by
        # _refresh and best_admissible's eviction.
        self._live = 0
        # Scalar derive rows per donor, keyed by the donor's membership
        # version: after a move, regions adjacent to the moved area are
        # re-derived even though their *own* membership is unchanged,
        # so everything that depends solely on donor membership
        # survives verbatim. Region ids are never reused, so the
        # (id → version) key cannot alias across dissolve/new cycles.
        self._rows: dict[int, tuple[int, list]] = {}

    def after_move(self, area_id: int, donor_id: int, receiver_id: int) -> None:
        """Record the structural consequences of an executed move."""
        self._dirty.add(donor_id)
        self._dirty.add(receiver_id)
        self._moved.append(area_id)
        assignment = self._state.assignment
        for neighbor in self._state.collection.neighbors(area_id):
            neighbor_region = assignment.get(neighbor)
            if neighbor_region is not None:
                self._dirty.add(neighbor_region)

    def _refresh(self) -> None:
        regions = self._state.regions
        touched: set[int] = set()
        for area_id in self._moved:
            touched.update(self._state.collection.neighbors(area_id))
        batch: list[Region] = []  # vector-path donors, priced together
        for region_id in self._dirty:
            region = regions.get(region_id)
            if region is None:
                self._live -= len(self._moves_by_donor.get(region_id, ()))
                for cache in (
                    self._moves_by_donor, self._stamp, self._derived_at,
                    self._rows,
                ):
                    cache.pop(region_id, None)
            elif self._heterogeneity and len(region) >= _VECTOR_MIN_DONOR:
                batch.append(region)
            else:
                neighbor_only = (
                    self._derived_at.get(region_id) == region._version
                )
                self._store(region, self._derive_moves_scalar(
                    region, touched if neighbor_only else None
                ))
        for region, moves in zip(batch, self._derive_moves_batch(batch)):
            self._store(region, moves)
        self._dirty.clear()
        self._moved.clear()
        if len(self._heap) > _COMPACT_FACTOR * self._live + _COMPACT_SLACK:
            self._compact()

    def _store(self, region: Region, moves: dict[_MoveKey, float]) -> None:
        """Install *region*'s re-derived moves and push their heap
        entries: all of them under a new stamp, or — when its
        membership is what the old moves were derived at (it was dirty
        only as a neighbor) — only the new or changed ones under the
        old stamp."""
        region_id = region.region_id
        old = self._moves_by_donor.get(region_id)
        neighbor_only = self._derived_at.get(region_id) == region._version
        self._moves_by_donor[region_id] = moves
        self._derived_at[region_id] = region._version
        self._live += len(moves) - len(old or ())
        heap = self._heap
        if neighbor_only:
            # Same stamp: the entries of unchanged deltas stay valid.
            stamp = self._stamp[region_id]
            previous = old.get
            for key, delta in moves.items():
                if previous(key) != delta:
                    heappush(heap, (delta, *key, region_id, stamp))
        else:
            stamp = self._stamp[region_id] = self._stamp.get(region_id, 0) + 1
            for (area_id, receiver_id), delta in moves.items():
                heappush(heap, (delta, area_id, receiver_id, region_id, stamp))

    def _compact(self) -> None:
        """Rebuild the heap from the live moves alone (one entry each)."""
        stamps = self._stamp
        self._heap[:] = [
            (delta, area_id, receiver_id, donor_id, stamps[donor_id])
            for donor_id, moves in self._moves_by_donor.items()
            for (area_id, receiver_id), delta in moves.items()
        ]
        heapify(self._heap)

    def _derive_moves_scalar(
        self, donor: Region, touched: set[int] | None = None
    ) -> dict[_MoveKey, float]:
        """All valid moves donating one of *donor*'s boundary areas to
        an adjacent region, with their deltas, priced pair by pair off
        flat state: the pool's constraint plan, the regions'
        aggregate states and their sorted dissimilarity lists.

        The donor-side half — removable members in ascending id order
        that the donor can spare, with their removal deltas — depends
        only on the donor's membership and is cached as rows keyed by
        ``Region._version``. Each row also keeps its priced pairs as
        ``(receiver, receiver version, delta or None)``. With
        *touched* (the neighbors of the areas moved since the last
        refresh) and rows of the current version, only candidates in
        *touched* recompute their receiver sets, and only pairs whose
        receiver version moved are re-priced: every other pair is a
        pure function of two unchanged memberships, so the result is
        what a from-scratch derive returns.
        """
        moves: dict[_MoveKey, float] = {}
        if len(donor) <= 1:
            return moves
        donor_id = donor.region_id
        cached = self._rows.get(donor_id)
        if touched is None or cached is None or cached[0] != donor._version:
            rows = self._donor_rows(donor)
            self._rows[donor_id] = (donor._version, rows)
            touched = None
        else:
            rows = cached[1]
        state = self._state
        assignment = state.assignment
        regions = state.regions
        neighbors = state.collection.neighbors
        price = self._price_pair
        for row in rows:
            area_id, d, remove_delta, pairs = row
            if touched is None or area_id in touched:
                receiver_ids = {
                    region_id
                    for neighbor in neighbors(area_id)
                    if (region_id := assignment.get(neighbor)) is not None
                }
                receiver_ids.discard(donor_id)
                previous = {pair[0]: pair for pair in pairs}
                pairs = row[3] = []
                for receiver_id in sorted(receiver_ids):
                    receiver = regions[receiver_id]
                    pair = previous.get(receiver_id)
                    if pair is None or pair[1] != receiver._version:
                        pair = (
                            receiver_id,
                            receiver._version,
                            price(donor, receiver, area_id, d, remove_delta),
                        )
                    pairs.append(pair)
            else:
                for i, (receiver_id, version, _) in enumerate(pairs):
                    receiver = regions[receiver_id]
                    if version != receiver._version:
                        pairs[i] = (
                            receiver_id,
                            receiver._version,
                            price(donor, receiver, area_id, d, remove_delta),
                        )
            for receiver_id, _, delta in pairs:
                if delta is not None:
                    moves[(area_id, receiver_id)] = delta
        return moves

    def _donor_rows(self, donor: Region) -> list[list]:
        """Scalar derive rows ``[area, d, removal delta, pairs]`` of
        every removable member whose departure keeps *donor* feasible
        (``len(donor) >= 2``); the removal delta is ``None`` when the
        objective prices moves itself."""
        rows: list[list] = []
        spare = len(donor) - 1
        aggregates = donor._aggregates
        checks = []
        for aggregate, attribute, table, lower, upper in self._plan:
            if table is None:  # COUNT
                if not lower <= spare <= upper:
                    return rows
            else:
                checks.append(
                    (aggregate, aggregates[attribute], table, lower, upper)
                )
        if self._heterogeneity:
            values, prefix = donor._struct_views()
            total = prefix[-1]
            size = len(values)
        dissimilarity = donor._dissimilarities
        for area_id in sorted(donor.removable_areas()):
            for aggregate, agg, table, lower, upper in checks:
                v = table[area_id]
                if aggregate == Aggregate.SUM:
                    value = agg.sum - v
                elif aggregate == Aggregate.AVG:
                    value = (agg.sum - v) / (agg.count - 1)
                elif aggregate == Aggregate.MIN:
                    value = agg.min
                    if v <= value:  # the extremum may leave with it
                        value = agg.value_after_remove(aggregate, v)
                else:  # MAX
                    value = agg.max
                    if v >= value:
                        value = agg.value_after_remove(aggregate, v)
                if not lower <= value <= upper:
                    break
            else:
                d = dissimilarity[area_id]
                remove_delta = None
                if self._heterogeneity:
                    # -(sum_j |d - d_j|): Region.heterogeneity_delta_remove.
                    k = bisect_left(values, d)
                    below = prefix[k]
                    remove_delta = -(
                        (d * k - below) + ((total - below) - d * (size - k))
                    )
                rows.append([area_id, d, remove_delta, []])
        return rows

    def _price_pair(
        self,
        donor: Region,
        receiver: Region,
        area_id: int,
        d: float,
        remove_delta: float | None,
    ) -> float | None:
        """Delta of moving *area_id* (dissimilarity *d*) from *donor*
        into *receiver*, or ``None`` when the receiver cannot take it —
        ``Region.satisfies_after_add`` plus the objective's delta,
        off the constraint plan and the receiver's aggregate states."""
        perf = self._state.perf
        perf.candidate_evaluations += 1
        aggregates = receiver._aggregates
        for aggregate, attribute, table, lower, upper in self._plan:
            if table is None:  # COUNT
                value = len(receiver) + 1
            else:
                v = table[area_id]
                agg = aggregates[attribute]
                if aggregate == Aggregate.SUM:
                    value = agg.sum + v
                elif aggregate == Aggregate.AVG:
                    value = (agg.sum + v) / (agg.count + 1)
                elif aggregate == Aggregate.MIN:
                    value = agg.min
                    if v < value:
                        value = v
                else:  # MAX
                    value = agg.max
                    if v > value:
                        value = v
            if not lower <= value <= upper:
                return None
        if remove_delta is None:
            return self._objective.delta_move(donor, receiver, area_id)
        # Region.heterogeneity_delta_add, off the same maintained lists.
        perf.delta_fastpath += 2
        values, prefix = receiver._struct_views()
        k = bisect_left(values, d)
        below = prefix[k]
        return remove_delta + (
            (d * k - below) + ((prefix[-1] - below) - d * (len(values) - k))
        )

    def _derive_moves_batch(
        self, donors: list[Region]
    ) -> list[dict[_MoveKey, float]]:
        """Vector counterpart of :meth:`_derive_moves_scalar` for a
        whole refresh's large donors at once: one moves dict per donor,
        bit-identical to the scalar derive of that donor.

        One CSR gather over every donor's removable members finds all
        (candidate, receiver) pairs; only candidates that have a pair
        (a neighbor in another region) get donor-side work. Constraint
        verdicts and heterogeneity deltas are elementwise float64
        arithmetic that replays the scalar computation exactly, and
        pairs come out in (donor, area asc, receiver asc) order — the
        scalar insertion order within each donor.
        """
        perf = self._state.perf
        moves: list[dict[_MoveKey, float]] = [{} for _ in donors]
        # Donors that can give anything: two or more members, the COUNT
        # bounds still met with one fewer, and a removable member.
        slots: list[int] = []
        sizes: list[int] = []
        cand_ids: list[int] = []
        for slot, donor in enumerate(donors):
            if len(donor) <= 1:
                continue
            perf.vector_derives += 1
            spare = len(donor) - 1
            if all(
                table is not None or lower <= spare <= upper
                for _, _, table, lower, upper in self._plan
            ) and (candidates := donor.removable_areas()):
                cand_ids += sorted(candidates)
                sizes.append(len(candidates))
                slots.append(slot)
        if not slots:
            return moves
        active = [donors[slot] for slot in slots]
        cand_slot = np.repeat(np.arange(len(active)), sizes)
        astate = self._state.array_state
        arrays = astate.arrays
        cand_idx = arrays.positions(cand_ids)

        # Receiver discovery: one label gather over the candidates' CSR
        # rows, then the unique (candidate ordinal, receiver) pairs from
        # one sort of packed int64 codes.
        starts = arrays.indptr[cand_idx]
        counts = arrays.indptr[cand_idx + 1] - starts
        owner = np.repeat(np.arange(len(cand_idx)), counts)
        flat = np.arange(len(owner)) + np.repeat(
            starts - (np.cumsum(counts) - counts), counts
        )
        labels = astate.labels[arrays.indices[flat]]
        donor_ids = np.asarray([donor.region_id for donor in active])
        edge = (labels >= 0) & (labels != donor_ids[cand_slot[owner]])
        if not edge.any():
            return moves
        codes = np.sort((owner[edge] << _PAIR_SHIFT) | labels[edge])
        codes = codes[_run_starts(codes)]
        own = codes >> _PAIR_SHIFT
        recv = codes & _PAIR_MASK

        # Donor side, on the frontier candidates (those with a pair)
        # only: feasibility, then removal deltas -(sum_j |d - d_j|).
        first = _run_starts(own)
        pair_front = np.cumsum(first) - 1
        front_idx = cand_idx[own[first]]
        front_slot = cand_slot[own[first]]
        keep = self._donor_feasible(active, front_idx, front_slot)[pair_front]
        own, recv, pair_front = own[keep], recv[keep], pair_front[keep]
        if not len(own):
            return moves
        perf.candidate_evaluations += len(own)
        remove_delta = -_deviation_sums(
            active,
            np.searchsorted(front_slot, np.arange(len(active) + 1)).tolist(),
            arrays.dissimilarity[front_idx],
        )

        # Receiver side, on the pairs grouped by receiver: feasibility,
        # then pricing. Pairs a receiver cannot take are priced too and
        # dropped after.
        order = np.argsort(recv, kind="stable")
        first = _run_starts(recv[order])
        receivers = [
            self._state.regions[receiver_id]
            for receiver_id in recv[order][first].tolist()
        ]
        group = np.empty(len(recv), dtype=np.int64)
        group[order] = np.cumsum(first) - 1
        pair_idx = cand_idx[own]
        kept = self._receiver_feasible_all(recv, pair_idx, receivers, group)
        perf.delta_fastpath += 2 * int(kept.sum())
        deltas = np.empty(len(recv), dtype=np.float64)
        deltas[order] = remove_delta[pair_front[order]] + _deviation_sums(
            receivers,
            np.flatnonzero(first).tolist() + [len(recv)],
            arrays.dissimilarity[pair_idx[order]],
        )

        # One dict per donor from its slice of the kept pairs, which
        # stay in ascending (ordinal, receiver) order.
        own, recv, pair_idx = own[kept], recv[kept], pair_idx[kept]
        keys = list(zip(arrays.ids[pair_idx].tolist(), recv.tolist()))
        values = deltas[kept].tolist()
        cuts = np.searchsorted(cand_slot[own], np.arange(len(active) + 1))
        for slot, lo, hi in zip(slots, cuts[:-1].tolist(), cuts[1:].tolist()):
            if lo < hi:
                moves[slot] = dict(zip(keys[lo:hi], values[lo:hi]))
        return moves

    def _donor_feasible(self, donors: list[Region], cand_idx, cand_slot):
        """Elementwise ``satisfies_after_remove`` over candidates of
        several donors (*cand_slot* indexes *donors*; COUNT was checked
        by the caller).

        SUM/AVG are vector arithmetic on each donor's scalar aggregate
        state. A MIN/MAX candidate at the donor's extremum holds it,
        and every holder gives the same value after removal, so
        ``value_after_remove`` runs once per donor and constraint, and
        only when some candidate holds the extremum.
        """
        ok = np.ones(len(cand_idx), dtype=bool)
        columns = self._state.array_state.arrays.attributes
        for aggregate, attribute, table, lower, upper in self._plan:
            if table is None:  # COUNT
                continue
            vals = columns[attribute][cand_idx]
            states = [donor._aggregates[attribute] for donor in donors]
            if aggregate == Aggregate.SUM or aggregate == Aggregate.AVG:
                value = np.asarray([agg.sum for agg in states])[cand_slot] - vals
                if aggregate == Aggregate.AVG:
                    value /= np.asarray([agg.count - 1 for agg in states])[
                        cand_slot
                    ]
            else:
                is_min = aggregate == Aggregate.MIN
                extrema = [agg.min if is_min else agg.max for agg in states]
                value = np.asarray(extrema)[cand_slot]
                holds = (vals <= value) if is_min else (vals >= value)
                for slot in set(cand_slot[holds].tolist()):
                    extrema[slot] = states[slot].value_after_remove(
                        aggregate, extrema[slot]
                    )
                value = np.where(holds, np.asarray(extrema)[cand_slot], value)
            ok &= _within(value, lower, upper)
        return ok

    def _receiver_feasible_all(self, recv, pair_idx, receivers, group):
        """Elementwise ``satisfies_after_add`` over every (candidate,
        receiver) pair at once.

        SUM/AVG/COUNT read the flat per-region aggregate vectors the
        :class:`repro.core.arrays.ArrayState` sink maintains (bit-equal
        to the scalar :class:`~repro.core.aggregates.AggregateState`
        sums — ``check_indexes`` asserts exactly that); MIN/MAX read
        each of the unique *receivers*' cached extremum once (*group*
        is each pair's index into *receivers*).
        """
        astate = self._state.array_state
        columns = astate.arrays.attributes
        counts = astate.region_count[recv] + 1
        ok = np.ones(len(recv), dtype=bool)
        for aggregate, attribute, table, lower, upper in self._plan:
            if table is None:  # COUNT
                value = counts
            elif aggregate == Aggregate.SUM or aggregate == Aggregate.AVG:
                value = astate.region_sums[attribute][recv] + columns[
                    attribute
                ][pair_idx]
                if aggregate == Aggregate.AVG:
                    value /= counts
            else:
                states = [region._aggregates[attribute] for region in receivers]
                if aggregate == Aggregate.MIN:
                    extrema = np.asarray([agg.min for agg in states])
                    value = np.minimum(extrema[group], columns[attribute][pair_idx])
                else:
                    extrema = np.asarray([agg.max for agg in states])
                    value = np.maximum(extrema[group], columns[attribute][pair_idx])
            ok &= _within(value, lower, upper)
        return ok

    def _live_delta(
        self, area_id: int, donor_id: int, receiver_id: int
    ) -> float | None:
        """Re-evaluate one cached move against live region state.

        Returns the accurate delta, or ``None`` when the move is no
        longer valid."""
        state = self._state
        donor = state.regions.get(donor_id)
        receiver = state.regions.get(receiver_id)
        if donor is None or receiver is None or area_id not in donor:
            return None
        if len(donor) <= 1:
            return None
        if not receiver.touches(area_id):
            return None
        constraints = state.constraints
        if not donor.satisfies_after_remove(constraints, area_id):
            return None
        if not receiver.satisfies_after_add(constraints, area_id):
            return None
        if not donor.remains_contiguous_without(area_id):
            return None
        return self._objective.delta_move(donor, receiver, area_id)

    def random_admissible(
        self, rng: Random
    ) -> tuple[float, int, int, int] | None:
        """A uniformly random valid move as ``(delta, area, donor,
        receiver)`` — the portfolio perturbation kick. Deterministic in
        the *rng* state."""
        self._refresh()
        candidates: list[tuple[int, int, int]] = []
        for donor_id in sorted(self._moves_by_donor):
            for area_id, receiver_id in sorted(self._moves_by_donor[donor_id]):
                candidates.append((area_id, donor_id, receiver_id))
        while candidates:
            area_id, donor_id, receiver_id = candidates.pop(
                rng.randrange(len(candidates))
            )
            live = self._live_delta(area_id, donor_id, receiver_id)
            if live is not None:
                return (live, area_id, donor_id, receiver_id)
        return None

    def best_admissible(
        self,
        iteration: int,
        tabu_until: dict[_MoveKey, int],
        current_h: float,
        best_h: float,
    ) -> tuple[float, int, int, int] | None:
        """The lowest-delta admissible move as
        ``(delta, area, donor, receiver)``, or ``None``.

        Chosen moves are re-validated against live state: a stale
        entry is corrected (or evicted) and the query repeats, so the
        returned move is always executable with an exact delta. Served
        by the heap index in the same candidate order as an exhaustive
        scan of the pool.
        """
        self._refresh()
        heap = self._heap
        moves_by_donor = self._moves_by_donor
        stamps = self._stamp
        deferred: list[tuple[float, int, int, int, int]] = []
        chosen: tuple[float, int, int, int] | None = None
        while heap:
            entry = heappop(heap)
            delta, area_id, receiver_id, donor_id, stamp = entry
            if stamp != stamps.get(donor_id):
                continue  # donor re-derived since this entry was pushed
            moves = moves_by_donor.get(donor_id)
            if moves is None:
                continue
            key = (area_id, receiver_id)
            cached = moves.get(key)
            if cached is None or cached != delta:
                continue  # evicted or superseded by a corrected entry
            if tabu_until.get(key, 0) >= iteration and (
                current_h + delta >= best_h - 1e-9
            ):
                deferred.append(entry)  # tabu now, maybe not next time
                continue
            live = self._live_delta(area_id, donor_id, receiver_id)
            if live is None:
                del moves[key]
                self._live -= 1
                continue
            if abs(live - cached) > 1e-9:
                moves[key] = live
                heappush(heap, (live, area_id, receiver_id, donor_id, stamp))
                continue
            deferred.append(entry)  # the chosen move stays in the pool
            chosen = (live, area_id, donor_id, receiver_id)
            break
        for entry in deferred:
            heappush(heap, entry)
        return chosen
