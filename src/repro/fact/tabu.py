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
previous move"; a region dirty only as a neighbor re-prices just the
pairs the move changed. On top of the pool sits a **lazy min-heap
index**: entries are invalidated by a per-donor generation stamp or a
superseded delta instead of being searched for, the per-iteration
"best admissible move" query pops a handful of entries instead of
scanning the entire pool — O(log m) amortized versus O(m) per
iteration — and the heap is compacted to the live moves once dead
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

# Donors smaller than this take the scalar derive: the vector path pays
# a fixed per-derive cost (CSR gather, pair dedup, kernel dispatch)
# that only amortizes once the donor boundary yields a few dozen
# candidate pairs. Both paths are bit-identical by contract, so this is
# purely a dispatch heuristic, set at the measured crossover (DESIGN
# §13): small-region workloads (many tiny regions) run at scalar
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
    where moves can appear or disappear). A region that is dirty only
    as a neighbor keeps its membership (``Region._version``), so its
    donor-side work is reused and only what the move changed is
    re-priced (see :meth:`_derive_moves_scalar`). Cached entries of
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
        # Donor-side derive caches, keyed by the donor's membership
        # version: after a move, regions adjacent to the moved area are
        # re-derived even though their *own* membership is unchanged
        # (only their neighborhood changed), so everything that depends
        # solely on donor membership survives verbatim. Region ids are
        # never reused, so the (id → version) key cannot alias across
        # dissolve/new cycles. `_donor_cache` serves the vector kernel
        # (candidate order, CSR gather geometry, donor-side feasibility
        # and removal deltas); `_rows` the scalar one (candidate rows
        # plus their priced pairs).
        self._donor_cache: dict[int, tuple[int, tuple | None]] = {}
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
        heap = self._heap
        regions = self._state.regions
        moves_by_donor = self._moves_by_donor
        stamps = self._stamp
        neighbors = self._state.collection.neighbors
        touched: set[int] = set()
        for area_id in self._moved:
            touched.update(neighbors(area_id))
        for region_id in self._dirty:
            old = moves_by_donor.get(region_id)
            region = regions.get(region_id)
            if region is None:
                if old is not None:
                    self._live -= len(old)
                for cache in (
                    moves_by_donor, stamps, self._derived_at,
                    self._donor_cache, self._rows,
                ):
                    cache.pop(region_id, None)
                continue
            version = region._version
            neighbor_only = (
                old is not None and self._derived_at[region_id] == version
            )
            moves = self._derive_moves(
                region, touched if neighbor_only else None
            )
            moves_by_donor[region_id] = moves
            self._derived_at[region_id] = version
            self._live += len(moves) - len(old or ())
            if neighbor_only:
                # Same stamp: the entries of unchanged deltas stay valid.
                stamp = stamps[region_id]
            else:
                stamps[region_id] = stamp = stamps.get(region_id, 0) + 1
                old = {}
            for (area_id, receiver_id), delta in moves.items():
                if old.get((area_id, receiver_id)) != delta:
                    heappush(
                        heap, (delta, area_id, receiver_id, region_id, stamp)
                    )
        self._dirty.clear()
        self._moved.clear()
        if len(heap) > _COMPACT_FACTOR * self._live + _COMPACT_SLACK:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from the live moves alone (one entry each)."""
        stamps = self._stamp
        self._heap[:] = [
            (delta, area_id, receiver_id, donor_id, stamps[donor_id])
            for donor_id, moves in self._moves_by_donor.items()
            for (area_id, receiver_id), delta in moves.items()
        ]
        heapify(self._heap)

    def _derive_moves(
        self, donor: Region, touched: set[int] | None = None
    ) -> dict[_MoveKey, float]:
        """All valid moves donating one of *donor*'s boundary areas to
        an adjacent region, with their deltas.

        Dispatches to the numpy batch scorer when the pool allows it
        and the donor is large enough to amortize the vector path's
        fixed overhead (``_VECTOR_MIN_DONOR``); the scalar loop serves
        small donors. Identical output either way — same keys, same
        deltas (bit for bit), same insertion order — so the heap index
        and the tabu trajectory cannot tell the two kernels apart.
        *touched* marks a neighbor-only re-derive (see
        :meth:`_derive_moves_scalar`).
        """
        if self._heterogeneity and len(donor) >= _VECTOR_MIN_DONOR:
            return self._derive_moves_vector(donor)
        return self._derive_moves_scalar(donor, touched)

    def _derive_moves_scalar(
        self, donor: Region, touched: set[int] | None = None
    ) -> dict[_MoveKey, float]:
        """Per-pair counterpart of :meth:`_derive_moves_vector`, read
        off flat state: the pool's constraint plan, the regions'
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

    def _derive_moves_vector(self, donor: Region) -> dict[_MoveKey, float]:
        """Batch counterpart of :meth:`_derive_moves_scalar`.

        One CSR gather discovers every (candidate, receiver) pair of
        the donor boundary at once; constraint verdicts and
        heterogeneity deltas are then evaluated as elementwise float64
        vector arithmetic. Each step replays the exact scalar
        computation (``searchsorted`` == ``bisect_left``, the same
        closed-form ``rank·d − prefix[rank]`` pricing off the same
        maintained prefix lists, IEEE-identical elementwise ops), so
        the resulting move dict is bit-identical to the scalar one.
        """
        state = self._state
        moves: dict[_MoveKey, float] = {}
        if len(donor) <= 1:
            return moves
        astate = state.array_state
        arrays = astate.arrays
        perf = state.perf
        perf.vector_derives += 1
        donor_id = donor.region_id
        # Everything that depends only on the donor's own membership is
        # cached across derives and reused verbatim while the donor's
        # membership version stands still (neighbor-only dirtiness).
        cached = self._donor_cache.get(donor_id)
        if cached is not None and cached[0] == donor._version:
            payload = cached[1]
            perf.donor_cache_hits += 1
        else:
            payload = self._donor_payload(donor, arrays)
            self._donor_cache[donor_id] = (donor._version, payload)
        if payload is None:
            return moves
        cand_ids, cand_idx, nbr_cols, owner, donor_ok, remove_delta = payload

        # Receiver discovery: one label gather over the candidates'
        # precomputed CSR columns.
        neighbor_labels = astate.labels[nbr_cols]
        edge = (neighbor_labels >= 0) & (neighbor_labels != donor_id)
        if not edge.any():
            return moves
        # Unique (candidate, receiver) pairs via one packed-int64
        # unique — far cheaper than a row-wise unique, same sorted
        # (area asc, receiver asc) order after decoding.
        codes = np.unique(
            (owner[edge] << _PAIR_SHIFT) | neighbor_labels[edge]
        )
        own = codes >> _PAIR_SHIFT
        recv = codes & _PAIR_MASK

        # Donor-side feasibility, vectorized over the candidates.
        pair_keep = donor_ok[own]
        if not pair_keep.all():
            own = own[pair_keep]
            recv = recv[pair_keep]
            if not len(own):
                return moves
        perf.candidate_evaluations += len(own)
        pair_idx = cand_idx[own]

        # Receiver-side feasibility over every pair at once (off the
        # flat per-region aggregate vectors), then pricing in one small
        # batch per adjacent region.
        ok = self._receiver_feasible_all(recv, pair_idx)
        kept = np.nonzero(ok)[0]
        priced = len(kept)
        deltas = np.empty(len(own), dtype=np.float64)
        if priced:
            regions = state.regions
            dissimilarity = arrays.dissimilarity
            recv_kept = recv[kept]
            order = np.argsort(recv_kept, kind="stable")
            sorted_rows = kept[order]
            sorted_recv = recv_kept[order]
            bounds = np.nonzero(np.diff(sorted_recv))[0] + 1
            group_starts = np.concatenate(([0], bounds)).tolist()
            group_ends = np.concatenate(
                (bounds, [len(sorted_recv)])
            ).tolist()
            group_ids = sorted_recv[np.concatenate(([0], bounds))].tolist()
            for start, end, receiver_id in zip(
                group_starts, group_ends, group_ids
            ):
                rows = sorted_rows[start:end]
                receiver = regions[receiver_id]
                r_values, r_prefix = receiver._struct_arrays()
                d_rows = dissimilarity[pair_idx[rows]]
                r_rank = r_values.searchsorted(d_rows, side="left")
                r_below = r_prefix[r_rank]
                r_above = r_prefix[-1] - r_below
                deltas[rows] = remove_delta[own[rows]] + (
                    (d_rows * r_rank - r_below)
                    + (r_above - d_rows * (len(r_values) - r_rank))
                )
        # Mirror the scalar path's accounting: each priced pair would
        # have cost one donor-side and one receiver-side delta query.
        perf.delta_fastpath += 2 * priced

        # Batch-convert once; per-row int()/float() coercions dominate
        # the dict build otherwise. kept is ascending, so insertion
        # order stays (area asc, receiver asc) — the scalar order.
        for o, r, delta in zip(
            own[kept].tolist(), recv[kept].tolist(), deltas[kept].tolist()
        ):
            moves[(cand_ids[o], r)] = delta
        return moves

    def _donor_payload(self, donor: Region, arrays):
        """Donor-membership-only intermediates of the vector derive.

        Returns ``(cand_ids, cand_idx, nbr_cols, owner, donor_ok,
        remove_delta)`` or ``None`` when the donor yields no candidate
        moves at all. Every array here is a pure function of the
        donor's member set plus static problem data (CSR topology,
        constraint bounds, dissimilarity), so the tuple stays valid —
        and is reused verbatim — until the donor's own membership
        changes (tracked by ``Region._version``).
        """
        candidates = donor.removable_areas()
        if not candidates:
            return None
        # Candidates in ascending area-id order — the scalar loop's
        # iteration order, which fixes the move-dict insertion order.
        cand_ids = sorted(candidates)
        cand_idx = arrays.positions(cand_ids)

        # CSR gather geometry: the concatenated neighbor columns of
        # every candidate row, plus each column's owning candidate.
        indptr = arrays.indptr
        starts = indptr[cand_idx]
        counts = indptr[cand_idx + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return None
        offsets = np.repeat(np.cumsum(counts) - counts, counts)
        flat = (
            np.arange(total, dtype=np.int64)
            - offsets
            + np.repeat(starts, counts)
        )
        nbr_cols = arrays.indices[flat]
        owner = np.repeat(
            np.arange(len(cand_ids), dtype=np.int64), counts
        )

        # Donor-side feasibility, vectorized over the candidates.
        donor_ok = self._donor_feasible_vector(donor, cand_idx)

        # Donor-side delta: -(sum_j |d - d_j|) off the maintained
        # sorted/prefix structure — the batch form of
        # Region.heterogeneity_delta_remove.
        values_arr, prefix_arr = donor._struct_arrays()
        d_cand = arrays.dissimilarity[cand_idx]
        rank = values_arr.searchsorted(d_cand, side="left")
        below = prefix_arr[rank]
        above = prefix_arr[-1] - below
        remove_delta = -(
            (d_cand * rank - below)
            + (above - d_cand * (len(values_arr) - rank))
        )
        return (cand_ids, cand_idx, nbr_cols, owner, donor_ok, remove_delta)

    def _donor_feasible_vector(self, donor: Region, cand_idx):
        """Elementwise ``satisfies_after_remove`` over the candidates.

        The batch form of the scalar per-constraint loop: SUM/AVG are
        pure vector arithmetic on the scalar aggregate state, MIN/MAX
        vectorize the common "not the extremum" case and fall back to
        the exact scalar rule only for candidates holding the cached
        extremum. ``len(donor) >= 2`` is guaranteed by the caller.
        """
        state = self._state
        arrays = state.array_state.arrays
        ok = np.ones(len(cand_idx), dtype=bool)
        # One gather per distinct attribute — constraint sets reuse
        # attributes across aggregate families.
        gathered: dict[str, object] = {}
        for constraint in state.constraints:
            aggregate = constraint.aggregate
            if aggregate == Aggregate.COUNT:
                if not constraint.contains(float(len(donor) - 1)):
                    ok[:] = False
                continue
            aggregate_state = donor._state(constraint.attribute)
            vals = gathered.get(constraint.attribute)
            if vals is None:
                vals = arrays.attributes[constraint.attribute][cand_idx]
                gathered[constraint.attribute] = vals
            if aggregate == Aggregate.SUM:
                value = aggregate_state.sum - vals
            elif aggregate == Aggregate.AVG:
                value = (aggregate_state.sum - vals) / (
                    aggregate_state.count - 1
                )
            elif aggregate == Aggregate.MIN:
                cached = aggregate_state.min
                value = np.full(len(vals), cached)
                for i in np.nonzero(vals <= cached)[0]:
                    value[i] = aggregate_state.value_after_remove(
                        Aggregate.MIN, float(vals[i])
                    )
            else:  # MAX
                cached = aggregate_state.max
                value = np.full(len(vals), cached)
                for i in np.nonzero(vals >= cached)[0]:
                    value[i] = aggregate_state.value_after_remove(
                        Aggregate.MAX, float(vals[i])
                    )
            # Finite values never fail an infinite bound, so skip
            # those comparisons — half the verdict work for the
            # one-sided constraints that dominate real workloads.
            if constraint.lower != _NEG_INF:
                ok &= value >= constraint.lower
            if constraint.upper != _POS_INF:
                ok &= value <= constraint.upper
        return ok

    def _receiver_feasible_all(self, recv, pair_idx):
        """Elementwise ``satisfies_after_add`` over every (candidate,
        receiver) pair at once.

        SUM/AVG/COUNT read the flat per-region aggregate vectors the
        :class:`repro.core.arrays.ArrayState` sink maintains (bit-equal
        to the scalar :class:`~repro.core.aggregates.AggregateState`
        sums — ``check_indexes`` asserts exactly that); MIN/MAX gather
        each receiver's cached extremum once per unique receiver.
        """
        state = self._state
        astate = state.array_state
        arrays = astate.arrays
        region_count = astate.region_count
        ok = np.ones(len(recv), dtype=bool)
        # Shared gathers: unique receivers (every MIN/MAX constraint),
        # per-attribute candidate values and receiver sums, and the
        # receiver count column — each computed at most once per call.
        uniq = None
        counts = None
        gathered: dict[str, object] = {}
        sums: dict[str, object] = {}
        for constraint in state.constraints:
            aggregate = constraint.aggregate
            if aggregate == Aggregate.COUNT:
                if counts is None:
                    counts = region_count[recv]
                value = counts + 1
            else:
                attribute = constraint.attribute
                vals = gathered.get(attribute)
                if vals is None:
                    vals = arrays.attributes[attribute][pair_idx]
                    gathered[attribute] = vals
                if aggregate == Aggregate.SUM:
                    total = sums.get(attribute)
                    if total is None:
                        total = astate.region_sums[attribute][recv]
                        sums[attribute] = total
                    value = total + vals
                elif aggregate == Aggregate.AVG:
                    total = sums.get(attribute)
                    if total is None:
                        total = astate.region_sums[attribute][recv]
                        sums[attribute] = total
                    if counts is None:
                        counts = region_count[recv]
                    value = (total + vals) / (counts + 1)
                else:  # MIN / MAX
                    if uniq is None:
                        uniq = np.unique(recv, return_inverse=True)
                    extrema = self._receiver_extrema(constraint, uniq)
                    if aggregate == Aggregate.MIN:
                        value = np.minimum(extrema, vals)
                    else:
                        value = np.maximum(extrema, vals)
            if constraint.lower != _NEG_INF:
                ok &= value >= constraint.lower
            if constraint.upper != _POS_INF:
                ok &= value <= constraint.upper
        return ok

    def _receiver_extrema(self, constraint, uniq):
        """Each pair's receiver-side cached MIN/MAX aggregate, gathered
        once per unique receiver (receivers per donor boundary are
        few). *uniq* is ``np.unique(recv, return_inverse=True)``."""
        regions = self._state.regions
        unique_recv, inverse = uniq
        attribute = constraint.attribute
        if constraint.aggregate == Aggregate.MIN:
            gathered = [
                regions[r]._state(attribute).min
                for r in unique_recv.tolist()
            ]
        else:
            gathered = [
                regions[r]._state(attribute).max
                for r in unique_recv.tolist()
            ]
        return np.asarray(gathered, dtype=np.float64)[inverse]

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
