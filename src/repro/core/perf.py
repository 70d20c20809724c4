"""Hot-path instrumentation: performance counters.

The FaCT phases spend almost all their wall-clock answering two kinds
of queries — "may this area leave its region?" (contiguity) and "what
borders this region?" (frontier/adjacency). Both are served by
incremental caches (:meth:`repro.core.region.Region.removable_areas`,
the indexes inside :class:`repro.fact.state.SolutionState`).
:class:`PerfCounters` is a lightweight mutable struct counting cache
hits, rebuilds, full graph traversals and candidate evaluations. One
instance is owned by each ``SolutionState`` and surfaces on
:class:`repro.fact.solver.EMPSolution` and in the benchmark harness.
Phase wall-clock is not kept here: it is ``EMPSolution.phase_seconds``
and the telemetry registry's ``phase_seconds`` counters.

The recompute-from-scratch reference semantics of every cached query
live in ``tests/oracles/hotpath_reference.py``; the test suite replays
the cached paths against them and asserts bit-identical answers.
"""

from __future__ import annotations

__all__ = ["PerfCounters"]


class PerfCounters:
    """Mutable hot-path counters shared by a solver run.

    Attributes
    ----------
    contiguity_checks:
        Calls to ``Region.remains_contiguous_without`` (every Step-3
        swap/trim candidate and every Tabu donor re-validation).
    oracle_hits:
        Contiguity answers served from a region's cached
        articulation/removable set — O(1) each.
    oracle_rebuilds:
        Lazy rebuilds of that cache that ran a **full** Tarjan/component
        pass over the region — the first query of a fresh region, plus
        every fallback (amortized over every query between two
        mutations of the same region).
    oracle_incremental:
        Oracle rebuilds answered by replaying the region's pending
        membership mutations into its maintained block-cut structure
        (:class:`repro.contiguity.graph.BlockCutIndex`) instead of a
        full DFS — additions are pure block-cut-tree surgery, removals
        re-split only the affected biconnected block.
    oracle_fallbacks:
        Oracle rebuilds where a block-cut structure existed but could
        not absorb the pending mutations (articulation-point removal,
        disconnection, overlong mutation log) and a full DFS ran
        instead. Always ≤ ``oracle_rebuilds``.
    graph_traversals:
        Full passes over a region's induced subgraph — the full
        Hopcroft–Tarjan/component oracle rebuilds, the quantity the
        incremental oracle exists to minimize. (The reference
        semantics in ``tests/oracles/hotpath_reference.py`` count one
        per contiguity query.)
    full_bfs_checks:
        Contiguity checks that were answered by running a full BFS
        over the region (as opposed to an O(1) oracle lookup): only a
        check that itself triggers the lazy oracle rebuild counts.
        (The reference semantics in
        ``tests/oracles/hotpath_reference.py`` run one BFS per check.)
    candidate_evaluations:
        Candidate moves examined by Step-3 adjustment and the Tabu
        move-pool derivation.
    frontier_queries / adjacency_queries:
        Region-frontier and region-adjacency lookups served by the
        ``SolutionState`` indexes.
    index_updates:
        Incremental index maintenance operations (one per area
        assignment change; O(degree) each).
    delta_fastpath:
        Heterogeneity/objective delta queries answered off a region's
        *maintained* sorted-values + prefix-sums structure — an
        O(log g) bisection, no re-sort of the region's dissimilarity
        vector.
    delta_recompute:
        Delta queries that had to (re)build the sorted structure from
        scratch — the first query of a fresh region. (The reference
        semantics in ``tests/oracles/hotpath_reference.py`` re-sort on
        every query.)
    objective_struct_updates:
        Incremental maintenance operations on the objective structures
        (one sorted-list insertion/deletion or coordinate-sum update
        per region mutation).
    vector_derives:
        Tabu move-pool derivations answered by the numpy batch scorer
        (:mod:`repro.core.arrays`) instead of the scalar per-candidate
        loop. Zero when every donor is below the vector-derive size
        threshold.
    donor_cache_hits:
        Vector derives whose donor-side payload (candidate order, CSR
        gather geometry, donor feasibility, removal deltas) was reused
        from the membership-version-keyed cache — the donor was
        re-derived because a *neighboring* region changed, not its own
        membership. Zero when no vector derive ran.
    pool_task_failures:
        Worker-pool tasks that raised, returned an unpicklable result,
        or died with their worker (each failure is retried or degraded
        — see :func:`repro.fact.pool.collect_resilient`).
    pool_task_retries:
        Failed tasks resubmitted to the (possibly restarted) pool.
    pool_tasks_degraded:
        Tasks that exhausted their retries (or tripped the per-task
        deadline) and were re-run in-process instead.
    pool_broken_restarts:
        Times a dead executor (``BrokenProcessPool``) was torn down and
        rebuilt mid-solve.
    pool_task_timeouts:
        Tasks abandoned because they exceeded
        ``FaCTConfig.worker_task_deadline_seconds``.
    checkpoint_writes:
        Atomic solve-checkpoint snapshots written
        (``FaCTConfig.checkpoint_path``).
    checkpoint_replays:
        Construction passes / portfolio members replayed from a resume
        checkpoint instead of being recomputed.
    certifications:
        Independent certification passes run over a partition
        (``FaCTConfig.certify``).
    """

    _COUNTER_FIELDS = (
        "contiguity_checks",
        "oracle_hits",
        "oracle_rebuilds",
        "oracle_incremental",
        "oracle_fallbacks",
        "graph_traversals",
        "full_bfs_checks",
        "candidate_evaluations",
        "frontier_queries",
        "adjacency_queries",
        "index_updates",
        "delta_fastpath",
        "delta_recompute",
        "objective_struct_updates",
        "vector_derives",
        "donor_cache_hits",
        "pool_task_failures",
        "pool_task_retries",
        "pool_tasks_degraded",
        "pool_broken_restarts",
        "pool_task_timeouts",
        "checkpoint_writes",
        "checkpoint_replays",
        "certifications",
    )
    __slots__ = _COUNTER_FIELDS

    def __init__(self) -> None:
        for name in self._COUNTER_FIELDS:
            setattr(self, name, 0)

    # ------------------------------------------------------------------
    @property
    def oracle_hit_rate(self) -> float:
        """Fraction of oracle lookups served without a rebuild."""
        total = self.oracle_hits + self.oracle_rebuilds
        if total == 0:
            return 0.0
        return self.oracle_hits / total

    @property
    def oracle_incremental_rate(self) -> float:
        """Fraction of oracle rebuilds served by block-cut replay
        instead of a full Hopcroft–Tarjan pass."""
        total = self.oracle_incremental + self.oracle_rebuilds
        if total == 0:
            return 0.0
        return self.oracle_incremental / total

    @property
    def delta_fastpath_rate(self) -> float:
        """Fraction of objective-delta queries answered off the
        maintained structure (no from-scratch re-sort)."""
        total = self.delta_fastpath + self.delta_recompute
        if total == 0:
            return 0.0
        return self.delta_fastpath / total

    def merge(self, other: "PerfCounters") -> "PerfCounters":
        """Fold *other*'s counters into this one."""
        for name in self._COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def reset(self) -> None:
        """Zero every counter."""
        for name in self._COUNTER_FIELDS:
            setattr(self, name, 0)

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (JSON-serializable) for reports and bench
        output."""
        payload: dict[str, object] = {
            name: getattr(self, name) for name in self._COUNTER_FIELDS
        }
        payload["oracle_hit_rate"] = round(self.oracle_hit_rate, 4)
        payload["oracle_incremental_rate"] = round(
            self.oracle_incremental_rate, 4
        )
        payload["delta_fastpath_rate"] = round(self.delta_fastpath_rate, 4)
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(
            f"{name}={getattr(self, name)}" for name in self._COUNTER_FIELDS
        )
        return f"PerfCounters({inner})"
