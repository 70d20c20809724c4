"""One solve in a fresh process, the way a command-line user pays for it.

Invoked by ``workloads.py`` as ``python solve_child.py '<json>'`` with
the keys ``dataset``, ``scale``, ``constraints``, ``seed`` and
``trace``. It times set-up (from before ``import repro`` through
``load_dataset`` and the collection's array build) and the solve, then
checks the answer outside the timed region and prints one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time


def labels_digest(labels: dict) -> str:
    """sha256 of the partition's (area, region) pairs sorted by area."""
    pairs = sorted((int(area), int(region)) for area, region in labels.items())
    return hashlib.sha256(json.dumps(pairs).encode("ascii")).hexdigest()


def build_constraints(repro, kind: str, scale: float):
    """The workload's constraint set, built through the public API."""
    if kind == "enriched":
        # Eight constraints over all five aggregate families. SUM(TOTALPOP)
        # >= 800k per 2 344 areas sets ~260-area regions; it scales with
        # the dataset so reduced test runs keep the region granularity.
        threshold = 800_000.0 * scale
        return repro.ConstraintSet(
            [
                repro.min_constraint("POP16UP", -math.inf, 3000),
                repro.avg_constraint("EMPLOYED", 1500, 3500),
                repro.sum_constraint("TOTALPOP", threshold, math.inf),
                repro.avg_constraint("TOTALPOP", 2500, 6500),
                repro.sum_constraint("EMPLOYED", 0.25 * threshold, math.inf),
                repro.max_constraint("HOUSEHOLDS", 1000, math.inf),
                repro.avg_constraint("HOUSEHOLDS", 500, 5000),
                repro.count_constraint(10, 2000),
            ]
        )
    if kind == "mas":
        # Table II defaults: MIN(POP16UP) <= 3000, AVG(EMPLOYED) in
        # [1500, 3500], SUM(TOTALPOP) >= 20000.
        return repro.ConstraintSet(
            [
                repro.min_constraint("POP16UP", upper=3000),
                repro.avg_constraint("EMPLOYED", 1500, 3500),
                repro.sum_constraint("TOTALPOP", lower=20000),
            ]
        )
    raise ValueError(f"unknown constraint set {kind!r}")


def main(payload: dict) -> dict:
    started = time.perf_counter()
    import repro
    from repro.core import arrays

    trace = None
    if payload["trace"]:
        from tracing import Trace

        trace = Trace().install()
    loaded = time.perf_counter()
    collection = repro.load_dataset(
        payload["dataset"], scale=payload["scale"], seed=payload["seed"]
    )
    if trace is not None:
        trace.record("data.load_dataset", loaded, time.perf_counter())
    arrays.collection_arrays(collection)
    setup_s = time.perf_counter() - started

    constraints = build_constraints(repro, payload["constraints"], payload["scale"])
    n = len(collection)
    # Patience equal to the cap: every solve runs exactly n Tabu
    # iterations, so solve time does not swing with where the search
    # happens to stall.
    config = repro.FaCTConfig(
        rng_seed=payload["seed"],
        construction_iterations=3,
        construction_retry_attempts=0,
        tabu_max_no_improve=n,
        tabu_max_iterations=n,
    )
    solve_started = time.perf_counter()
    solution = repro.FaCT(config).solve(collection, constraints)
    wall_s = time.perf_counter() - solve_started

    errors = []
    if solution.status is not repro.RunStatus.COMPLETE:
        errors.append(f"status {solution.status.value}")
    if solution.p < 1:
        errors.append("no region formed")
    problems = solution.partition.validate(collection, constraints)
    if problems:
        errors.append(f"invalid partition: {problems[:3]}")
    certificate = repro.certify_partition(
        solution.partition, collection, constraints
    )
    if not certificate.valid or certificate.p != solution.p:
        errors.append("certification failed")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "p": solution.p,
        "heterogeneity": solution.heterogeneity,
        "digest": labels_digest(solution.partition.labels()),
        "perf": solution.summary()["perf"],
        "errors": errors,
        "trace": trace.as_dict() if trace is not None else None,
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
