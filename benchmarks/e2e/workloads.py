"""The three workloads of the end-to-end benchmark.

``enriched-2k`` and ``mas-10k`` time CLI-style solves: every solve
runs in a fresh child process (``solve_child.py``), one after another,
so each pays imports, dataset generation and the array build the way a
command-line user does. ``service-stream`` drives the solve service
from this process: one generator thread submits through
``ServiceAPI.submit`` while one ``python -m repro.service worker``
subprocess executes the jobs. Load never exceeds two busy processes.

Every input is derived from the run's seed: operation ``k`` of a run
with seed ``S`` uses dataset seed and solver seed ``100 * S + k``, so
runs with different seeds share no input.

Each ``run_*`` function returns a plain dict: ``attempted``/``failed``
operations, per-operation ``digests``, ``errors``, the end-to-end
metric values ``e2e`` and, for traced runs, the per-layer values
``layers`` plus the names the wrappers could not find (``untraced``).
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_e2e"

SOLVERS = {
    # nominal_solve_s sizes a run from --seconds; it is a constant, so
    # two commits always get the same number of solves.
    "enriched-2k": {"dataset": "2k", "constraints": "enriched", "nominal_solve_s": 5.0},
    "mas-10k": {"dataset": "10k", "constraints": "mas", "nominal_solve_s": 6.0},
}
SERVICE = "service-stream"
WORKLOADS = (*SOLVERS, SERVICE)

# service-stream shape: open-loop arrivals per second, drain jobs per
# measured second, jobs per dataset/solver seed cycle, 117-area jobs
# that each run exactly 117 Tabu iterations (as the solver workloads
# run n, so job cost does not swing with where a search stalls).
SERVICE_RATE = 5.0
SERVICE_DRAIN_PER_SECOND = 2.5
SERVICE_SEED_CYCLE = 16
SERVICE_SCALE = 0.05
SERVICE_TABU_ITERATIONS = 117
STATUS_POLL_S = 0.05  # the generator's 20 Hz status polling
SETUP_SAMPLES = 3

_TERMINAL = ("completed", "failed", "cancelled", "dead")


class Censored(Exception):
    """The run outlived its watchdog; its numbers must not be used."""


def op_seed(seed: int, index: int) -> int:
    return 100 * seed + index


def child_env() -> dict:
    """Environment for every child: this checkout's ``src`` first, and
    no ``REPRO_*`` variables, so children run the library defaults."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def _remaining(deadline: float | None) -> float | None:
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise Censored("watchdog expired")
    return left


def percentile(values, q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def _children_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux: the largest child waited for so far.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _sum_perf(perfs: list[dict]) -> dict:
    totals: dict[str, float] = {}
    for perf in perfs:
        for key, value in perf.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    return totals


# ----------------------------------------------------------------------
# solver workloads
# ----------------------------------------------------------------------
def solver_count(name: str, seconds: float) -> int:
    return max(1, round(seconds / SOLVERS[name]["nominal_solve_s"]))


def run_solver(
    name: str,
    seed: int,
    solves: int,
    trace: bool = False,
    scale: float = 1.0,
    deadline: float | None = None,
) -> dict:
    """Run *solves* fresh-process solves of workload *name*."""
    spec = SOLVERS[name]
    ops, errors, traces = [], [], []
    for index in range(solves):
        payload = {
            "dataset": spec["dataset"],
            "scale": scale,
            "constraints": spec["constraints"],
            "seed": op_seed(seed, index),
            "trace": trace,
        }
        try:
            completed = subprocess.run(
                [sys.executable, str(HERE / "solve_child.py"), json.dumps(payload)],
                env=child_env(),
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=_remaining(deadline),
            )
        except subprocess.TimeoutExpired as error:
            raise Censored(f"solve {index} outlived the watchdog") from error
        if completed.returncode != 0:
            errors.append(
                f"solve {index}: exit {completed.returncode}: "
                + completed.stderr.strip()[-500:]
            )
            continue
        op = json.loads(completed.stdout.strip().splitlines()[-1])
        if op["errors"]:
            errors.append(f"solve {index}: " + "; ".join(op["errors"]))
            continue
        ops.append(op)
        if op["trace"] is not None:
            traces.append(op["trace"])

    result = {
        "attempted": solves,
        "failed": solves - len(ops),
        "errors": errors,
        "digests": [op["digest"] for op in ops],
        "e2e": {},
    }
    if ops:
        walls = [op["wall_s"] for op in ops]
        result["e2e"] = {
            "setup_s": statistics.median(op["setup_s"] for op in ops),
            "solve_s": sum(walls),
            "latency_p50_s": percentile(walls, 0.5),
            "latency_p90_s": percentile(walls, 0.9),
            "drain_jobs_per_s": len(walls) / sum(walls),
            "p_total": sum(op["p"] for op in ops),
            "heterogeneity_total": sum(op["heterogeneity"] for op in ops),
            "peak_rss_mb": _children_peak_rss_mb(),
        }
    if trace:
        extra = {"ops": len(ops), "perf": _sum_perf([op["perf"] for op in ops])}
        result.update(layer_metrics(traces, extra))
    return result


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def _job_payload(seed: int, index: int, label: str, scale: float) -> dict:
    job_seed = op_seed(seed, index % SERVICE_SEED_CYCLE)
    return {
        "dataset": "2k",
        "scale": scale,
        "dataset_seed": job_seed,
        "config": {
            "rng_seed": job_seed,
            "tabu_max_no_improve": SERVICE_TABU_ITERATIONS,
            "tabu_max_iterations": SERVICE_TABU_ITERATIONS,
        },
        "label": label,
    }


def _spawn_worker(store_dir: Path, index: int, trace: bool) -> subprocess.Popen:
    worker_argv = ["worker", "--store", str(store_dir), "--worker-id", f"bench-w{index}"]
    if trace:
        command = [
            sys.executable,
            str(HERE / "traced_worker.py"),
            "--trace-out",
            str(store_dir / f"trace-w{index}.json"),
            "--",
            *worker_argv,
        ]
    else:
        command = [sys.executable, "-m", "repro.service", *worker_argv]
    with open(store_dir / f"worker-{index}.log", "w", encoding="utf-8") as log:
        return subprocess.Popen(
            command,
            env=child_env(),
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
        )


def _stop_worker(proc: subprocess.Popen) -> None:
    """SIGTERM drains the worker; kill it if the drain hangs."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class _Generator:
    """Submits jobs and polls their status from one thread."""

    def __init__(self, api, deadline: float | None):
        self.api = api
        self.deadline = deadline
        self.outstanding: list[str] = []
        self.final: dict[str, dict] = {}
        self.submit_s: list[float] = []
        self._next_poll = 0.0

    def submit(self, payload: dict) -> str:
        started = time.perf_counter()
        status, body = self.api.submit(payload)
        self.submit_s.append(time.perf_counter() - started)
        if status != 201:
            raise RuntimeError(f"submit rejected ({status}): {body}")
        self.outstanding.append(body["job_id"])
        return body["job_id"]

    def poll(self) -> None:
        """One status read of the oldest unfinished job (at most 20 Hz)."""
        now = time.perf_counter()
        if now < self._next_poll or not self.outstanding:
            return
        self._next_poll = now + STATUS_POLL_S
        job_id = self.outstanding[0]
        _, body = self.api.status(job_id)
        if body.get("state") in _TERMINAL:
            self.final[job_id] = body
            self.outstanding.pop(0)

    def wait_until(self, due: float) -> None:
        """Keep polling until the perf_counter instant *due*."""
        while True:
            _remaining(self.deadline)
            now = time.perf_counter()
            if now >= due:
                return
            self.poll()
            time.sleep(max(0.0, min(due, self._next_poll) - time.perf_counter()))

    def drain(self) -> None:
        while self.outstanding:
            self.wait_until(time.perf_counter() + STATUS_POLL_S)


def _journal_times(path: Path) -> dict[str, dict[str, float]]:
    """First submit/lease/run and the terminal timestamp of every job."""
    times: dict[str, dict[str, float]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            job = times.setdefault(record.get("job"), {})
            if record.get("kind") == "submit":
                job["submit"] = record["ts"]
            elif record.get("kind") == "transition":
                state = record["state"]
                key = state if state in ("leased", "running") else "terminal"
                if key == "terminal" and state not in _TERMINAL:
                    continue
                job.setdefault(key, record["ts"])
    return times


def service_counts(seconds: float) -> tuple[int, int]:
    """(open-loop jobs, drain jobs) for a run measuring *seconds*."""
    return (
        max(1, round(SERVICE_RATE * seconds)),
        max(1, round(SERVICE_DRAIN_PER_SECOND * seconds)),
    )


def run_service(
    seed: int,
    open_jobs: int,
    drain_jobs: int,
    trace: bool = False,
    rate: float = SERVICE_RATE,
    setups: int = SETUP_SAMPLES,
    scale: float = SERVICE_SCALE,
    deadline: float | None = None,
) -> dict:
    """Open loop at *rate* jobs/s, then *drain_jobs* back to back."""
    from repro.service.api import ServiceAPI
    from repro.service.store import JobStore

    WORK.mkdir(exist_ok=True)
    store_dir = WORK / f"service-{seed}-{os.getpid()}"
    shutil.rmtree(store_dir, ignore_errors=True)
    store_dir.mkdir()
    generator_trace = None
    if trace:
        from tracing import Trace

        generator_trace = Trace().install()
    workers: list[subprocess.Popen] = []
    try:
        api = ServiceAPI(JobStore(store_dir))
        gen = _Generator(api, deadline)

        # Set-up: worker spawn -> warm-up job terminal, several times.
        setup_s, warmups = [], []
        for index in range(setups):
            spawned = time.time()
            workers.append(_spawn_worker(store_dir, index, trace))
            job_id = gen.submit(_job_payload(seed, 0, f"warmup-{index}", scale))
            gen.drain()
            warmups.append(job_id)
            setup_s.append(gen.final[job_id]["updated_at"] - spawned)
            if index < setups - 1:
                _stop_worker(workers[-1])

        # Open loop: job i is due at start + i / rate, whatever happened
        # to the jobs before it.
        late, due_wall, open_ids = [], {}, []
        start = time.perf_counter() + 0.1
        start_wall = time.time() + (start - time.perf_counter())
        for index in range(open_jobs):
            due = start + index / rate
            gen.wait_until(due)
            late.append(time.perf_counter() - due)
            job_id = gen.submit(_job_payload(seed, index, f"open-{index}", scale))
            due_wall[job_id] = start_wall + index / rate
            open_ids.append(job_id)
        gen.drain()

        # Drain: back-to-back submits keep the worker busy throughout.
        drain_started = time.time()
        drain_ids = [
            gen.submit(_job_payload(seed, index, f"drain-{index}", scale))
            for index in range(drain_jobs)
        ]
        gen.drain()
        for proc in workers:
            _stop_worker(proc)
        peak_rss_mb = _children_peak_rss_mb()
        generator_view = None
        if generator_trace is not None:
            generator_trace.uninstall()
            generator_view = generator_trace.as_dict()

        # Correctness, outside the timed region.
        measured = open_ids + drain_ids
        errors, digests, solved = [], [], {}
        for job_id in warmups + measured:
            try:
                solved[job_id], digest = _checked(api, gen.final[job_id])
            except _WrongResult as error:
                errors.append(f"{job_id}: {error}")
                continue
            digests.append(digest)

        def finished(job_id: str) -> float:
            if job_id not in solved:
                return math.inf
            return gen.final[job_id]["updated_at"]

        latency = [finished(job_id) - due_wall[job_id] for job_id in open_ids]
        drain_span = max(finished(job_id) for job_id in drain_ids) - drain_started
        summaries = [solved[job_id] for job_id in measured if job_id in solved]
        attempted = len(warmups) + len(measured)
        result = {
            "attempted": attempted,
            "failed": attempted - len(digests),
            "errors": errors,
            "digests": digests,
            "e2e": {
                "setup_s": statistics.median(setup_s),
                "solve_s": sum(
                    s["construction_seconds"] + s["tabu_seconds"]
                    for s in summaries
                ),
                "latency_p50_s": percentile(latency, 0.5),
                "latency_p90_s": percentile(latency, 0.9),
                "drain_jobs_per_s": drain_jobs / drain_span,
                "p_total": sum(s["p"] for s in summaries),
                "heterogeneity_total": sum(
                    s["heterogeneity_after"] for s in summaries
                ),
                "peak_rss_mb": peak_rss_mb,
            },
        }
        if trace:
            traces = [generator_view]
            for index in range(setups):
                with open(store_dir / f"trace-w{index}.json", encoding="utf-8") as handle:
                    traces.append(json.load(handle))
            extra = _service_extra(
                store_dir, JobStore, attempted, open_ids, late, gen.submit_s,
                summaries,
            )
            result.update(layer_metrics(traces, extra))
        return result
    finally:
        for proc in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if generator_trace is not None:
            generator_trace.uninstall()
        shutil.rmtree(store_dir, ignore_errors=True)


class _WrongResult(Exception):
    """A service job whose outcome failed the correctness gate."""


def _checked(api, final: dict) -> tuple[dict, str]:
    """(result summary, partition digest) of one finished job."""
    from repro import Partition
    from repro.service.jobs import JobSpec
    from solve_child import labels_digest

    if final.get("state") != "completed" or final.get("result_status") != "complete":
        raise _WrongResult(f"ended {final.get('state')}/{final.get('result_status')}")
    job_id = final["job_id"]
    _, result = api.result(job_id)
    status, certificate = api.certificate(job_id)
    if status != 200 or not certificate.get("valid"):
        raise _WrongResult("no valid certificate")
    summary = result["summary"]
    if certificate.get("p") != summary["p"]:
        raise _WrongResult("result p differs from certificate p")
    labels = {int(area): int(region) for area, region in result["labels"].items()}
    spec = JobSpec.from_dict(final["spec"])
    problems = Partition.from_labels(labels).validate(
        spec.build_collection(), spec.build_constraints()
    )
    if problems:
        raise _WrongResult(f"invalid partition: {problems[:3]}")
    return summary, labels_digest(labels)


def _service_extra(store_dir, JobStore, jobs, open_ids, late, submit_s, summaries):
    """Inputs of the service layers' metrics. Queue wait, lease-to-run
    and run time come from the journal, over the open-loop jobs (the
    parts of ``latency_*``)."""
    journal = store_dir / "journal.jsonl"
    extra = {
        "ops": jobs,
        "perf": _sum_perf([s.get("perf") or {} for s in summaries]),
        "late": late,
        "submit_s": submit_s,
        "journal_bytes": journal.stat().st_size,
    }
    started = time.perf_counter()
    JobStore(store_dir).jobs()
    extra["replay_s"] = time.perf_counter() - started
    try:
        times = [_journal_times(journal)[job_id] for job_id in open_ids]
        parts = {
            key: [job[second] - job[first] for job in times]
            for key, first, second in (
                ("queue_wait", "submit", "leased"),
                ("lease_to_run", "leased", "running"),
                ("run", "running", "terminal"),
            )
        }
    except (OSError, KeyError, ValueError):
        return extra  # journal format changed: these metrics are untraced
    return {**extra, **parts}




# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
# Each metric maps to (needs, value). A need is a trace target, a solve
# perf counter ("perf.<key>") or a key of the run's extra inputs; when
# one is missing the metric is left out and the need listed untraced.
# A metric of a layer the workload never calls reads 0: the wrapper was
# installed and saw no call. Percentiles of an empty sample read 0 too.
def _per(value: float, count: float) -> float:
    return value / count if count else 0.0


def _in_tabu(parent) -> bool:
    return parent == "fact.tabu"


def _not_tabu(parent) -> bool:
    return parent != "fact.tabu"


def _seconds(*names, parents=None):
    return names, lambda v, x: sum(v.seconds(name, parents) for name in names)


def _self_seconds(name):
    return (name,), lambda v, x: v.self_seconds(name)


def _calls(name, parents=None):
    return (name,), lambda v, x: v.calls(name, parents)


def _calls_per_job(name):
    return (name,), lambda v, x: _per(v.calls(name), x["ops"])


def _p50(name):
    return (name,), lambda v, x: percentile(v.durations.get(name, []), 0.5)


def _counter(name, attribute):
    key = f"{name}.{attribute}"
    return (name, key), lambda v, x: v.counters.get(key, 0)


def _perf(key):
    return (f"perf.{key}",), lambda v, x: x["perf"][key]


def _perf_share(key, other):
    """key / (key + other), e.g. oracle refreshes served incrementally."""
    return (
        (f"perf.{key}", f"perf.{other}"),
        lambda v, x: _per(x["perf"][key], x["perf"][key] + x["perf"][other]),
    )


def _extra_quantile(key, q):
    return (key,), lambda v, x: percentile(x[key], q)


def _us_per_iteration(v, x) -> float:
    return 1e6 * _per(v.seconds("fact.tabu"), v.counters.get("fact.tabu.iterations", 0))


def _overhead_frac(v, x) -> float:
    """Estimated traced / untraced solve time - 1: the calibrated cost
    of every wrapped call over the traced ``FaCT.solve`` time without it."""
    untraced = v.seconds("fact.solve") - v.overhead_s
    return _per(v.overhead_s, untraced) if untraced > 0 else 0.0


LAYER_METRICS = {
    "data.load_dataset_s": _seconds("data.load_dataset"),
    "core.arrays.collection_arrays_s": _seconds("core.arrays.collection_arrays"),
    "preflight.s": _seconds("preflight.scan", "preflight.report", "preflight.gate"),
    "preflight.gate_s_p50": _p50("preflight.gate"),
    "fact.feasibility.s": _seconds("fact.feasibility"),
    "fact.construction.s": _seconds("fact.construction"),
    "fact.construction.self_s": _self_seconds("fact.construction"),
    "fact.seeding.s": _seconds("fact.seeding"),
    "fact.growing.s": _seconds("fact.growing"),
    "fact.adjustment.s": _seconds("fact.adjustment"),
    "fact.adjustment.self_s": _self_seconds("fact.adjustment"),
    "fact.state.move_construction_s": _seconds("fact.state.move", parents=_not_tabu),
    "fact.state.move_construction_calls": _calls("fact.state.move", _not_tabu),
    "fact.state.from_labels_s": _seconds("fact.state.from_labels"),
    "fact.portfolio.s": _seconds("fact.portfolio"),
    "fact.tabu.s": _seconds("fact.tabu"),
    "fact.tabu.self_s": _self_seconds("fact.tabu"),
    "fact.tabu.iterations": _counter("fact.tabu", "iterations"),
    "fact.tabu.moves": _counter("fact.tabu", "moves_applied"),
    "fact.tabu.us_per_iteration": (
        ("fact.tabu", "fact.tabu.iterations"), _us_per_iteration
    ),
    "fact.state.move_tabu_s": _seconds("fact.state.move", parents=_in_tabu),
    "fact.state.move_tabu_calls": _calls("fact.state.move", _in_tabu),
    "perf.vector_derives": _perf("vector_derives"),
    "perf.candidate_evaluations": _perf("candidate_evaluations"),
    "perf.candidate_evals_per_derive": (
        ("perf.candidate_evaluations", "perf.vector_derives"),
        lambda v, x: _per(
            x["perf"]["candidate_evaluations"], x["perf"]["vector_derives"]
        ),
    ),
    "perf.donor_cache_hits": _perf("donor_cache_hits"),
    "perf.delta_fastpath_rate": _perf_share("delta_fastpath", "delta_recompute"),
    "perf.oracle_rebuilds": _perf("oracle_rebuilds"),
    "perf.oracle_incremental": _perf("oracle_incremental"),
    "perf.oracle_fallbacks": _perf("oracle_fallbacks"),
    "perf.oracle_incremental_rate": _perf_share("oracle_incremental", "oracle_rebuilds"),
    "core.region.removable_areas_s": _seconds("core.region.removable_areas"),
    "core.region.removable_areas_calls": _calls("core.region.removable_areas"),
    "certify.s_p50": _p50("certify"),
    "certify.calls": _calls("certify"),
    "service.api.submit_s_p50": _extra_quantile("submit_s", 0.5),
    "service.api.submit_s_p90": _extra_quantile("submit_s", 0.9),
    "service.store.submit_s_p50": _p50("service.store.submit"),
    "runtime.atomic.append_line_calls_per_job": _calls_per_job("runtime.atomic.append_line"),
    "runtime.atomic.append_line_s_p50": _p50("runtime.atomic.append_line"),
    "runtime.atomic.atomic_write_text_calls_per_job": _calls_per_job(
        "runtime.atomic.atomic_write_text"
    ),
    "runtime.atomic.atomic_write_text_s_p50": _p50("runtime.atomic.atomic_write_text"),
    "service.journal_bytes_per_job": (
        ("journal_bytes",), lambda v, x: _per(x["journal_bytes"], x["ops"])
    ),
    "service.replay_s": (("replay_s",), lambda v, x: x["replay_s"]),
    "service.queue_wait_s_p50": _extra_quantile("queue_wait", 0.5),
    "service.queue_wait_s_p90": _extra_quantile("queue_wait", 0.9),
    "service.lease_to_run_s_p50": _extra_quantile("lease_to_run", 0.5),
    "service.run_s_p50": _extra_quantile("run", 0.5),
    "service.run_s_p90": _extra_quantile("run", 0.9),
    "service.jobspec.build_collection_s_p50": _p50("service.jobspec.build_collection"),
    "fact.solve_s_p50": _p50("fact.solve"),
    "obs.events.flush_calls_per_job": _calls_per_job("obs.events.flush"),
    "obs.events.flush_s_total": _seconds("obs.events.flush"),
    "trace.overhead_frac": (("fact.solve",), _overhead_frac),
    "gen.late_max_s": (("late",), lambda v, x: max(x["late"], default=0.0)),
    "gen.late_p90_s": _extra_quantile("late", 0.9),
}

# Extra inputs only the service run produces. Solver runs get these
# empty defaults: the service layers did no work there.
_SERVICE_EXTRA = {
    "late": [], "submit_s": [], "journal_bytes": 0, "replay_s": 0.0,
    "queue_wait": [], "lease_to_run": [], "run": [],
}


def layer_metrics(traces: list[dict], extra: dict) -> dict:
    """``layers`` (metric -> value), ``untraced`` and the raw traces."""
    from tracing import TraceView

    view = TraceView(traces)
    if "late" not in extra:
        extra = {**_SERVICE_EXTRA, **extra}

    def missing(need: str) -> bool:
        if need.startswith("perf."):
            return need[len("perf."):] not in extra["perf"]
        if need in _SERVICE_EXTRA:
            return need not in extra
        return need in view.untraced

    layers, untraced = {}, set(view.untraced)
    for metric, (needs, value) in LAYER_METRICS.items():
        absent = [need for need in needs if missing(need)]
        if absent:
            untraced.update(absent)
        else:
            layers[metric] = value(view, extra)
    return {"layers": layers, "untraced": sorted(untraced), "traces": traces}
