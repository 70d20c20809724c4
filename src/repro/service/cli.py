"""Service command line: ``python -m repro.service <command>``.

Commands
--------
``serve``
    Start the HTTP API (plus an optional fleet of worker subprocesses)
    over a store directory. SIGTERM/SIGINT drain gracefully: workers
    checkpoint and re-queue their in-flight solves, the server stops
    accepting requests, and every lease is either released or left to
    expire — no job is ever lost.
``worker``
    Run one worker loop against a store directory (what ``serve
    --workers N`` spawns as subprocesses, and what the crash-recovery
    tests SIGKILL).
``submit``
    Queue a job straight into the store (no HTTP round trip).
``status``
    Show one job, or per-state counts for the whole store.
``cancel``
    Request cancellation of a job.
``reap``
    One manual pass of lease expiry (normally automatic).

``python -m repro serve …`` is an alias for ``serve`` here.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from typing import Sequence

from ..exceptions import ReproError
from ..runtime.retry import RetryPolicy
from .jobs import JobSpec
from .store import JobStore
from .worker import ServiceWorker

__all__ = ["main"]


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="job store directory (journal, leases, results)",
    )


def _add_retry(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retry-max-attempts", type=int, default=3, metavar="N",
        help="attempts per job before dead-lettering (default 3)",
    )
    parser.add_argument(
        "--retry-base-delay", type=float, default=0.5, metavar="SECONDS",
        help="backoff before the first retry (default 0.5)",
    )
    parser.add_argument(
        "--retry-backoff-factor", type=float, default=2.0, metavar="X",
        help="exponential backoff multiplier (default 2.0)",
    )
    parser.add_argument(
        "--retry-max-delay", type=float, default=60.0, metavar="SECONDS",
        help="backoff ceiling (default 60)",
    )
    parser.add_argument(
        "--lease-seconds", type=float, default=30.0, metavar="SECONDS",
        help="lease granted per claim; expiry re-queues the job "
        "(default 30)",
    )


def _store_from(args) -> JobStore:
    return JobStore(
        args.store,
        retry_policy=RetryPolicy(
            max_attempts=args.retry_max_attempts,
            base_delay_seconds=args.retry_base_delay,
            backoff_factor=args.retry_backoff_factor,
            max_delay_seconds=args.retry_max_delay,
        ),
        lease_seconds=args.lease_seconds,
    )


def _spawn_worker(args, index: int) -> subprocess.Popen:
    command = [
        sys.executable,
        "-m",
        "repro.service",
        "worker",
        "--store",
        args.store,
        "--worker-id",
        f"serve-w{index}",
        "--retry-max-attempts",
        str(args.retry_max_attempts),
        "--retry-base-delay",
        str(args.retry_base_delay),
        "--retry-backoff-factor",
        str(args.retry_backoff_factor),
        "--retry-max-delay",
        str(args.retry_max_delay),
        "--lease-seconds",
        str(args.lease_seconds),
    ]
    if args.heartbeat_seconds is not None:
        command += ["--heartbeat-seconds", str(args.heartbeat_seconds)]
    return subprocess.Popen(command)


def _run_serve(args) -> int:
    from .api import serve

    store = _store_from(args)
    server, reaper = serve(
        store,
        host=args.host,
        port=args.port,
        reap_seconds=args.reap_seconds,
        stall_seconds=args.stall_seconds,
    )
    workers = [_spawn_worker(args, index) for index in range(args.workers)]

    def _drain(signum, frame):
        # Graceful drain: workers checkpoint + re-queue, then exit; the
        # HTTP server stops from a helper thread (shutdown() must not
        # run on the serve_forever thread).
        for proc in workers:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        import threading

        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _drain)
    signal.signal(signal.SIGINT, _drain)

    host, port = server.server_address[:2]
    print(f"repro solve service on http://{host}:{port} "
          f"(store: {args.store}, workers: {args.workers})", flush=True)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        reaper.stop()
        server.server_close()
        deadline = time.monotonic() + args.drain_seconds
        for proc in workers:
            remaining = max(deadline - time.monotonic(), 0.1)
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        # Final reap so leases the drain released show as QUEUED.
        store.reap_expired()
    print("drained.", flush=True)
    return 0


def _run_worker(args) -> int:
    store = _store_from(args)
    worker = ServiceWorker(
        store,
        worker_id=args.worker_id,
        poll_seconds=args.poll_seconds,
        heartbeat_seconds=args.heartbeat_seconds,
    )

    signal.signal(signal.SIGTERM, lambda signum, frame: worker.drain())
    signal.signal(signal.SIGINT, lambda signum, frame: worker.drain())

    processed = worker.run_forever(max_jobs=args.max_jobs)
    print(f"worker {worker.worker_id}: {processed} job(s) processed",
          flush=True)
    return 0


def _run_submit(args) -> int:
    store = _store_from(args)
    config = json.loads(args.config) if args.config else {}
    retry = None
    if args.job_retry_max_attempts is not None:
        retry = RetryPolicy(
            max_attempts=args.job_retry_max_attempts,
            base_delay_seconds=args.retry_base_delay,
            backoff_factor=args.retry_backoff_factor,
            max_delay_seconds=args.retry_max_delay,
        ).as_dict()
    spec = JobSpec(
        dataset=args.dataset,
        scale=args.scale,
        dataset_seed=args.dataset_seed,
        constraints=args.constraint,
        config=config,
        priority=args.priority,
        deadline_seconds=args.deadline,
        retry=retry,
        label=args.label,
    )
    job = store.submit(spec)
    print(json.dumps(job.as_dict(), indent=1, sort_keys=True))
    return 0


def _run_status(args) -> int:
    store = _store_from(args)
    if args.job_id:
        print(json.dumps(store.get(args.job_id).as_dict(), indent=1,
                         sort_keys=True))
        return 0
    counts = store.counts()
    print(json.dumps(
        {
            "counts": counts,
            "jobs": [
                {"job_id": job.job_id, "state": job.state,
                 "attempts": job.attempts, "label": job.spec.label}
                for job in store.jobs()
            ],
        },
        indent=1, sort_keys=True,
    ))
    return 0


def _run_cancel(args) -> int:
    store = _store_from(args)
    job = store.cancel(args.job_id)
    print(f"{job.job_id}: {job.state}"
          + (" (cancel requested)" if job.cancel_requested else ""))
    return 0


def _run_reap(args) -> int:
    store = _store_from(args)
    reaped = store.reap_expired()
    for job in reaped:
        print(f"{job.job_id}: {job.state} ({job.detail})")
    print(f"{len(reaped)} lease(s) reaped")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="durable EMP solve service (job queue + worker fleet)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve_cmd = commands.add_parser("serve", help="HTTP API + worker fleet")
    _add_store(serve_cmd)
    _add_retry(serve_cmd)
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument("--port", type=int, default=8008)
    serve_cmd.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker subprocesses to run (0 = API only)",
    )
    serve_cmd.add_argument(
        "--heartbeat-seconds", type=float, default=None, metavar="SECONDS",
        help="worker heartbeat interval (default: lease/3)",
    )
    serve_cmd.add_argument(
        "--reap-seconds", type=float, default=1.0, metavar="SECONDS",
        help="lease-expiry sweep cadence (default 1.0)",
    )
    serve_cmd.add_argument(
        "--drain-seconds", type=float, default=30.0, metavar="SECONDS",
        help="grace period for workers on shutdown (default 30)",
    )
    serve_cmd.add_argument(
        "--stall-seconds", type=float, default=10.0, metavar="SECONDS",
        help="watchdog silence threshold before a running job is "
        "reported stalled (0 disables the watchdog; default 10)",
    )

    worker_cmd = commands.add_parser("worker", help="run one worker loop")
    _add_store(worker_cmd)
    _add_retry(worker_cmd)
    worker_cmd.add_argument("--worker-id", default=None)
    worker_cmd.add_argument(
        "--poll-seconds", type=float, default=0.2, metavar="SECONDS",
        help="cap on the idle wait; journal appends, retry windows and "
        "lease expiries wake the worker sooner (default 0.2)",
    )
    worker_cmd.add_argument(
        "--heartbeat-seconds", type=float, default=None, metavar="SECONDS"
    )
    worker_cmd.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after N jobs (default: run until drained)",
    )

    submit_cmd = commands.add_parser("submit", help="queue a job")
    _add_store(submit_cmd)
    _add_retry(submit_cmd)
    submit_cmd.add_argument("--dataset", default="2k")
    submit_cmd.add_argument("--scale", type=float, default=1.0)
    submit_cmd.add_argument("--dataset-seed", type=int, default=None)
    submit_cmd.add_argument(
        "--constraint", "-c", action="append", default=[],
        metavar="AGG:ATTR:L:U", help="may repeat; '-' for an open bound",
    )
    submit_cmd.add_argument(
        "--config", default=None, metavar="JSON",
        help='FaCTConfig overrides, e.g. \'{"rng_seed": 11, "n_jobs": 2}\'',
    )
    submit_cmd.add_argument("--priority", type=int, default=0)
    submit_cmd.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget",
    )
    submit_cmd.add_argument(
        "--job-retry-max-attempts", type=int, default=None, metavar="N",
        help="override the service retry policy for this job",
    )
    submit_cmd.add_argument("--label", default="")

    status_cmd = commands.add_parser("status", help="job / store status")
    _add_store(status_cmd)
    _add_retry(status_cmd)
    status_cmd.add_argument("job_id", nargs="?", default=None)

    cancel_cmd = commands.add_parser("cancel", help="cancel a job")
    _add_store(cancel_cmd)
    _add_retry(cancel_cmd)
    cancel_cmd.add_argument("job_id")

    reap_cmd = commands.add_parser("reap", help="sweep expired leases once")
    _add_store(reap_cmd)
    _add_retry(reap_cmd)

    args = parser.parse_args(argv)
    runners = {
        "serve": _run_serve,
        "worker": _run_worker,
        "submit": _run_submit,
        "status": _run_status,
        "cancel": _run_cancel,
        "reap": _run_reap,
    }
    try:
        return runners[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - CLI dispatch
    raise SystemExit(main())
