"""Operations console: ``obs top`` and ``obs tail`` over the HTTP API.

Both commands are thin stdlib-urllib clients of the solve service and
deliberately read nothing beyond what any HTTP client can reach: the
job listing plus the offset-poll events API (``GET /jobs`` and
``GET /jobs/<id>/events?offset=N``). Progress, ETA and health are
derived client-side with :class:`repro.obs.progress.ProgressModel` —
the console needs no privileged view of the store.

``obs top`` renders a refreshing fleet table (job, state, phase,
percent, ETA, health, worker); ``obs tail --job <id>`` follows one
job's span/progress stream as it lands in the journal.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request

from .progress import ProgressModel

__all__ = ["FleetClient", "FleetTop", "render_top", "run_tail", "run_top"]


class FleetClient:
    """Minimal JSON client for the service API (stdlib urllib only)."""

    def __init__(self, base_url: str, timeout: float = 10.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _get(self, path: str) -> dict:
        with urllib.request.urlopen(
            self.base_url + path, timeout=self.timeout
        ) as response:
            return json.loads(response.read().decode("utf-8"))

    def jobs(self) -> list[dict]:
        return self._get("/jobs").get("jobs", [])

    def events(self, job_id: str, offset: int = 0) -> dict:
        return self._get(f"/jobs/{job_id}/events?offset={int(offset)}")


class _JobFollow:
    """Accumulated event stream of one job."""

    __slots__ = ("events", "offset")

    def __init__(self):
        self.events: list[dict] = []
        self.offset = 0


class FleetTop:
    """Stateful fleet poller: incremental event offsets per job."""

    def __init__(self, client: FleetClient):
        self.client = client
        self._follows: dict[str, _JobFollow] = {}
        self._model = ProgressModel()

    def rows(self, now: float | None = None) -> list[dict]:
        """One table row per job, newest first by creation order."""
        if now is None:
            now = time.time()
        rows: list[dict] = []
        for job in self.client.jobs():
            job_id = job.get("job_id", "?")
            follow = self._follows.get(job_id)
            if follow is None:
                follow = self._follows[job_id] = _JobFollow()
            try:
                page = self.client.events(job_id, offset=follow.offset)
            except (urllib.error.URLError, OSError, ValueError):
                page = {}
            fresh = page.get("events") or []
            follow.events.extend(fresh)
            follow.offset = page.get("next_offset", follow.offset)
            active = job.get("state") in ("leased", "running")
            snap = self._model.snapshot(
                follow.events, now=now if active else None
            )
            rows.append(
                {
                    "job_id": job_id,
                    "state": job.get("state", "?"),
                    "phase": snap["phase"] or "-",
                    "fraction": snap["fraction"],
                    "eta_seconds": snap["eta_seconds"] if active else None,
                    "health": job.get("health") or "-",
                    "worker": job.get("worker_id") or "-",
                    "attempts": job.get("attempts", 0),
                }
            )
        return rows


def _fmt_eta(seconds) -> str:
    if seconds is None:
        return "-"
    seconds = max(float(seconds), 0.0)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


_COLUMNS = (
    ("JOB", "job_id", 16),
    ("STATE", "state", 9),
    ("PHASE", "phase", 12),
    ("%", None, 6),
    ("ETA", None, 7),
    ("HEALTH", "health", 8),
    ("ATT", "attempts", 3),
    ("WORKER", "worker", 14),
)


def render_top(rows: list[dict]) -> str:
    """The fleet table as text (one header + one line per job)."""
    lines = [
        "  ".join(title.ljust(width) for title, _, width in _COLUMNS)
    ]
    for row in rows:
        cells = []
        for title, key, width in _COLUMNS:
            if title == "%":
                value = f"{row['fraction'] * 100:5.1f}%"
            elif title == "ETA":
                value = _fmt_eta(row["eta_seconds"])
            else:
                value = str(row.get(key, "-"))
            cells.append(value[:width].ljust(width))
        lines.append("  ".join(cells))
    if not rows:
        lines.append("(no jobs)")
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    once: bool = False,
    interval: float = 2.0,
    iterations: int | None = None,
    stream=None,
) -> int:
    """The ``obs top`` loop; ``once`` prints a single snapshot."""
    stream = stream or sys.stdout
    top = FleetTop(FleetClient(url))
    count = 0
    while True:
        try:
            table = render_top(top.rows())
        except (urllib.error.URLError, OSError) as error:
            print(f"cannot reach {url}: {error}", file=stream)
            return 1
        if not once:
            stream.write("\x1b[2J\x1b[H")  # clear + home
        stream.write(f"fleet @ {url}\n{table}")
        stream.flush()
        count += 1
        if once or (iterations is not None and count >= iterations):
            return 0
        time.sleep(interval)


def format_event(event: dict, base_ts: float | None) -> str:
    """One compact line for ``obs tail``."""
    ts = event.get("ts")
    offset = (
        f"+{float(ts) - base_ts:8.2f}s"
        if isinstance(ts, (int, float)) and base_ts is not None
        else " " * 10
    )
    kind = event.get("kind", "?")
    if kind == "progress":
        detail = (
            f"{event.get('phase')} {event.get('done')}/{event.get('total')}"
        )
    elif kind in ("span", "span.start"):
        detail = str(event.get("name", ""))
        if kind == "span" and event.get("end") and event.get("start"):
            detail += f" ({event['end'] - event['start']:.2f}s)"
    elif kind == "metrics.snapshot":
        detail = str(event.get("phase", ""))
    elif kind == "health":
        detail = f"{event.get('health')} ({event.get('detail', '')})"
    else:
        detail = str(event.get("status", "") or "")
    return f"{offset}  {kind:<18} {detail}".rstrip()


def run_tail(
    url: str,
    job_id: str,
    follow: bool = True,
    interval: float = 0.5,
    max_polls: int | None = None,
    stream=None,
) -> int:
    """The ``obs tail --job <id>`` loop: offset-poll one job's events,
    print each as a line; stops when the job reaches a terminal state
    (or after one poll with ``follow=False``)."""
    stream = stream or sys.stdout
    client = FleetClient(url)
    offset = 0
    base_ts: float | None = None
    polls = 0
    while True:
        try:
            page = client.events(job_id, offset=offset)
        except urllib.error.HTTPError as error:
            print(f"job {job_id}: HTTP {error.code}", file=stream)
            return 1
        except (urllib.error.URLError, OSError) as error:
            print(f"cannot reach {url}: {error}", file=stream)
            return 1
        for event in page.get("events") or []:
            ts = event.get("ts")
            if base_ts is None and isinstance(ts, (int, float)):
                base_ts = float(ts)
            stream.write(format_event(event, base_ts) + "\n")
        stream.flush()
        offset = page.get("next_offset", offset)
        state = page.get("state")
        polls += 1
        if not follow or state in (
            "completed", "failed", "cancelled", "dead"
        ):
            stream.write(f"job {job_id}: {state}\n")
            return 0
        if max_polls is not None and polls >= max_polls:
            return 0
        time.sleep(interval)
