"""A solve-service worker with the benchmark's timing wrappers installed.

Usage: ``python traced_worker.py --trace-out FILE -- worker --store DIR
...``. Everything after ``--`` goes to ``repro.service.cli.main``
unchanged; once the worker drains (SIGTERM), the trace aggregates are
written to FILE as JSON.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    split = argv.index("--")
    options, worker_argv = argv[:split], argv[split + 1 :]
    if len(options) != 2 or options[0] != "--trace-out":
        raise SystemExit("usage: traced_worker.py --trace-out FILE -- ARGS")
    from repro.service import cli
    from tracing import Trace

    trace = Trace().install()
    try:
        return cli.main(worker_argv)
    finally:
        with open(options[1], "w", encoding="utf-8") as handle:
            json.dump(trace.as_dict(), handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
