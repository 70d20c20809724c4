"""``python -m repro.bench`` — benchmark subcommand dispatch.

Subcommands:

- ``report`` — full paper-table/figure report run
  (:mod:`repro.bench.report`, also runnable directly as
  ``python -m repro.bench.report``).

Timing belongs to the end-to-end benchmark in ``benchmarks/e2e``;
profiling one solve is ``python -m cProfile -s cumulative -m repro
solve …`` or ``REPRO_PROFILE=cprofile``.
"""

from __future__ import annotations

import sys

from . import report

_USAGE = """usage: python -m repro.bench <command> [options]

commands:
  report   generate EXPERIMENTS.md tables and figures

run `python -m repro.bench <command> --help` for command options."""


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE)
        return 0
    command, rest = argv[0], argv[1:]
    if command == "report":
        return report.main(rest)
    print(f"unknown command: {command!r}\n\n{_USAGE}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
