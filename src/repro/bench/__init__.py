"""Benchmark harness: workloads, runners and table/figure generators
behind the ``benchmarks/`` pytest suite and ``python -m
repro.bench.report``."""

from .journal import RunJournal
from .runner import (
    ExperimentRow,
    bench_cell_deadline,
    bench_config,
    bench_dataset,
    bench_scale,
    run_emp,
    run_maxp,
    use_journal,
)
from .plotting import bar_chart, figure_to_chart
from .tables import format_p_table, table3_rows, table4_rows
from .workloads import combo_constraints, format_range

__all__ = [
    "ExperimentRow",
    "RunJournal",
    "bar_chart",
    "bench_cell_deadline",
    "bench_config",
    "bench_dataset",
    "bench_scale",
    "combo_constraints",
    "figure_to_chart",
    "format_p_table",
    "format_range",
    "run_emp",
    "run_maxp",
    "table3_rows",
    "table4_rows",
    "use_journal",
]
