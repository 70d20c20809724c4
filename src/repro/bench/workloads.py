"""Benchmark workloads — the constraint grids of Section VII.

The paper names constraint combinations by their initial letters: *M*
(MIN only), *MS* (MIN + SUM), *MA* (MIN + AVG), *MAS* (all three), *S*
(SUM only), *AS* (AVG + SUM), plus *MP* for the classic max-p baseline
(equivalent to *S* with an open upper bound, solved by the competitor).
This module builds :class:`~repro.core.constraints.ConstraintSet`
objects for any combination and default range, and declares the exact
threshold grids of Tables III/IV and Figures 5–13.

Ranges are written ``(lower, upper)`` with ``None`` for an open end,
matching the paper's interval notation.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..core.constraints import (
    Constraint,
    ConstraintSet,
    avg_constraint,
    count_constraint,
    max_constraint,
    min_constraint,
    sum_constraint,
)
from ..data import schema
from ..exceptions import InvalidConstraintError

__all__ = [
    "Range",
    "format_range",
    "combo_constraints",
    "enriched_constraints",
    "SCALING_SUM_THRESHOLD",
    "MIN_COMBOS",
    "SUM_COMBOS",
    "AVG_COMBOS",
    "DEFAULT_MIN_RANGE",
    "DEFAULT_AVG_RANGE",
    "DEFAULT_SUM_RANGE",
    "TABLE3_OPEN_LOWER_RANGES",
    "TABLE3_OPEN_UPPER_RANGES",
    "TABLE3_LENGTH_RANGES",
    "TABLE3_MIDPOINT_RANGES",
    "TABLE4_SUM_LOWER_BOUNDS",
    "TABLE4_SUM_BOUNDED_RANGES",
    "FIG9_AVG_MIDPOINTS",
    "FIG10_AVG_HALF_LENGTHS",
    "AVG_BOTTLENECK_RANGE",
]

Range = tuple[float | None, float | None]

# Combination codes evaluated in each experiment family.
MIN_COMBOS = ("M", "MS", "MA", "MAS")
SUM_COMBOS = ("S", "MS", "AS", "MAS")
AVG_COMBOS = ("A", "MA", "AS", "MAS")

# Table II defaults.
DEFAULT_MIN_RANGE: Range = (None, 3000)
DEFAULT_AVG_RANGE: Range = (1500, 3500)
DEFAULT_SUM_RANGE: Range = (20000, None)

# Table III / Figures 5-7 threshold grids for the MIN constraint.
TABLE3_OPEN_LOWER_RANGES: tuple[Range, ...] = (
    (None, 2000),
    (None, 3500),
    (None, 5000),
)
TABLE3_OPEN_UPPER_RANGES: tuple[Range, ...] = (
    (2000, None),
    (3500, None),
    (5000, None),
)
TABLE3_LENGTH_RANGES: tuple[Range, ...] = (
    (2500, 3500),
    (2000, 4000),
    (1500, 4500),
    (1000, 5000),
)
TABLE3_MIDPOINT_RANGES: tuple[Range, ...] = (
    (1000, 2000),
    (2000, 3000),
    (3000, 4000),
    (4000, 5000),
)

# Table IV / Figures 12-13 threshold grids for the SUM constraint.
TABLE4_SUM_LOWER_BOUNDS: tuple[float, ...] = (
    1000,
    10000,
    20000,
    30000,
    40000,
)
TABLE4_SUM_BOUNDED_RANGES: tuple[Range, ...] = (
    (15000, 25000),
    (10000, 30000),
    (5000, 35000),
)

# Figures 9-11 grids for the AVG constraint.
FIG9_AVG_MIDPOINTS: tuple[float, ...] = (
    1000,
    1500,
    2000,
    2500,
    3000,
    3500,
    4000,
    4500,
)
FIG9_AVG_HALF_LENGTH = 1000.0
FIG10_AVG_MIDPOINT = 3000.0
FIG10_AVG_HALF_LENGTHS: tuple[float, ...] = (500, 1000, 1500, 2000)

AVG_BOTTLENECK_RANGE: Range = (2000, 4000)
"""The ``3k ± 1k`` AVG range the paper identifies as the performance
bottleneck (Figures 9-11, 16)."""


def _bound(value: float | None, default: float) -> float:
    return default if value is None else float(value)


def format_range(value_range: Range) -> str:
    """Pretty interval string, e.g. ``(-inf,2k]`` or ``[1k,5k]``."""

    def fmt(value: float | None) -> str:
        if value is None:
            return "inf"
        if abs(value) >= 1000 and value % 500 == 0:
            return f"{value / 1000:g}k"
        return f"{value:g}"

    lower, upper = value_range
    left = "(-inf" if lower is None else f"[{fmt(lower)}"
    right = "inf)" if upper is None else f"{fmt(upper)}]"
    return f"{left},{right}"


def combo_constraints(
    combo: str,
    min_range: Range = DEFAULT_MIN_RANGE,
    avg_range: Range = DEFAULT_AVG_RANGE,
    sum_range: Range = DEFAULT_SUM_RANGE,
) -> ConstraintSet:
    """Build the constraint set for a combination code.

    *combo* is any subset of the letters ``M`` (MIN on POP16UP), ``A``
    (AVG on EMPLOYED) and ``S`` (SUM on TOTALPOP), e.g. ``"MAS"``. The
    per-type ranges default to Table II.
    """
    combo = combo.upper()
    unknown = set(combo) - set("MAS")
    if unknown or not combo:
        raise InvalidConstraintError(
            f"combination {combo!r} must be a non-empty subset of 'MAS'"
        )
    constraints: list[Constraint] = []
    if "M" in combo:
        constraints.append(
            min_constraint(
                schema.POP16UP,
                _bound(min_range[0], -math.inf),
                _bound(min_range[1], math.inf),
            )
        )
    if "A" in combo:
        constraints.append(
            avg_constraint(
                schema.EMPLOYED,
                _bound(avg_range[0], -math.inf),
                _bound(avg_range[1], math.inf),
            )
        )
    if "S" in combo:
        constraints.append(
            sum_constraint(
                schema.TOTALPOP,
                _bound(sum_range[0], -math.inf),
                _bound(sum_range[1], math.inf),
            )
        )
    return ConstraintSet(constraints)


SCALING_SUM_THRESHOLD = 800_000.0
"""SUM(TOTALPOP) lower bound of the scaling benchmark workload.

Roughly 250–300 areas per region on the synthetic census marginals.
This is deliberately the *large-region* regime the vector kernels
target: every candidate move prices the full donor boundary against
eight constraints, so per-derive work grows with region size while
per-move bookkeeping does not. Empirically the scalar derive's
per-candidate cost grows faster with region size than the vector
derive's (400k → 2.5x, 500k → 2.7x, 650k → 3.0x, 800k → 3.5x tabu-phase
ratio on the 10k dataset), so the threshold sits where the benchmark
exercises the separation without letting the shared Hopcroft–Tarjan
rebuild dominate either path. The threshold is fixed across
dataset sizes, so region granularity — and with it the per-move cost
profile — stays comparable from 2k to 25k."""


def enriched_constraints(
    sum_threshold: float = SCALING_SUM_THRESHOLD,
) -> ConstraintSet:
    """The scaling benchmark's *enriched* workload: eight constraints
    spanning all five aggregate families (MIN / MAX / AVG / SUM /
    COUNT) and all four census attributes.

    This is the paper's headline setting — max-p enriched with every
    side-constraint type the formulation admits — pushed to the
    constraint count where per-candidate feasibility checking
    dominates the Tabu phase. The SUM(TOTALPOP) lower bound is the
    binding constraint and sets the region granularity; the companion
    bounds are loose enough to stay feasible on the synthetic
    marginals yet still have to be evaluated for every candidate
    move.
    """
    threshold = float(sum_threshold)
    return ConstraintSet(
        [
            min_constraint(schema.POP16UP, -math.inf, 3000),
            avg_constraint(schema.EMPLOYED, 1500, 3500),
            sum_constraint(schema.TOTALPOP, threshold, math.inf),
            avg_constraint(schema.TOTALPOP, 2500, 6500),
            sum_constraint(schema.EMPLOYED, 0.25 * threshold, math.inf),
            max_constraint(schema.HOUSEHOLDS, 1000, math.inf),
            avg_constraint(schema.HOUSEHOLDS, 500, 5000),
            count_constraint(10, 2000),
        ]
    )
