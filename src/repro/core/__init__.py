"""Core EMP data model: areas, constraints, regions, partitions.

This subpackage implements Section III of the paper — the problem
definition — plus the incremental bookkeeping (aggregates,
heterogeneity) that the FaCT solver builds on.
"""

from .aggregates import Aggregate, AggregateState
from .area import Area, AreaCollection
from .constraints import (
    Constraint,
    ConstraintFamily,
    ConstraintSet,
    avg_constraint,
    count_constraint,
    max_constraint,
    min_constraint,
    sum_constraint,
)
from .heterogeneity import (
    improvement_ratio,
    pairwise_absolute_deviation,
    region_heterogeneity,
    total_heterogeneity,
)
from .partition import UNASSIGNED, Partition
from .perf import PerfCounters
from .region import Region

__all__ = [
    "Aggregate",
    "AggregateState",
    "Area",
    "AreaCollection",
    "Constraint",
    "ConstraintFamily",
    "ConstraintSet",
    "Partition",
    "PerfCounters",
    "Region",
    "UNASSIGNED",
    "avg_constraint",
    "count_constraint",
    "improvement_ratio",
    "max_constraint",
    "min_constraint",
    "pairwise_absolute_deviation",
    "region_heterogeneity",
    "sum_constraint",
    "total_heterogeneity",
]
