"""Named evaluation datasets — the paper's nine-dataset registry.

Section VII-A evaluates on nine census-tract datasets. The registry
below mirrors their names, exact sizes and component structure (plus
one synthetic ``25k`` midpoint used by the scaling benchmark); the
synthetic generator (see :mod:`repro.data.synthetic`) supplies the
geometry and attributes. A global ``scale`` multiplier lets benchmark
runs shrink every dataset proportionally (pure-Python reproduction of
O(n²) heuristics; EXPERIMENTS.md records the scale each run used).

============ ======= ==========================================
name         areas   paper description
============ ======= ==========================================
``1k``        1 012  Los Angeles City
``2k``        2 344  Los Angeles County (the default dataset)
``4k``        3 947  Southern California (SCAG)
``8k``        8 049  State of California
``10k``      10 255  CA, NV, AZ
``20k``      20 570  + 12 more western states
``25k``      25 000  scaling benchmark midpoint (synthetic, not
                     from the paper's registry)
``30k``      29 887  + TX, LA, AR, MO, IA
``40k``      40 214  + MN, MS, AL, TN, KY, IL, WI
``50k``      49 943  + GA, IN, MI, OH, WV
============ ======= ==========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..core.area import AreaCollection
from ..exceptions import DatasetError
from .synthetic import synthetic_census

__all__ = ["DatasetSpec", "DATASETS", "dataset_names", "load_dataset"]


@dataclass(frozen=True)
class DatasetSpec:
    """Registry entry for one named dataset."""

    name: str
    n_areas: int
    description: str
    patches: int = 1
    seed: int = 20220101

    def scaled_size(self, scale: float) -> int:
        """Dataset size under a global *scale* multiplier (min 12)."""
        return max(12, round(self.n_areas * scale))


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec("1k", 1012, "Los Angeles City"),
        DatasetSpec("2k", 2344, "Los Angeles County (default dataset)"),
        DatasetSpec("4k", 3947, "Southern California (SCAG)"),
        DatasetSpec("8k", 8049, "State of California"),
        DatasetSpec("10k", 10255, "CA, NV, AZ", patches=2),
        DatasetSpec("20k", 20570, "10k + 12 western states", patches=3),
        DatasetSpec(
            "25k", 25000, "scaling benchmark midpoint (synthetic)", patches=3
        ),
        DatasetSpec("30k", 29887, "20k + TX, LA, AR, MO, IA", patches=4),
        DatasetSpec("40k", 40214, "30k + MN, MS, AL, TN, KY, IL, WI", patches=5),
        DatasetSpec("50k", 49943, "40k + GA, IN, MI, OH, WV", patches=6),
    )
}

DEFAULT_DATASET = "2k"
"""The paper's default evaluation dataset (LA County, 2 344 tracts)."""


def dataset_names() -> tuple[str, ...]:
    """All registry names, smallest dataset first."""
    return tuple(DATASETS)


@lru_cache(maxsize=16)
def _load_cached(name: str, scale: float, seed: int | None) -> AreaCollection:
    spec = DATASETS[name]
    return synthetic_census(
        spec.scaled_size(scale),
        seed=spec.seed if seed is None else seed,
        patches=spec.patches,
    )


def load_dataset(
    name: str = DEFAULT_DATASET, scale: float = 1.0, seed: int | None = None
) -> AreaCollection:
    """Load (generate) a named dataset.

    Parameters
    ----------
    name:
        Registry name (``1k`` … ``50k``).
    scale:
        Global size multiplier; ``0.25`` yields quarter-size datasets
        for fast benchmarking.
    seed:
        Override the registry seed (for sensitivity studies).

    Results are cached, so repeated benchmark calls share one instance.
    """
    if name not in DATASETS:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        )
    if not math.isfinite(scale) or scale <= 0:
        raise DatasetError(f"scale must be a finite positive number, got {scale}")
    return _load_cached(name, float(scale), seed)
