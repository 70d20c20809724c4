"""Synthetic census-tract datasets.

The paper evaluates on nine real datasets of US census tracts joined
with 2010 census attributes. Neither the shapefiles nor the attribute
tables are available offline, so this module generates the closest
synthetic equivalent (substitution documented in DESIGN.md §2):

1. **Topology** — a Lloyd-relaxed bounded Voronoi tessellation, which
   reproduces the planar, irregular, average-degree-≈-6 rook graph of
   census tracts. Multi-state datasets use several disjoint patches so
   the contiguity graph has multiple connected components, which FaCT
   supports and classic max-p does not.
2. **Marginals** — attribute values follow lognormal distributions
   calibrated to the quantiles reported in the paper (Table III's `M`
   row pins the POP16UP CDF; Figure 8 pins EMPLOYED).
3. **Spatial autocorrelation** — scores are produced by smoothing a
   Gaussian field over the adjacency graph before the quantile
   transform, so attribute thresholds carve the map into scattered
   connected fragments exactly as §VII-B1 describes.

Everything is deterministic in the ``seed`` argument.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# The standard normal quantile function: the kernel behind
# scipy.stats.norm.ppf, with the same floats on 0 < u < 1, and without
# the import of scipy.stats (about a second of start-up).
from scipy.special import ndtri

from ..core.area import Area, AreaCollection
from ..exceptions import DatasetError
from ..geometry.tessellation import (
    Tessellation,
    multi_patch_tessellation,
    voronoi_tessellation,
)
from . import schema

__all__ = ["synthetic_census", "attach_attributes", "smoothed_normal_scores"]


def smoothed_normal_scores(
    adjacency: dict[int, frozenset[int]],
    rng: np.random.Generator,
    rounds: int = 2,
    self_weight: float = 0.5,
) -> np.ndarray:
    """A spatially autocorrelated standard-normal score per unit.

    Draws iid N(0,1) noise and averages each unit with its neighborhood
    mean for *rounds* rounds (weight *self_weight* on the unit itself),
    then rank-transforms back to exact standard-normal scores so the
    downstream quantile mapping reproduces the target marginal exactly.
    """
    n = len(adjacency)
    neighbor_sets = [adjacency[index] for index in range(n)]
    degree = np.fromiter(map(len, neighbor_sets), dtype=np.intp, count=n)
    # CSR layout in each set's iteration order: the k-th neighbor of
    # unit i is neighbors[starts[i] + k].
    neighbors = np.fromiter(
        itertools.chain.from_iterable(neighbor_sets),
        dtype=np.intp,
        count=int(degree.sum()),
    )
    starts = np.cumsum(degree) - degree
    scores = rng.standard_normal(n)
    for _ in range(max(0, rounds)):
        # Sum each neighborhood one neighbor at a time, in set order, so
        # the rounding matches a sequential per-unit sum exactly.
        total = np.zeros(n)
        for k in range(int(degree.max(initial=0))):
            has = degree > k
            total[has] += scores[neighbors[starts[has] + k]]
        neighborhood = np.where(degree == 0, scores, total / np.maximum(degree, 1))
        scores = self_weight * scores + (1.0 - self_weight) * neighborhood
    # Rank-transform to exact N(0,1) scores (ties are impossible a.s.).
    ranks = scores.argsort().argsort()
    return ndtri((ranks + 0.5) / n)


def attach_attributes(
    tessellation: Tessellation,
    seed: int = 0,
    spatial_rounds: int = 2,
    cross_correlation: float = 0.55,
) -> AreaCollection:
    """Generate calibrated attributes over an existing tessellation.

    Parameters
    ----------
    tessellation:
        The spatial units and their rook adjacency.
    seed:
        RNG seed (the attribute draw is independent of the tessellation
        seed so topology and attributes can be varied separately).
    spatial_rounds:
        Smoothing rounds controlling spatial autocorrelation strength.
    cross_correlation:
        Correlation between the latent scores of POP16UP and EMPLOYED.
        The paper notes (Fig. 7b discussion) that the interaction of
        MIN and AVG constraints depends on whether their attributes are
        correlated; census employment and adult population are.
    """
    if not 0.0 <= cross_correlation <= 1.0:
        raise DatasetError("cross_correlation must be within [0, 1]")
    rng = np.random.default_rng(seed)
    adjacency = tessellation.adjacency
    n = len(tessellation)

    shared = smoothed_normal_scores(adjacency, rng, rounds=spatial_rounds)
    idiosyncratic = smoothed_normal_scores(adjacency, rng, rounds=spatial_rounds)
    z_pop = shared
    mix = (
        cross_correlation * shared
        + math.sqrt(1.0 - cross_correlation**2) * idiosyncratic
    )
    ranks = mix.argsort().argsort()
    z_emp = ndtri((ranks + 0.5) / n)

    pop_spec = schema.ATTRIBUTE_SPECS[schema.POP16UP]
    emp_spec = schema.ATTRIBUTE_SPECS[schema.EMPLOYED]
    pop16up = np.array([pop_spec.quantile(z) for z in z_pop])
    employed = np.array([emp_spec.quantile(z) for z in z_emp])

    total_noise = rng.normal(1.0, 0.03, size=n).clip(0.9, 1.1)
    totalpop = pop16up / schema.POP16UP_SHARE_OF_TOTAL * total_noise
    household_noise = rng.normal(1.0, 0.05, size=n).clip(0.85, 1.15)
    households = totalpop / schema.PERSONS_PER_HOUSEHOLD * household_noise

    areas = []
    for index in range(n):
        areas.append(
            Area(
                area_id=index,
                attributes={
                    schema.POP16UP: round(float(pop16up[index]), 1),
                    schema.EMPLOYED: round(float(employed[index]), 1),
                    schema.TOTALPOP: round(float(totalpop[index]), 1),
                    schema.HOUSEHOLDS: round(float(households[index]), 1),
                },
                polygon=tessellation.polygons[index],
            )
        )
    return AreaCollection(
        areas,
        adjacency,
        dissimilarity_attribute=schema.DISSIMILARITY_ATTRIBUTE,
    )


def synthetic_census(
    n_units: int,
    seed: int = 0,
    patches: int = 1,
    spatial_rounds: int = 2,
    cross_correlation: float = 0.55,
) -> AreaCollection:
    """Build a complete synthetic census dataset.

    Parameters
    ----------
    n_units:
        Total number of census tracts (>= 3).
    seed:
        Single seed controlling tessellation and attributes.
    patches:
        Number of disjoint connected components. ``1`` mimics the
        single-region datasets (LA City … California); larger values
        mimic the multi-state datasets of Table I.

    Returns
    -------
    AreaCollection
        With attributes ``POP16UP``, ``EMPLOYED``, ``TOTALPOP``,
        ``HOUSEHOLDS`` and dissimilarity attribute ``HOUSEHOLDS``.
    """
    if n_units < 3:
        raise DatasetError("synthetic_census needs at least 3 units")
    if patches < 1:
        raise DatasetError("patches must be >= 1")
    if patches == 1:
        tessellation = voronoi_tessellation(n_units, seed=seed)
    else:
        base = n_units // patches
        sizes = [base] * patches
        sizes[-1] += n_units - base * patches
        if min(sizes) < 3:
            raise DatasetError(
                f"{n_units} units cannot be split into {patches} patches "
                "of >= 3 units"
            )
        tessellation = multi_patch_tessellation(sizes, seed=seed)
    return attach_attributes(
        tessellation,
        seed=seed + 1,
        spatial_rounds=spatial_rounds,
        cross_correlation=cross_correlation,
    )
