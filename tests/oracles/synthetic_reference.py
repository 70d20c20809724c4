"""Per-cell reference generator for synthetic census datasets.

This is the straightforward formulation of :mod:`repro.data.synthetic`
and :mod:`repro.geometry.tessellation`: one :class:`Polygon` per cell
for every Lloyd centroid, a Python loop over every Voronoi ridge for
adjacency, one ``Polygon.translated`` per cell to lay out patches, a
per-unit loop for the neighborhood smoothing and ``scipy.stats.norm``
for the normal quantiles. The production generator computes the same
arithmetic over padded arrays; ``tests/test_synthetic_oracle.py``
asserts that the two agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.spatial import Voronoi

from repro.core.area import Area, AreaCollection
from repro.data import schema
from repro.geometry import BBox, Point, Polygon, Tessellation


def voronoi_tessellation(
    n_units: int,
    seed: int = 0,
    bbox: BBox | None = None,
    lloyd_iterations: int = 1,
) -> Tessellation:
    """Bounded, Lloyd-relaxed Voronoi tessellation, one cell at a time."""
    if bbox is None:
        side = float(np.sqrt(n_units))
        bbox = BBox(0.0, 0.0, side, side)
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [
            rng.uniform(bbox.min_x, bbox.max_x, size=n_units),
            rng.uniform(bbox.min_y, bbox.max_y, size=n_units),
        ]
    )
    for _ in range(max(0, lloyd_iterations)):
        diagram = _bounded_voronoi(points, bbox)
        points = np.array([_cell_centroid(diagram, i) for i in range(n_units)])
        points[:, 0] = points[:, 0].clip(bbox.min_x, bbox.max_x)
        points[:, 1] = points[:, 1].clip(bbox.min_y, bbox.max_y)
    diagram = _bounded_voronoi(points, bbox)

    polygons = []
    for i in range(n_units):
        vertex_indices = diagram.regions[diagram.point_region[i]]
        assert vertex_indices and -1 not in vertex_indices
        polygons.append(Polygon(Point(*diagram.vertices[v]) for v in vertex_indices))

    adjacency: dict[int, set[int]] = {i: set() for i in range(n_units)}
    for a, b in diagram.ridge_points:
        if a < n_units and b < n_units:
            adjacency[int(a)].add(int(b))
            adjacency[int(b)].add(int(a))
    return Tessellation(
        tuple(polygons),
        {i: frozenset(neighbors) for i, neighbors in adjacency.items()},
        bbox,
    )


def multi_patch_tessellation(
    patch_sizes: Sequence[int], seed: int = 0, gap_fraction: float = 0.25
) -> Tessellation:
    """Voronoi patches in a row, each translated polygon by polygon."""
    polygons: list[Polygon] = []
    adjacency: dict[int, frozenset[int]] = {}
    offset_x = 0.0
    boxes = []
    base = 0
    for patch_index, size in enumerate(patch_sizes):
        patch = voronoi_tessellation(size, seed=seed + patch_index)
        box = BBox(
            patch.bbox.min_x + offset_x,
            patch.bbox.min_y,
            patch.bbox.max_x + offset_x,
            patch.bbox.max_y,
        )
        for local_index, polygon in enumerate(patch.polygons):
            polygons.append(polygon.translated(offset_x, 0.0))
            adjacency[base + local_index] = frozenset(
                base + neighbor for neighbor in patch.adjacency[local_index]
            )
        boxes.append(box)
        offset_x = box.max_x + gap_fraction * box.width
        base += size
    return Tessellation(
        tuple(polygons),
        adjacency,
        BBox(
            min(b.min_x for b in boxes),
            min(b.min_y for b in boxes),
            max(b.max_x for b in boxes),
            max(b.max_y for b in boxes),
        ),
    )


def smoothed_normal_scores(
    adjacency: dict[int, frozenset[int]],
    rng: np.random.Generator,
    rounds: int = 2,
    self_weight: float = 0.5,
) -> np.ndarray:
    """Neighborhood-smoothed normal scores, one unit at a time."""
    n = len(adjacency)
    scores = rng.standard_normal(n)
    for _ in range(max(0, rounds)):
        smoothed = np.empty(n)
        for index in range(n):
            neighbors = adjacency[index]
            if neighbors:
                neighborhood = sum(scores[j] for j in neighbors) / len(neighbors)
            else:
                neighborhood = scores[index]
            smoothed[index] = (
                self_weight * scores[index] + (1.0 - self_weight) * neighborhood
            )
        scores = smoothed
    ranks = scores.argsort().argsort()
    return _normal_ppf((ranks + 0.5) / n)


def attach_attributes(
    tessellation: Tessellation,
    seed: int = 0,
    spatial_rounds: int = 2,
    cross_correlation: float = 0.55,
) -> AreaCollection:
    """Calibrated attributes over *tessellation* (reference pipeline)."""
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
    z_emp = _normal_ppf((ranks + 0.5) / n)

    pop_spec = schema.ATTRIBUTE_SPECS[schema.POP16UP]
    emp_spec = schema.ATTRIBUTE_SPECS[schema.EMPLOYED]
    pop16up = np.array([pop_spec.quantile(z) for z in z_pop])
    employed = np.array([emp_spec.quantile(z) for z in z_emp])

    total_noise = rng.normal(1.0, 0.03, size=n).clip(0.9, 1.1)
    totalpop = pop16up / schema.POP16UP_SHARE_OF_TOTAL * total_noise
    household_noise = rng.normal(1.0, 0.05, size=n).clip(0.85, 1.15)
    households = totalpop / schema.PERSONS_PER_HOUSEHOLD * household_noise

    areas = [
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
        for index in range(n)
    ]
    return AreaCollection(
        areas, adjacency, dissimilarity_attribute=schema.DISSIMILARITY_ATTRIBUTE
    )


def synthetic_census(
    n_units: int, seed: int = 0, patches: int = 1
) -> AreaCollection:
    """Reference counterpart of :func:`repro.data.synthetic_census`."""
    if patches == 1:
        tessellation = voronoi_tessellation(n_units, seed=seed)
    else:
        base = n_units // patches
        sizes = [base] * patches
        sizes[-1] += n_units - base * patches
        tessellation = multi_patch_tessellation(sizes, seed=seed)
    return attach_attributes(tessellation, seed=seed + 1)


def _normal_ppf(u: np.ndarray) -> np.ndarray:
    from scipy.stats import norm

    return norm.ppf(u)


def _bounded_voronoi(points: np.ndarray, bbox: BBox) -> Voronoi:
    left = points.copy()
    left[:, 0] = 2 * bbox.min_x - left[:, 0]
    right = points.copy()
    right[:, 0] = 2 * bbox.max_x - right[:, 0]
    down = points.copy()
    down[:, 1] = 2 * bbox.min_y - down[:, 1]
    up = points.copy()
    up[:, 1] = 2 * bbox.max_y - up[:, 1]
    return Voronoi(np.vstack([points, left, right, down, up]))


def _cell_centroid(diagram: Voronoi, index: int) -> tuple[float, float]:
    vertex_indices = diagram.regions[diagram.point_region[index]]
    ring = [Point(*diagram.vertices[v]) for v in vertex_indices]
    centroid = Polygon(ring).centroid
    return (centroid.x, centroid.y)
