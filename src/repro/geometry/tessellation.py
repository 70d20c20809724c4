"""Tessellations — synthetic stand-ins for census-tract shapefiles.

The paper evaluates on US census tracts (irregular planar polygons).
We generate matching topology two ways:

- :func:`grid_tessellation` — a regular lattice; predictable, great for
  unit tests and worked examples (the paper's own running example is a
  3×3 grid).
- :func:`voronoi_tessellation` — a bounded Voronoi diagram of random
  seed points, optionally Lloyd-relaxed. Census tracts are effectively
  a centroidal Voronoi-like tessellation: irregular cells, average rook
  degree ≈ 6.

Bounded Voronoi cells are obtained with the reflection trick: every
seed is mirrored across the four sides of the bounding box, so the
cells of the original seeds are finite and clip exactly to the box.
Rook adjacency comes directly from scipy's ``ridge_points``.

The per-cell geometry of a Voronoi tessellation (Lloyd centroids, the
checks :class:`Polygon` makes, patch translation) runs over padded
vertex-index arrays: row ``i`` holds the vertex indices of cell ``i``'s
ring and columns past the ring's length are padding. Every sum is
accumulated vertex by vertex in ring order, as :class:`Polygon`'s own
loops do, so the floats are the same bit for bit.

:func:`multi_patch_tessellation` lays several tessellations side by
side with gaps, producing a dataset with multiple connected components
(the multi-state datasets of Table I; FaCT explicitly supports this
while classic max-p formulations do not).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial import Voronoi

from ..exceptions import GeometryError
from .bbox import BBox
from .point import Point
from .polygon import Polygon

__all__ = [
    "Tessellation",
    "grid_tessellation",
    "hex_tessellation",
    "voronoi_tessellation",
    "multi_patch_tessellation",
]


@dataclass(frozen=True)
class Tessellation:
    """A set of polygons plus their rook adjacency.

    ``polygons[i]`` is the cell of unit ``i``; ``adjacency[i]`` is the
    set of rook neighbors of ``i``. Indices are dense 0..n-1.
    """

    polygons: tuple[Polygon, ...]
    adjacency: dict[int, frozenset[int]]
    bbox: BBox

    def __post_init__(self) -> None:
        if len(self.polygons) != len(self.adjacency):
            raise GeometryError(
                "tessellation polygon count and adjacency size differ"
            )

    def __len__(self) -> int:
        return len(self.polygons)

    @property
    def n_units(self) -> int:
        """Number of cells."""
        return len(self.polygons)

    def centroids(self) -> list[Point]:
        """Centroid of every cell, by index."""
        return [polygon.centroid for polygon in self.polygons]


def grid_tessellation(rows: int, cols: int, cell_size: float = 1.0) -> Tessellation:
    """A ``rows × cols`` lattice of unit squares with rook adjacency.

    Cell ``(r, c)`` has index ``r * cols + c``; row 0 is at the bottom.
    """
    if rows < 1 or cols < 1:
        raise GeometryError("grid tessellation needs rows >= 1 and cols >= 1")
    polygons: list[Polygon] = []
    adjacency: dict[int, frozenset[int]] = {}
    for r in range(rows):
        for c in range(cols):
            x0, y0 = c * cell_size, r * cell_size
            polygons.append(
                Polygon(
                    [
                        Point(x0, y0),
                        Point(x0 + cell_size, y0),
                        Point(x0 + cell_size, y0 + cell_size),
                        Point(x0, y0 + cell_size),
                    ]
                )
            )
            index = r * cols + c
            neighbors = set()
            if r > 0:
                neighbors.add(index - cols)
            if r < rows - 1:
                neighbors.add(index + cols)
            if c > 0:
                neighbors.add(index - 1)
            if c < cols - 1:
                neighbors.add(index + 1)
            adjacency[index] = frozenset(neighbors)
    return Tessellation(
        tuple(polygons),
        adjacency,
        BBox(0.0, 0.0, cols * cell_size, rows * cell_size),
    )


def hex_tessellation(rows: int, cols: int, size: float = 1.0) -> Tessellation:
    """A ``rows × cols`` pointy-top hexagon lattice (odd-row offset).

    Hexagonal lattices are a standard alternative to square grids in
    spatial analysis: every interior cell has exactly six neighbors
    and rook/queen contiguity coincide (hexagons never meet at a
    single point). Cell ``(r, c)`` has index ``r * cols + c``; odd
    rows are shifted right by half a cell width.

    *size* is the hexagon's circumradius (center to vertex).
    """
    if rows < 1 or cols < 1:
        raise GeometryError("hex tessellation needs rows >= 1 and cols >= 1")
    width = np.sqrt(3.0) * size  # flat-to-flat horizontal extent
    vertical_step = 1.5 * size

    polygons: list[Polygon] = []
    adjacency: dict[int, set[int]] = {}
    for r in range(rows):
        for c in range(cols):
            index = r * cols + c
            center_x = c * width + (width / 2 if r % 2 else 0.0) + width / 2
            center_y = r * vertical_step + size
            vertices = []
            for k in range(6):
                angle = np.pi / 180.0 * (60.0 * k - 30.0)  # pointy-top
                vertices.append(
                    Point(
                        center_x + size * float(np.cos(angle)),
                        center_y + size * float(np.sin(angle)),
                    )
                )
            polygons.append(Polygon(vertices))

            neighbors: set[int] = set()
            if c > 0:
                neighbors.add(index - 1)
            if c < cols - 1:
                neighbors.add(index + 1)
            # diagonal neighbors depend on the row parity offset
            offsets = (0, 1) if r % 2 else (-1, 0)
            for dr in (-1, 1):
                rr = r + dr
                if not 0 <= rr < rows:
                    continue
                for dc in offsets:
                    cc = c + dc
                    if 0 <= cc < cols:
                        neighbors.add(rr * cols + cc)
            adjacency[index] = neighbors

    all_points = [v for polygon in polygons for v in polygon.vertices]
    return Tessellation(
        tuple(polygons),
        {i: frozenset(n) for i, n in adjacency.items()},
        BBox.of_points(all_points),
    )


def voronoi_tessellation(
    n_units: int,
    seed: int = 0,
    bbox: BBox | None = None,
    lloyd_iterations: int = 1,
) -> Tessellation:
    """A bounded Voronoi tessellation of *n_units* random seed points.

    Parameters
    ----------
    n_units:
        Number of cells (>= 3 so the diagram is non-degenerate).
    seed:
        RNG seed; the tessellation is fully deterministic in it.
    bbox:
        Bounding box; defaults to a square whose side scales with
        ``sqrt(n_units)`` so cells keep unit-ish size at any n.
    lloyd_iterations:
        Rounds of Lloyd relaxation (seeds moved to cell centroids),
        which regularizes cell sizes the way census tracts are
        regularized by population.
    """
    if bbox is None:
        bbox = _default_bbox(n_units)
    xy, index, length, adjacency = _voronoi_cells(
        n_units, seed, bbox, lloyd_iterations
    )
    return Tessellation(_polygons(xy, index, length), adjacency, bbox)


def multi_patch_tessellation(
    patch_sizes: Sequence[int], seed: int = 0, gap_fraction: float = 0.25
) -> Tessellation:
    """Several Voronoi patches laid out in a row with gaps between.

    The result has ``len(patch_sizes)`` connected components — the
    synthetic analogue of the paper's multi-state datasets (Table I)
    where non-adjacent states form separate components. Its bbox is
    the union of the patch boxes.
    """
    if not patch_sizes:
        raise GeometryError("multi_patch_tessellation needs at least one patch")
    polygons: list[Polygon] = []
    adjacency: dict[int, frozenset[int]] = {}
    boxes: list[BBox] = []
    offset_x = 0.0
    base = 0
    for patch_index, size in enumerate(patch_sizes):
        box = _default_bbox(size)
        xy, index, length, patch_adjacency = _voronoi_cells(
            size, seed + patch_index, box, 1
        )
        # Shift the patch, then re-check its rings on the shifted
        # coordinates, as building each polygon again would.
        xy = xy + np.array([offset_x, 0.0])
        index, length, _ = _normalise_rings(xy, index, length)
        polygons.extend(_polygons(xy, index, length))
        for local_index, neighbors in patch_adjacency.items():
            adjacency[base + local_index] = frozenset(
                base + neighbor for neighbor in neighbors
            )
        box = BBox(box.min_x + offset_x, box.min_y, box.max_x + offset_x, box.max_y)
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


# ----------------------------------------------------------------------
# internals
# ----------------------------------------------------------------------

def _default_bbox(n_units: int) -> BBox:
    side = float(np.sqrt(n_units))
    return BBox(0.0, 0.0, side, side)


def _bounded_voronoi(points: np.ndarray, bbox: BBox) -> Voronoi:
    """Voronoi diagram whose first ``len(points)`` cells are clipped to
    *bbox*, via reflection of all seeds across the four box sides."""
    left = points.copy()
    left[:, 0] = 2 * bbox.min_x - left[:, 0]
    right = points.copy()
    right[:, 0] = 2 * bbox.max_x - right[:, 0]
    down = points.copy()
    down[:, 1] = 2 * bbox.min_y - down[:, 1]
    up = points.copy()
    up[:, 1] = 2 * bbox.max_y - up[:, 1]
    return Voronoi(np.vstack([points, left, right, down, up]))


def _voronoi_cells(
    n_units: int, seed: int, bbox: BBox, lloyd_iterations: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[int, frozenset[int]]]:
    """Vertex coordinates, normalised ring rows, ring lengths and rook
    adjacency of a Lloyd-relaxed bounded Voronoi tessellation."""
    if n_units < 3:
        raise GeometryError("voronoi tessellation needs at least 3 units")
    rng = np.random.default_rng(seed)
    points = np.column_stack(
        [
            rng.uniform(bbox.min_x, bbox.max_x, size=n_units),
            rng.uniform(bbox.min_y, bbox.max_y, size=n_units),
        ]
    )
    for _ in range(max(0, lloyd_iterations)):
        diagram = _bounded_voronoi(points, bbox)
        index, length = _voronoi_rings(diagram, n_units)
        _, _, (area2, cx, cy) = _normalise_rings(diagram.vertices, index, length)
        points = np.column_stack([cx / (3 * area2), cy / (3 * area2)])
        # Free this step's diagram, rings and centroids before the
        # next diagram is built (peak set-up memory).
        del diagram, index, length, area2, cx, cy
        points[:, 0] = points[:, 0].clip(bbox.min_x, bbox.max_x)
        points[:, 1] = points[:, 1].clip(bbox.min_y, bbox.max_y)
    diagram = _bounded_voronoi(points, bbox)
    index, length = _voronoi_rings(diagram, n_units)
    index, length, _ = _normalise_rings(diagram.vertices, index, length)
    return (
        diagram.vertices,
        index,
        length,
        _ridge_adjacency(diagram.ridge_points, n_units),
    )


def _voronoi_rings(diagram: Voronoi, n_units: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded vertex-index rows (padding is vertex 0) and ring lengths
    of the first *n_units* cells, which must all be bounded."""
    regions = [diagram.regions[r] for r in diagram.point_region[:n_units].tolist()]
    length = np.fromiter(map(len, regions), dtype=np.intp, count=n_units)
    flat = np.fromiter(
        itertools.chain.from_iterable(regions), dtype=np.intp, count=int(length.sum())
    )
    if length.min() == 0 or flat.min() < 0:
        unit = next(i for i, ring in enumerate(regions) if not ring or -1 in ring)
        raise GeometryError(
            f"unbounded voronoi cell for unit {unit}; reflection failed"
        )
    index = np.zeros((n_units, int(length.max())), dtype=np.intp)
    index[_columns(index) < length[:, None]] = flat
    return index, length


def _columns(index: np.ndarray) -> np.ndarray:
    return np.arange(index.shape[1])


def _ring_sums(
    xy: np.ndarray, index: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per ring, the shoelace sums ``Σ cross``, ``Σ (ax + bx) cross`` and
    ``Σ (ay + by) cross`` over edges ``(a, b)``, where ``cross = ax by -
    bx ay``. Each is accumulated edge by edge from the ring's first
    vertex, the order of :class:`Polygon`'s area and centroid loops."""
    columns = _columns(index)
    valid = columns < length[:, None]
    following = np.take_along_axis(
        index, np.where(columns + 1 < length[:, None], columns + 1, 0), axis=1
    )
    ax, ay = xy[index, 0], xy[index, 1]
    bx, by = xy[following, 0], xy[following, 1]
    cross = ax * by - bx * ay
    sx = (ax + bx) * cross
    sy = (ay + by) * cross
    area2, cx, cy = (np.zeros(len(index)) for _ in range(3))
    for k in columns:
        mask = valid[:, k]
        np.add(area2, cross[:, k], out=area2, where=mask)
        np.add(cx, sx[:, k], out=cx, where=mask)
        np.add(cy, sy[:, k], out=cy, where=mask)
    return area2, cx, cy


def _normalise_rings(
    xy: np.ndarray, index: np.ndarray, length: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every check ``Polygon.__init__`` makes, on all rings at once.

    Drops a repeated closing vertex, rejects rings with fewer than 3
    vertices, reverses clockwise rings and rejects zero-area rings,
    raising for the first offending ring as the per-cell loop would.
    Returns the normalised rows and lengths plus the :func:`_ring_sums`
    of the normalised rings.
    """
    rows = np.arange(len(index))
    first, last = index[:, 0], index[rows, length - 1]
    closed = (
        (length >= 2) & (xy[first, 0] == xy[last, 0]) & (xy[first, 1] == xy[last, 1])
    )
    length = length - closed
    sums = _ring_sums(xy, index, length)
    clockwise = sums[0] / 2.0 < 0
    if clockwise.any():
        columns = _columns(index)
        mirrored = np.where(
            columns < length[:, None], length[:, None] - 1 - columns, columns
        )
        index = np.where(
            clockwise[:, None], np.take_along_axis(index, mirrored, axis=1), index
        )
        sums = _ring_sums(xy, index, length)
    short = length < 3
    bad = short | (sums[0] / 2.0 == 0)
    if bad.any():
        offender = int(np.argmax(bad))
        if short[offender]:
            raise GeometryError(
                "a polygon needs at least 3 distinct vertices, "
                f"got {int(length[offender])}"
            )
        raise GeometryError("degenerate polygon with zero area")
    return index, length, sums


def _polygons(
    xy: np.ndarray, index: np.ndarray, length: np.ndarray
) -> tuple[Polygon, ...]:
    """One :class:`Polygon` per normalised ring; cells that share a
    vertex share its :class:`Point`."""
    used = np.unique(index[_columns(index) < length[:, None]]).tolist()
    points = dict(zip(used, itertools.starmap(Point, xy[used].tolist())))
    lookup = points.__getitem__
    return tuple(
        Polygon._from_validated_ring(tuple(map(lookup, row[:k])))
        for row, k in zip(index.tolist(), length.tolist())
    )


def _ridge_adjacency(
    ridge_points: np.ndarray, n_units: int
) -> dict[int, frozenset[int]]:
    """Rook adjacency among the first *n_units* seeds, inserted in ridge
    order (which fixes every neighbor set's iteration order)."""
    inner = ridge_points[(ridge_points < n_units).all(axis=1)]
    adjacency: dict[int, set[int]] = {i: set() for i in range(n_units)}
    for a, b in inner.tolist():
        adjacency[a].add(b)
        adjacency[b].add(a)
    return {i: frozenset(neighbors) for i, neighbors in adjacency.items()}
