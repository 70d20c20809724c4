"""Simple polygons — the area boundaries ``b_i``.

A :class:`Polygon` is a single closed ring of vertices (no holes; the
tessellations we generate, and census tracts for practical purposes,
are simple rings). Provides the measures and predicates needed by the
data layer: area, centroid, point containment and canonical edge
extraction for rook/queen contiguity detection.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

from ..exceptions import GeometryError
from .bbox import BBox
from .point import Point

__all__ = ["Polygon"]


class Polygon:
    """An immutable simple polygon defined by its vertex ring.

    The ring is stored counter-clockwise without a repeated closing
    vertex; constructors accept either orientation and an optionally
    repeated first vertex.
    """

    __slots__ = ("_vertices", "_bbox")

    def __init__(self, vertices: Iterable[Point | Sequence[float]]):
        ring: list[Point] = []
        for vertex in vertices:
            if not isinstance(vertex, Point):
                vertex = Point(vertex[0], vertex[1])
            ring.append(vertex)
        if len(ring) >= 2 and ring[0] == ring[-1]:
            ring.pop()  # drop repeated closing vertex
        if len(ring) < 3:
            raise GeometryError(
                f"a polygon needs at least 3 distinct vertices, got {len(ring)}"
            )
        if _signed_area(ring) < 0:
            ring.reverse()  # normalize to counter-clockwise
        if _signed_area(ring) == 0:
            raise GeometryError("degenerate polygon with zero area")
        self._vertices: tuple[Point, ...] = tuple(ring)
        self._bbox: BBox | None = None

    @classmethod
    def _from_validated_ring(cls, ring: tuple[Point, ...]) -> "Polygon":
        """A polygon over a ring that already passed every check of
        ``__init__``: no repeated closing vertex, at least 3 vertices,
        counter-clockwise and non-zero area. The array kernels of
        :mod:`repro.geometry.tessellation` run those checks for whole
        tessellations at once and build each polygon through here."""
        polygon = object.__new__(cls)
        polygon._vertices = ring
        polygon._bbox = None
        return polygon

    # ------------------------------------------------------------------
    @property
    def vertices(self) -> tuple[Point, ...]:
        """The counter-clockwise vertex ring (no repeated closer)."""
        return self._vertices

    @property
    def bbox(self) -> BBox:
        """The polygon's bounding box (computed on first use)."""
        if self._bbox is None:
            self._bbox = BBox.of_points(self._vertices)
        return self._bbox

    def __len__(self) -> int:
        return len(self._vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    # ------------------------------------------------------------------
    # measures
    # ------------------------------------------------------------------
    @property
    def area(self) -> float:
        """Enclosed area (shoelace formula; always positive)."""
        return _signed_area(self._vertices)

    @property
    def perimeter(self) -> float:
        """Total boundary length."""
        total = 0.0
        for a, b in self.edges():
            total += a.distance_to(b)
        return total

    @property
    def centroid(self) -> Point:
        """Area-weighted centroid."""
        area2 = 0.0
        cx = 0.0
        cy = 0.0
        ring = self._vertices
        for i in range(len(ring)):
            a = ring[i]
            b = ring[(i + 1) % len(ring)]
            cross = a.x * b.y - b.x * a.y
            area2 += cross
            cx += (a.x + b.x) * cross
            cy += (a.y + b.y) * cross
        return Point(cx / (3 * area2), cy / (3 * area2))

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[tuple[Point, Point]]:
        """Yield the boundary segments ``(v_k, v_{k+1})``."""
        ring = self._vertices
        for i in range(len(ring)):
            yield ring[i], ring[(i + 1) % len(ring)]

    def canonical_edges(self, digits: int = 9) -> frozenset[tuple]:
        """Orientation-independent hashable edge keys.

        Two polygons of a tessellation are rook neighbors exactly when
        they share at least one canonical edge.
        """
        keys = set()
        for a, b in self.edges():
            ka, kb = a.rounded(digits), b.rounded(digits)
            keys.add((ka, kb) if ka <= kb else (kb, ka))
        return frozenset(keys)

    def canonical_vertices(self, digits: int = 9) -> frozenset[tuple]:
        """Hashable vertex keys (queen contiguity: shared vertex)."""
        return frozenset(v.rounded(digits) for v in self._vertices)

    def contains_point(self, point: Point) -> bool:
        """Ray-casting point-in-polygon test (boundary counts inside)."""
        if not self.bbox.contains_point(point):
            return False
        inside = False
        ring = self._vertices
        for i in range(len(ring)):
            a = ring[i]
            b = ring[(i + 1) % len(ring)]
            if _on_segment(point, a, b):
                return True
            if (a.y > point.y) != (b.y > point.y):
                x_cross = a.x + (point.y - a.y) * (b.x - a.x) / (b.y - a.y)
                if point.x < x_cross:
                    inside = not inside
        return inside

    def translated(self, dx: float, dy: float) -> "Polygon":
        """A copy shifted by ``(dx, dy)``."""
        return Polygon(v.translated(dx, dy) for v in self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Polygon(n_vertices={len(self._vertices)}, area={self.area:.3g})"


def _signed_area(ring: Sequence[Point]) -> float:
    """Shoelace signed area; positive for counter-clockwise rings."""
    total = 0.0
    for i in range(len(ring)):
        a = ring[i]
        b = ring[(i + 1) % len(ring)]
        total += a.x * b.y - b.x * a.y
    return total / 2.0


def _on_segment(p: Point, a: Point, b: Point, eps: float = 1e-12) -> bool:
    """True when *p* lies on segment ``ab`` (within *eps* of collinear)."""
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if abs(cross) > eps * max(1.0, abs(b.x - a.x) + abs(b.y - a.y)):
        return False
    dot = (p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)
    squared_len = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    return -eps <= dot <= squared_len + eps
