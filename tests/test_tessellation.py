"""Tests for repro.geometry.tessellation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.contiguity import validate_adjacency
from repro.exceptions import GeometryError
from repro.geometry import (
    BBox,
    Point,
    Polygon,
    grid_tessellation,
    multi_patch_tessellation,
    voronoi_tessellation,
)
from repro.geometry.tessellation import _normalise_rings, _polygons


class TestGridTessellation:
    def test_cell_count(self):
        assert len(grid_tessellation(3, 4)) == 12

    def test_invalid_dimensions_raise(self):
        with pytest.raises(GeometryError):
            grid_tessellation(0, 3)

    def test_adjacency_is_rook(self):
        grid = grid_tessellation(3, 3)
        assert grid.adjacency[4] == frozenset({1, 3, 5, 7})  # center
        assert grid.adjacency[0] == frozenset({1, 3})  # corner

    def test_adjacency_is_valid(self):
        validate_adjacency(grid_tessellation(4, 5).adjacency)

    def test_cells_are_unit_squares(self):
        grid = grid_tessellation(2, 2, cell_size=2.0)
        assert grid.polygons[0].area == pytest.approx(4.0)
        assert grid.bbox.width == 4.0

    def test_total_area_fills_bbox(self):
        grid = grid_tessellation(3, 5)
        total = sum(polygon.area for polygon in grid.polygons)
        assert total == pytest.approx(grid.bbox.area)

    def test_centroids_one_per_cell(self):
        grid = grid_tessellation(2, 3)
        assert len(grid.centroids()) == 6


class TestVoronoiTessellation:
    def test_cell_count(self):
        assert voronoi_tessellation(40, seed=1).n_units == 40

    def test_too_few_units_raise(self):
        with pytest.raises(GeometryError):
            voronoi_tessellation(2)

    def test_deterministic_in_seed(self):
        a = voronoi_tessellation(25, seed=5)
        b = voronoi_tessellation(25, seed=5)
        assert a.adjacency == b.adjacency

    def test_different_seeds_differ(self):
        a = voronoi_tessellation(25, seed=5)
        b = voronoi_tessellation(25, seed=6)
        assert a.adjacency != b.adjacency

    def test_adjacency_is_valid_and_connected(self):
        tess = voronoi_tessellation(60, seed=2)
        validate_adjacency(tess.adjacency)
        # A bounded Voronoi tessellation of a box is connected.
        from repro.contiguity import connected_components

        components = connected_components(
            range(60), lambda i: tess.adjacency[i]
        )
        assert len(components) == 1

    def test_cells_tile_the_bbox(self):
        tess = voronoi_tessellation(50, seed=3)
        total = sum(polygon.area for polygon in tess.polygons)
        assert total == pytest.approx(tess.bbox.area, rel=1e-6)

    def test_cells_clipped_to_bbox(self):
        tess = voronoi_tessellation(30, seed=4)
        margin = 1e-6
        for polygon in tess.polygons:
            box = polygon.bbox
            assert box.min_x >= tess.bbox.min_x - margin
            assert box.max_x <= tess.bbox.max_x + margin
            assert box.min_y >= tess.bbox.min_y - margin
            assert box.max_y <= tess.bbox.max_y + margin

    def test_mean_degree_is_planar_like(self):
        tess = voronoi_tessellation(200, seed=7)
        mean_degree = sum(len(v) for v in tess.adjacency.values()) / 200
        assert 4.0 < mean_degree < 7.0  # census-tract-like topology

    def test_custom_bbox(self):
        box = BBox(0, 0, 10, 2)
        tess = voronoi_tessellation(20, seed=1, bbox=box)
        assert tess.bbox == box

    def test_lloyd_relaxation_regularizes_cells(self):
        raw = voronoi_tessellation(100, seed=9, lloyd_iterations=0)
        relaxed = voronoi_tessellation(100, seed=9, lloyd_iterations=3)

        def area_cv(tess):
            areas = [p.area for p in tess.polygons]
            mean = sum(areas) / len(areas)
            var = sum((a - mean) ** 2 for a in areas) / len(areas)
            return var**0.5 / mean

        assert area_cv(relaxed) < area_cv(raw)


class TestMultiPatchTessellation:
    def test_component_count(self):
        tess = multi_patch_tessellation([10, 12, 8], seed=1)
        from repro.contiguity import connected_components

        components = connected_components(
            range(len(tess)), lambda i: tess.adjacency[i]
        )
        assert len(components) == 3

    def test_total_units(self):
        assert len(multi_patch_tessellation([10, 12, 8], seed=1)) == 30

    def test_empty_patch_list_raises(self):
        with pytest.raises(GeometryError):
            multi_patch_tessellation([])

    def test_indices_are_dense(self):
        tess = multi_patch_tessellation([5, 5], seed=2)
        assert set(tess.adjacency) == set(range(10))
        validate_adjacency(tess.adjacency)

    def test_patches_do_not_overlap(self):
        tess = multi_patch_tessellation([6, 6], seed=3)
        first = [tess.polygons[i].bbox for i in range(6)]
        second = [tess.polygons[i].bbox for i in range(6, 12)]
        max_x_first = max(b.max_x for b in first)
        min_x_second = min(b.min_x for b in second)
        assert max_x_first < min_x_second

    def test_bbox_is_union_of_patches(self):
        tess = multi_patch_tessellation([30, 40], seed=1)
        polygon_max_x = max(p.bbox.max_x for p in tess.polygons)
        # The trailing inter-patch gap is not part of the box.
        assert tess.bbox.max_x == pytest.approx(polygon_max_x, abs=1e-9)
        assert tess.bbox.max_x == pytest.approx(30**0.5 * 1.25 + 40**0.5)
        assert tess.bbox.max_y == pytest.approx(40**0.5)
        assert (tess.bbox.min_x, tess.bbox.min_y) == (0.0, 0.0)
        grown = tess.bbox.expanded(1e-9)
        for polygon in tess.polygons:
            assert grown.contains_point(Point(polygon.bbox.min_x, polygon.bbox.min_y))
            assert grown.contains_point(Point(polygon.bbox.max_x, polygon.bbox.max_y))


class TestHexTessellation:
    def test_cell_count(self):
        from repro.geometry import hex_tessellation

        assert len(hex_tessellation(3, 4)) == 12

    def test_invalid_dimensions_raise(self):
        from repro.geometry import hex_tessellation

        with pytest.raises(GeometryError):
            hex_tessellation(0, 2)

    def test_adjacency_matches_shared_edges(self):
        from repro.contiguity import rook_adjacency
        from repro.geometry import hex_tessellation

        tess = hex_tessellation(4, 5)
        derived = rook_adjacency(list(tess.polygons), digits=6)
        assert derived == {
            i: frozenset(v) for i, v in tess.adjacency.items()
        }

    def test_interior_cell_has_six_neighbors(self):
        from repro.geometry import hex_tessellation

        tess = hex_tessellation(5, 5)
        degrees = [len(tess.adjacency[i]) for i in range(25)]
        assert max(degrees) == 6

    def test_adjacency_is_valid(self):
        from repro.geometry import hex_tessellation

        validate_adjacency(hex_tessellation(4, 6).adjacency)

    def test_hexagon_area_formula(self):
        from repro.geometry import hex_tessellation

        tess = hex_tessellation(2, 2, size=2.0)
        # regular hexagon with circumradius R: area = 3*sqrt(3)/2 * R^2
        import math

        expected = 3 * math.sqrt(3) / 2 * 4.0
        for polygon in tess.polygons:
            assert polygon.area == pytest.approx(expected, rel=1e-9)

    def test_solver_runs_on_hex_world(self):
        from repro.geometry import hex_tessellation
        from repro.data.synthetic import attach_attributes
        from repro import ConstraintSet, solve_emp, sum_constraint

        tess = hex_tessellation(6, 6)
        collection = attach_attributes(tess, seed=5)
        solution = solve_emp(
            collection,
            ConstraintSet([sum_constraint("TOTALPOP", lower=15000)]),
            enable_tabu=False,
        )
        assert solution.p >= 1


class TestRingKernels:
    """The array ring checks behave as ``Polygon.__init__`` does."""

    @staticmethod
    def _rings(*rings):
        xy = np.array([v for ring in rings for v in ring], dtype=float)
        width = max(len(ring) for ring in rings)
        index = np.zeros((len(rings), width), dtype=np.intp)
        start = 0
        for row, ring in enumerate(rings):
            index[row, : len(ring)] = np.arange(start, start + len(ring))
            start += len(ring)
        return xy, index, np.array([len(ring) for ring in rings])

    def test_matches_polygon_constructor(self):
        rings = [
            [(0, 0), (1, 0), (1, 1), (0, 1)],  # counter-clockwise
            [(0, 0), (0, 1), (1, 1), (1, 0)],  # clockwise: reversed
            [(0, 0), (2, 0), (0, 2), (0, 0)],  # repeated closing vertex
            [(0, 0), (0, 3), (3, 0), (0, 0)],  # clockwise and closed
            [(0.1, 0.2), (1.7, 0.3), (2.2, 1.9), (1.0, 2.6), (-0.4, 1.1)],
        ]
        xy, index, length = self._rings(*rings)
        index, length, (area2, cx, cy) = _normalise_rings(xy, index, length)
        polygons = _polygons(xy, index, length)
        for polygon, ring in zip(polygons, rings):
            expected = Polygon(ring)
            assert polygon == expected
            assert polygon.bbox == expected.bbox
        for row, ring in enumerate(rings):
            centroid = Polygon(ring).centroid
            assert cx[row] / (3 * area2[row]) == centroid.x
            assert cy[row] / (3 * area2[row]) == centroid.y

    def test_too_few_vertices_raise(self):
        ring = [(0, 0), (1, 1), (0, 0)]
        with pytest.raises(GeometryError, match="at least 3") as polygon_error:
            Polygon(ring)
        with pytest.raises(GeometryError) as kernel_error:
            _normalise_rings(*self._rings([(0, 0), (1, 0), (0, 1)], ring))
        assert str(kernel_error.value) == str(polygon_error.value)

    def test_zero_area_raises(self):
        ring = [(0, 0), (1, 1), (2, 2)]
        with pytest.raises(GeometryError, match="zero area"):
            Polygon(ring)
        with pytest.raises(GeometryError, match="zero area"):
            _normalise_rings(*self._rings([(0, 0), (1, 0), (0, 1)], ring))

    def test_first_offending_ring_decides_the_error(self):
        flat = [(0, 0), (1, 1), (2, 2)]
        short = [(0, 0), (1, 1), (0, 0)]
        with pytest.raises(GeometryError, match="zero area"):
            _normalise_rings(*self._rings(flat, short))
        with pytest.raises(GeometryError, match="at least 3"):
            _normalise_rings(*self._rings(short, flat))
