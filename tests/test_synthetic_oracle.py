"""Dataset generation against its per-cell reference, bit for bit.

``oracles/synthetic_reference.py`` keeps the straightforward generator:
a ``Polygon`` per cell for each Lloyd centroid, a loop over Voronoi
ridges, a per-unit smoothing loop and ``scipy.stats.norm.ppf``. The
production generator computes the same arithmetic over arrays and must
reproduce it exactly: vertex coordinates (compared through
``float.hex``), polygon bboxes, the iteration order of every neighbor
set, and every attribute value. Both sides run on the same numpy and
scipy, so the comparison holds whatever versions are installed.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import synthetic_reference as reference
from repro.data import DATASETS, load_dataset
from repro.data.synthetic import smoothed_normal_scores
from repro.geometry import multi_patch_tessellation, voronoi_tessellation


def _hex(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


def _polygon_key(polygon) -> tuple:
    box = polygon.bbox
    return (
        tuple(_hex((v.x, v.y)) for v in polygon.vertices),
        _hex((box.min_x, box.min_y, box.max_x, box.max_y)),
    )


def _tessellation_key(tessellation) -> tuple:
    return (
        [_polygon_key(p) for p in tessellation.polygons],
        [list(tessellation.adjacency[i]) for i in range(len(tessellation))],
        _hex(
            (
                tessellation.bbox.min_x,
                tessellation.bbox.min_y,
                tessellation.bbox.max_x,
                tessellation.bbox.max_y,
            )
        ),
    )


def _collection_key(collection) -> tuple:
    return (
        [_polygon_key(area.polygon) for area in collection],
        [list(collection.neighbors(i)) for i in collection.ids],
        [
            sorted((name, value.hex()) for name, value in area.attributes.items())
            for area in collection
        ],
    )


class TestTessellations:
    @pytest.mark.parametrize("n_units", [3, 4, 25, 180])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("lloyd_iterations", [0, 1, 3])
    def test_single_patch(self, n_units, seed, lloyd_iterations):
        got = voronoi_tessellation(
            n_units, seed=seed, lloyd_iterations=lloyd_iterations
        )
        want = reference.voronoi_tessellation(
            n_units, seed=seed, lloyd_iterations=lloyd_iterations
        )
        assert _tessellation_key(got) == _tessellation_key(want)

    @pytest.mark.parametrize(
        "sizes, seed", [([30, 40], 1), ([10, 12, 8], 3), ([3, 3], 0), ([90, 60], 9)]
    )
    def test_multi_patch(self, sizes, seed):
        got = multi_patch_tessellation(sizes, seed=seed)
        want = reference.multi_patch_tessellation(sizes, seed=seed)
        assert _tessellation_key(got) == _tessellation_key(want)


class TestSmoothing:
    @pytest.mark.parametrize("rounds", [0, 1, 2, 4])
    @pytest.mark.parametrize("self_weight", [0.5, 0.3])
    def test_random_graph_with_isolated_units(self, rounds, self_weight):
        rng = np.random.default_rng(rounds)
        n = 60
        links = {i: set() for i in range(n)}
        for a, b in rng.integers(0, n - 5, size=(150, 2)).tolist():
            if a != b:
                links[a].add(b)
                links[b].add(a)
        # Units n-5 .. n-1 stay isolated; sets are built in shuffled
        # order so their iteration order is not sorted order.
        adjacency = {
            i: frozenset(rng.permutation(sorted(s)).tolist()) for i, s in links.items()
        }
        got = smoothed_normal_scores(
            adjacency, np.random.default_rng(5), rounds, self_weight
        )
        want = reference.smoothed_normal_scores(
            adjacency, np.random.default_rng(5), rounds, self_weight
        )
        assert got.tobytes() == want.tobytes()


class TestDatasets:
    @pytest.mark.parametrize(
        "name, scale, seed",
        [
            ("2k", 0.05, None),
            ("2k", 0.05, 3),
            ("1k", 0.1, 11),
            ("10k", 0.1, None),
            ("10k", 0.1, 5),
            ("20k", 0.02, None),
        ],
    )
    def test_registry_dataset(self, name, scale, seed):
        spec = DATASETS[name]
        got = load_dataset(name, scale=scale, seed=seed)
        want = reference.synthetic_census(
            spec.scaled_size(scale),
            seed=spec.seed if seed is None else seed,
            patches=spec.patches,
        )
        assert _collection_key(got) == _collection_key(want)
