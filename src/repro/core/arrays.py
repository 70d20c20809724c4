"""Array-native solver core: the flat-array mirror of solver state.

The object-graph hot paths (:class:`~repro.core.region.Region`,
:class:`~repro.fact.state.SolutionState`) are exact but pure Python —
fast enough at 2k areas, not at the 25k–50k registry datasets. This
module holds the flat-array mirror of that state which the vectorized
Tabu candidate scoring (:mod:`repro.fact.tabu`) and the batched
construction kernels (:mod:`repro.fact.growing`) evaluate with numpy:

- :class:`CollectionArrays` — the **static** per-collection arrays,
  built once and cached weakly: CSR rook adjacency (``indptr`` /
  ``indices`` over dense positions, from
  :func:`repro.contiguity.graph.csr_adjacency`), the dissimilarity
  vector, one float64 vector per attribute, and optional centroid
  coordinates.
- :class:`ArrayState` — the **mutable** per-solution arrays: a flat
  int64 label vector (``-1`` unassigned, ``-2`` excluded) plus
  per-region aggregate vectors (attribute sums, member counts,
  coordinate sums), maintained by the same
  ``Region.add_area``/``remove_area`` calls that update the scalar
  :class:`~repro.core.aggregates.AggregateState` — one hook site, so
  every float accumulates in the identical order and the mirror stays
  **bit-identical** to the object graph.

Every :class:`~repro.fact.state.SolutionState` builds the mirror. The
kernels that read it dispatch on input size against their scalar
counterparts (``_VECTOR_MIN_DONOR`` in :mod:`repro.fact.tabu`,
``_VECTOR_MIN_BATCH`` in :mod:`repro.fact.growing`); both sides of
each dispatch are bit-identical by contract.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..contiguity.graph import csr_adjacency

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .area import AreaCollection

__all__ = [
    "UNASSIGNED",
    "EXCLUDED",
    "CollectionArrays",
    "collection_arrays",
    "ArrayState",
]

# Label-vector sentinels. Distinct so the flat vector alone encodes the
# full partition including the feasibility-phase exclusions.
UNASSIGNED = -1
EXCLUDED = -2


# ----------------------------------------------------------------------
# static per-collection arrays
# ----------------------------------------------------------------------
class CollectionArrays:
    """Immutable flat-array view of one :class:`AreaCollection`.

    Everything here is a pure function of the collection, so one
    instance is built per collection (see :func:`collection_arrays`)
    and shared by every solve over it. Areas are addressed by **dense
    position** — their index in ``collection.ids`` insertion order —
    with ``index`` mapping raw area ids to positions.
    """

    __slots__ = (
        "ids",
        "index",
        "_dense_ids",
        "indptr",
        "indices",
        "dissimilarity",
        "attributes",
        "coord_x",
        "coord_y",
    )

    def __init__(self, collection: "AreaCollection"):
        ids = list(collection.ids)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.index = {area_id: i for i, area_id in enumerate(ids)}
        # Synthetic collections number areas 0..n-1 in insertion order;
        # when that holds, ids ARE positions and lookups vectorize.
        self._dense_ids = ids == list(range(len(ids)))
        indptr, indices = csr_adjacency(ids, collection.neighbors)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.dissimilarity = np.asarray(
            [collection.dissimilarity(area_id) for area_id in ids],
            dtype=np.float64,
        )
        self.attributes = {
            name: np.asarray(
                [collection.attribute(area_id, name) for area_id in ids],
                dtype=np.float64,
            )
            for name in sorted(collection.attribute_names)
        }
        # Centroid coordinates exist only when every area carries a
        # polygon (the compactness objective's requirement); synthetic
        # census collections have none, so these stay None there.
        coords: list[tuple[float, float]] = []
        for area_id in ids:
            polygon = collection.area(area_id).polygon
            if polygon is None:
                coords = []
                break
            centroid = polygon.centroid
            coords.append((centroid.x, centroid.y))
        if coords:
            self.coord_x = np.asarray(
                [xy[0] for xy in coords], dtype=np.float64
            )
            self.coord_y = np.asarray(
                [xy[1] for xy in coords], dtype=np.float64
            )
        else:
            self.coord_x = None
            self.coord_y = None

    def __len__(self) -> int:
        return len(self.index)

    def positions(self, area_ids: Iterable[int]):
        """Dense positions of *area_ids* as an int64 array."""
        if self._dense_ids:
            return np.asarray(list(area_ids), dtype=np.int64)
        index = self.index
        return np.asarray(
            [index[area_id] for area_id in area_ids], dtype=np.int64
        )


_COLLECTION_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def collection_arrays(collection: "AreaCollection") -> CollectionArrays:
    """The (weakly cached) :class:`CollectionArrays` of *collection*."""
    arrays = _COLLECTION_CACHE.get(collection)
    if arrays is None:
        arrays = CollectionArrays(collection)
        _COLLECTION_CACHE[collection] = arrays
    return arrays


# ----------------------------------------------------------------------
# mutable per-solution arrays
# ----------------------------------------------------------------------
class ArrayState:
    """Flat-array mirror of one :class:`SolutionState`'s assignment.

    ``labels[pos]`` is the region id of the area at dense position
    *pos* (:data:`UNASSIGNED` / :data:`EXCLUDED` otherwise).
    ``region_count[rid]`` and ``region_sums[attr][rid]`` mirror each
    region's member count and per-attribute sum; rows are indexed by
    raw region id (capacity grows geometrically — solver region ids
    increase monotonically) and zeroed when a region empties, exactly
    like :class:`AggregateState`'s drift reset.

    The mirror is written from a single hook site —
    ``Region.add_area``/``remove_area`` call :meth:`on_add` /
    :meth:`on_remove` right where the scalar aggregates update — so
    every float accumulation happens in the identical order and the
    vectors stay bit-identical to the object graph under any mutation
    sequence (assign, move, merge, dissolve).
    """

    __slots__ = (
        "arrays",
        "tracked",
        "labels",
        "region_count",
        "region_sums",
        "region_coord_x",
        "region_coord_y",
    )

    def __init__(
        self,
        arrays: CollectionArrays,
        tracked: Iterable[str] = (),
        excluded: Iterable[int] = (),
    ):
        self.arrays = arrays
        self.tracked = tuple(tracked)
        self.labels = np.full(len(arrays), UNASSIGNED, dtype=np.int64)
        for area_id in excluded:
            self.labels[arrays.index[area_id]] = EXCLUDED
        capacity = 16
        self.region_count = np.zeros(capacity, dtype=np.int64)
        self.region_sums = {
            name: np.zeros(capacity, dtype=np.float64)
            for name in self.tracked
        }
        if arrays.coord_x is not None:
            self.region_coord_x = np.zeros(capacity, dtype=np.float64)
            self.region_coord_y = np.zeros(capacity, dtype=np.float64)
        else:
            self.region_coord_x = None
            self.region_coord_y = None

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return len(self.region_count)

    def _ensure_capacity(self, region_id: int) -> None:
        capacity = len(self.region_count)
        if region_id < capacity:
            return
        while capacity <= region_id:
            capacity *= 2
        grown = np.zeros(capacity, dtype=np.int64)
        grown[: len(self.region_count)] = self.region_count
        self.region_count = grown
        for name, sums in self.region_sums.items():
            grown = np.zeros(capacity, dtype=np.float64)
            grown[: len(sums)] = sums
            self.region_sums[name] = grown
        if self.region_coord_x is not None:
            for attr in ("region_coord_x", "region_coord_y"):
                sums = getattr(self, attr)
                grown = np.zeros(capacity, dtype=np.float64)
                grown[: len(sums)] = sums
                setattr(self, attr, grown)

    # ------------------------------------------------------------------
    # the Region mutation sink
    # ------------------------------------------------------------------
    def on_add(self, region_id: int, area_id: int) -> None:
        """Mirror one ``Region.add_area`` membership insertion."""
        arrays = self.arrays
        position = arrays.index[area_id]
        self.labels[position] = region_id
        self._ensure_capacity(region_id)
        self.region_count[region_id] += 1
        for name in self.tracked:
            self.region_sums[name][region_id] += arrays.attributes[name][
                position
            ]
        if self.region_coord_x is not None:
            self.region_coord_x[region_id] += arrays.coord_x[position]
            self.region_coord_y[region_id] += arrays.coord_y[position]

    def on_clear(self, region_id: int, area_ids: Iterable[int]) -> None:
        """Mirror ``Region._clear``: what an :meth:`on_remove` of every
        member leaves behind (labels unassigned, the row zeroed)."""
        index = self.arrays.index
        self.labels[[index[area_id] for area_id in area_ids]] = UNASSIGNED
        self.region_count[region_id] = 0
        for sums in self.region_sums.values():
            sums[region_id] = 0.0
        if self.region_coord_x is not None:
            self.region_coord_x[region_id] = 0.0
            self.region_coord_y[region_id] = 0.0

    def on_remove(self, region_id: int, area_id: int) -> None:
        """Mirror one ``Region.remove_area`` membership deletion."""
        arrays = self.arrays
        position = arrays.index[area_id]
        self.labels[position] = UNASSIGNED
        self.region_count[region_id] -= 1
        emptied = self.region_count[region_id] == 0
        for name in self.tracked:
            sums = self.region_sums[name]
            if emptied:
                sums[region_id] = 0.0  # cancel drift, like AggregateState
            else:
                sums[region_id] -= arrays.attributes[name][position]
        if self.region_coord_x is not None:
            if emptied:
                self.region_coord_x[region_id] = 0.0
                self.region_coord_y[region_id] = 0.0
            else:
                self.region_coord_x[region_id] -= arrays.coord_x[position]
                self.region_coord_y[region_id] -= arrays.coord_y[position]
