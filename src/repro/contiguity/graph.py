"""Graph algorithms over contiguity structures.

The FaCT phases repeatedly answer two questions about the *induced
subgraph* of a region's member set:

- is it connected? (every region must be, Definition III.2)
- which members are articulation points? (an area may leave a region
  only if it is not one — the donor-side check in Step 3 swaps and in
  every Tabu move)

Both are implemented over a neighbor *function* rather than a
materialized graph so they work directly on
:meth:`repro.core.area.AreaCollection.neighbors` restricted to a set.
"""

from __future__ import annotations

from typing import Callable, Iterable

__all__ = [
    "is_connected",
    "connected_components",
    "articulation_points",
    "bfs_order",
    "removable_set",
    "block_cut_state",
    "BlockCutIndex",
    "csr_adjacency",
    "neighbors_from_csr",
]

NeighborFn = Callable[[int], Iterable[int]]


def csr_adjacency(
    nodes: Iterable[int], neighbors: NeighborFn
) -> tuple[list[int], list[int]]:
    """CSR ``(indptr, indices)`` of the subgraph induced by *nodes*.

    Rows follow the order of *nodes*; entries are *dense positions*
    (indexes into the node order, not raw ids), each row sorted
    ascending. Neighbors outside the node set are dropped, so the CSR
    is exactly the dict-of-sets graph restricted to *nodes*. Plain
    Python lists — the array core converts them once; callers that
    need ids back use :func:`neighbors_from_csr`.
    """
    node_order = list(nodes)
    position = {node: i for i, node in enumerate(node_order)}
    indptr = [0]
    indices: list[int] = []
    for node in node_order:
        row = sorted(
            position[neighbor]
            for neighbor in neighbors(node)
            if neighbor in position
        )
        indices.extend(row)
        indptr.append(len(indices))
    return indptr, indices


def neighbors_from_csr(
    nodes: Iterable[int],
    indptr: "Iterable[int]",
    indices: "Iterable[int]",
) -> dict[int, frozenset[int]]:
    """Inverse of :func:`csr_adjacency`: dense CSR back to an
    id → neighbor-id-set mapping (for round-trip verification)."""
    node_order = list(nodes)
    indptr = list(indptr)
    indices = list(indices)
    return {
        node: frozenset(
            node_order[j] for j in indices[indptr[i] : indptr[i + 1]]
        )
        for i, node in enumerate(node_order)
    }


def bfs_order(start: int, nodes: frozenset[int] | set[int],
              neighbors: NeighborFn) -> list[int]:
    """Breadth-first visit order of the subgraph induced by *nodes*,
    starting from *start* (which must be a member)."""
    if start not in nodes:
        raise ValueError(f"start node {start} is not in the node set")
    seen = {start}
    order = [start]
    queue = [start]
    head = 0
    while head < len(order):
        current = order[head]
        head += 1
        for neighbor in neighbors(current):
            if neighbor in nodes and neighbor not in seen:
                seen.add(neighbor)
                order.append(neighbor)
    return order


def is_connected(nodes: Iterable[int], neighbors: NeighborFn) -> bool:
    """True when the induced subgraph over *nodes* is connected and
    non-empty."""
    node_set = set(nodes)
    if not node_set:
        return False
    start = next(iter(node_set))
    return len(bfs_order(start, node_set, neighbors)) == len(node_set)


def connected_components(
    nodes: Iterable[int], neighbors: NeighborFn
) -> list[frozenset[int]]:
    """Connected components of the induced subgraph over *nodes*."""
    remaining = set(nodes)
    components: list[frozenset[int]] = []
    while remaining:
        start = next(iter(remaining))
        component = frozenset(bfs_order(start, remaining, neighbors))
        remaining -= component
        components.append(component)
    return components


def articulation_points(
    nodes: Iterable[int], neighbors: NeighborFn
) -> frozenset[int]:
    """Articulation points of the induced subgraph over *nodes*.

    Read off the iterative Hopcroft–Tarjan pass of
    :func:`block_cut_state` (no recursion, so arbitrarily large
    regions are safe; every component gets its own DFS root).
    """
    return block_cut_state(set(nodes), neighbors)[1]


# Epoch-stamped scratch for the block-cut DFS:
# discovery/low are indexed by node id, a cell is valid only when its
# stamp equals the current epoch, so no per-call clearing — the oracle
# rebuilds this DFS twice per accepted Tabu move and the dict
# bookkeeping it replaces was the single hottest line of a solve.
# Node ids above the cap (sparse id spaces) use the dict variant.
_SCRATCH_NODE_CAP = 1 << 21
_scratch_epoch = 0
_scratch_stamp: list[int] = []
_scratch_disc: list[int] = []
_scratch_low: list[int] = []


def removable_set(
    nodes: Iterable[int],
    neighbors: NeighborFn,
    adjacency: dict[int, list[int]] | None = None,
) -> tuple[bool, frozenset[int]]:
    """``(connected, removable)`` for the induced subgraph of *nodes*.

    ``removable`` is the set of nodes whose individual removal leaves
    the *remaining* node set connected and non-empty — exactly the
    verdict of a per-node BFS check, computed for every node at once:

    - one connected component: every non-articulation node (a single
      Hopcroft–Tarjan pass instead of ``|nodes|`` BFS runs);
    - two components: only an isolated node can leave (the other
      component is then the connected remainder);
    - three or more components, or a single node: nothing is removable
      (removal leaves a disconnected or empty remainder).

    The per-region contiguity oracle
    (:meth:`repro.core.region.Region.removable_areas`) returns the same
    verdict incrementally; this costs one DFS traversal of the induced
    subgraph. Passing a
    precomputed induced *adjacency* (see :func:`block_cut_state`) skips
    the per-node membership filtering inside that traversal.
    """
    node_set = set(nodes)
    if not node_set:
        return False, frozenset()
    if len(node_set) == 1:
        return True, frozenset()
    components, articulation, _ = block_cut_state(
        node_set, neighbors, adjacency
    )
    if len(components) == 1:
        return True, frozenset(node_set) - articulation
    if len(components) == 2:
        return False, frozenset(
            node
            for component in components
            if len(component) == 1
            for node in component
        )
    return False, frozenset()


def block_cut_state(
    node_set: set[int] | frozenset[int],
    neighbors: NeighborFn,
    adjacency: dict[int, list[int]] | None = None,
) -> tuple[list[frozenset[int]], frozenset[int], list[set[int]]]:
    """``(components, articulation, biconnected blocks)`` in one pass.

    The edge-stack variant of the Hopcroft–Tarjan DFS: every tree/back
    edge is pushed once, and whenever a child subtree closes with
    ``low(child) >= disc(parent)`` the edges popped down to the tree
    edge form one biconnected block (emitted as its vertex set). An
    isolated vertex forms a singleton block, so the blocks always cover
    the node set and a vertex is an articulation point exactly when it
    belongs to two or more blocks.

    Storage: dense epoch-stamped scratch below ``_SCRATCH_NODE_CAP``,
    dict bookkeeping above it (sparse id spaces such as raw census
    GEOIDs would blow the dense scratch up).

    When *adjacency* is given it must already be the induced adjacency
    (node → in-set neighbor list for exactly the nodes of *node_set*);
    the DFS then skips all membership filtering. Callers that maintain
    the induced rows incrementally (:class:`repro.core.region.Region`)
    turn every oracle rebuild from O(Σ full-degree) set probes into a
    bare traversal of the precomputed rows.
    """
    if not node_set:
        return [], frozenset(), []
    rows = adjacency
    if rows is None:
        rows = {
            node: [n for n in neighbors(node) if n in node_set]
            for node in node_set
        }
    max_node = max(node_set)
    if max_node > _SCRATCH_NODE_CAP:
        return _block_dfs_sparse(node_set, rows)

    global _scratch_epoch
    stamp = _scratch_stamp
    if max_node >= len(stamp):
        grow = max_node + 1 - len(stamp)
        stamp.extend([0] * grow)
        _scratch_disc.extend([0] * grow)
        _scratch_low.extend([0] * grow)
    _scratch_epoch += 1
    epoch = _scratch_epoch
    disc = _scratch_disc
    low = _scratch_low

    components: list[frozenset[int]] = []
    articulation: set[int] = set()
    blocks: list[set[int]] = []
    counter = 0

    for root in node_set:
        if stamp[root] == epoch:
            continue
        component = [root]
        root_children = 0
        stack = [(root, None, iter(rows[root]))]
        stamp[root] = epoch
        disc[root] = low[root] = counter
        counter += 1
        edges: list[tuple[int, int]] = []
        while stack:
            node, parent_node, iterator = stack[-1]
            disc_node = disc[node]
            low_node = low[node]
            advanced = False
            for neighbor in iterator:
                if stamp[neighbor] != epoch:
                    if node == root:
                        root_children += 1
                    stamp[neighbor] = epoch
                    disc[neighbor] = low[neighbor] = counter
                    counter += 1
                    component.append(neighbor)
                    edges.append((node, neighbor))
                    stack.append((neighbor, node, iter(rows[neighbor])))
                    advanced = True
                    break
                if neighbor != parent_node:
                    d = disc[neighbor]
                    if d < disc_node:
                        # Back edge to an ancestor: push once (the
                        # descendant side sees the smaller disc).
                        edges.append((node, neighbor))
                        if d < low_node:
                            low_node = d
            low[node] = low_node
            if advanced:
                continue
            stack.pop()
            if stack:
                pnode = stack[-1][0]
                if low_node < low[pnode]:
                    low[pnode] = low_node
                if low_node >= disc[pnode]:
                    block: set[int] = set()
                    while True:
                        u, w = edges.pop()
                        block.add(u)
                        block.add(w)
                        if u == pnode and w == node:
                            break
                    blocks.append(block)
                    if pnode != root:
                        articulation.add(pnode)
        if root_children > 1:
            articulation.add(root)
        elif len(component) == 1:
            blocks.append({root})
        components.append(frozenset(component))
    return components, frozenset(articulation), blocks


def _block_dfs_sparse(
    node_set: set[int] | frozenset[int], rows: dict[int, list[int]]
) -> tuple[list[frozenset[int]], frozenset[int], list[set[int]]]:
    """Dict-bookkeeping variant of :func:`block_cut_state` for node ids
    too large to index the dense scratch. Identical traversal and
    results — only the discovery/low storage differs."""
    components: list[frozenset[int]] = []
    articulation: set[int] = set()
    blocks: list[set[int]] = []
    discovery: dict[int, int] = {}
    low: dict[int, int] = {}
    counter = 0

    for root in node_set:
        if root in discovery:
            continue
        component = [root]
        root_children = 0
        stack = [(root, None, iter(rows[root]))]
        discovery[root] = low[root] = counter
        counter += 1
        edges: list[tuple[int, int]] = []
        while stack:
            node, parent_node, iterator = stack[-1]
            disc_node = discovery[node]
            low_node = low[node]
            advanced = False
            for neighbor in iterator:
                d = discovery.get(neighbor)
                if d is None:
                    if node == root:
                        root_children += 1
                    discovery[neighbor] = low[neighbor] = counter
                    counter += 1
                    component.append(neighbor)
                    edges.append((node, neighbor))
                    stack.append((neighbor, node, iter(rows[neighbor])))
                    advanced = True
                    break
                if neighbor != parent_node and d < disc_node:
                    edges.append((node, neighbor))
                    if d < low_node:
                        low_node = d
            low[node] = low_node
            if advanced:
                continue
            stack.pop()
            if stack:
                pnode = stack[-1][0]
                if low_node < low[pnode]:
                    low[pnode] = low_node
                if low_node >= discovery[pnode]:
                    block: set[int] = set()
                    while True:
                        u, w = edges.pop()
                        block.add(u)
                        block.add(w)
                        if u == pnode and w == node:
                            break
                    blocks.append(block)
                    if pnode != root:
                        articulation.add(pnode)
        if root_children > 1:
            articulation.add(root)
        elif len(component) == 1:
            blocks.append({root})
        components.append(frozenset(component))
    return components, frozenset(articulation), blocks


class BlockCutIndex:
    """Incrementally maintained block-cut structure of one *connected*
    induced subgraph.

    Holds the biconnected blocks (block id → vertex set), each vertex's
    block memberships, and the articulation set — which is exactly the
    vertices belonging to two or more blocks. The per-region contiguity
    oracle keeps one of these alive between queries and applies the
    region's membership mutations to it instead of re-running the full
    Hopcroft–Tarjan DFS:

    - **adding** a vertex with ``k`` in-set neighbors never needs a
      DFS: ``k = 1`` hangs a new two-vertex leaf block off the
      neighbor, and each further neighbor edge merges the blocks along
      one path of the block-cut tree into a single biconnected block
      (the Westbrook–Tarjan incremental-biconnectivity step);
    - **removing** a non-articulation vertex re-splits only its single
      containing block (one localized DFS over that block, O(1) for
      two-vertex blocks) — every other block is untouched;
    - everything else — removal of an articulation point, a
      disconnecting mutation, a desynchronized snapshot — returns
      ``False``, and the caller falls back to a full rebuild
      (``PerfCounters.oracle_fallbacks``).

    Mutation methods that return ``False`` may leave the structure
    partially updated; the contract is that the caller discards it and
    rebuilds.
    """

    __slots__ = (
        "blocks",
        "vertex_blocks",
        "articulation",
        "_block_cuts",
        "_next_id",
    )

    def __init__(self) -> None:
        self.blocks: dict[int, set[int]] = {}
        self.vertex_blocks: dict[int, set[int]] = {}
        self.articulation: set[int] = set()
        # block id → its articulation vertices: the block-cut tree's
        # adjacency, kept explicit so path searches never scan a whole
        # block's member set.
        self._block_cuts: dict[int, set[int]] = {}
        self._next_id = 0

    def __len__(self) -> int:
        return len(self.vertex_blocks)

    # -- construction ---------------------------------------------------
    def load(
        self,
        blocks: Iterable[Iterable[int]],
        articulation: Iterable[int],
    ) -> None:
        """Populate from a :func:`block_cut_state` result (replacing
        any previous content)."""
        self.blocks.clear()
        self.vertex_blocks.clear()
        self.articulation.clear()
        self._block_cuts.clear()
        vertex_blocks = self.vertex_blocks
        for members in blocks:
            bid = self._new_block(set(members))
            for vertex in self.blocks[bid]:
                row = vertex_blocks.get(vertex)
                if row is None:
                    vertex_blocks[vertex] = {bid}
                else:
                    row.add(bid)
        self.articulation.update(articulation)
        for vertex in self.articulation:
            for bid in vertex_blocks[vertex]:
                self._block_cuts[bid].add(vertex)

    def rebuild(
        self,
        node_set: set[int] | frozenset[int],
        neighbors: NeighborFn,
        adjacency: dict[int, list[int]] | None = None,
    ) -> bool:
        """Full-DFS (re)build; ``False`` (and an empty structure) when
        the node set is not a single connected component."""
        components, articulation, blocks = block_cut_state(
            node_set, neighbors, adjacency
        )
        if len(components) > 1:
            self.load((), ())
            return False
        self.load(blocks, articulation)
        return True

    # -- incremental mutation -------------------------------------------
    def add_vertex(self, vertex: int, member_neighbors: Iterable[int]) -> bool:
        """Apply "vertex joined, adjacent to *member_neighbors*".

        *member_neighbors* must be the vertex's in-set neighbors at the
        moment of the mutation. No DFS: pure block-cut tree surgery.
        """
        vertex_blocks = self.vertex_blocks
        if vertex in vertex_blocks:
            return False
        nbrs = list(member_neighbors)
        if not vertex_blocks:
            if nbrs:
                return False
            vertex_blocks[vertex] = {self._new_block({vertex})}
            return True
        if not nbrs:
            return False  # second component — no longer connected
        for u in nbrs:
            if u not in vertex_blocks:
                return False  # snapshot disagrees with the structure
        first = nbrs[0]
        first_blocks = vertex_blocks[first]
        lone = next(iter(first_blocks)) if len(first_blocks) == 1 else None
        if lone is not None and len(self.blocks[lone]) == 1:
            # Singleton structure {first}: widen its lone block.
            self.blocks[lone].add(vertex)
            vertex_blocks[vertex] = {lone}
        else:
            bid = self._new_block({first, vertex})
            vertex_blocks[vertex] = {bid}
            first_blocks.add(bid)
            self._update_articulation(first)
        for u in nbrs[1:]:
            if not self._insert_edge(vertex, u):
                return False
        return True

    def remove_vertex(
        self,
        vertex: int,
        neighbors: NeighborFn,
        adjacency: dict[int, list[int]] | None = None,
    ) -> bool:
        """Apply "vertex left". Only non-articulation vertices can be
        removed incrementally (anything else splits the graph); the
        localized re-split runs over the vertex's single block only.
        *neighbors* is the collection-level neighbor function used by
        that re-split (filtered to the block internally).

        *adjacency*, when given, must be the induced adjacency of the
        whole vertex set right after this removal (node → in-set
        neighbor list). A member of the block that is no cut vertex
        has all its neighbors inside the block, so its row is taken as
        is; only the block's cut vertices are filtered."""
        vertex_blocks = self.vertex_blocks
        bids = vertex_blocks.get(vertex)
        if bids is None or vertex in self.articulation or len(bids) != 1:
            return False
        bid = next(iter(bids))
        members = self.blocks[bid]
        if len(members) == 1:
            # Last vertex of a singleton structure.
            if len(vertex_blocks) != 1:
                return False
            del self.blocks[bid]
            del self._block_cuts[bid]
            del vertex_blocks[vertex]
            return True
        if len(members) == 2:
            other = next(m for m in members if m != vertex)
            del vertex_blocks[vertex]
            if len(vertex_blocks) == 1:
                # Two-vertex structure shrinks to a singleton block.
                members.discard(vertex)
                self._update_articulation(other)
                return True
            other_blocks = vertex_blocks[other]
            if len(other_blocks) == 1:
                return False  # `other` would be isolated: corrupt input
            del self.blocks[bid]
            del self._block_cuts[bid]
            other_blocks.discard(bid)
            self._update_articulation(other)
            return True
        # |block| >= 3: biconnected minus one vertex stays connected,
        # but may shatter into smaller blocks — one localized DFS.
        members.discard(vertex)
        local = members
        rows = None
        if adjacency is not None:
            if len(local) == len(adjacency):
                rows = adjacency  # the block is the whole vertex set
            else:
                rows = {member: adjacency[member] for member in local}
                for cut in self._block_cuts[bid]:
                    rows[cut] = [n for n in adjacency[cut] if n in local]
        components, _, new_blocks = block_cut_state(local, neighbors, rows)
        if len(components) != 1:
            return False  # impossible for a true biconnected block
        del vertex_blocks[vertex]
        if len(new_blocks) == 1:
            # Still biconnected: no member changes its blocks, so the
            # articulation set and the cut mirror stand.
            return True
        del self.blocks[bid]
        del self._block_cuts[bid]
        for member in local:
            vertex_blocks[member].discard(bid)
        for block_members in new_blocks:
            new_id = self._new_block(block_members)
            for member in block_members:
                vertex_blocks[member].add(new_id)
        for member in local:
            self._update_articulation(member)
        return True

    # -- internals ------------------------------------------------------
    def _new_block(self, members: set[int]) -> int:
        bid = self._next_id
        self._next_id += 1
        self.blocks[bid] = members
        self._block_cuts[bid] = set()
        return bid

    def _update_articulation(self, vertex: int) -> None:
        """Re-derive one vertex's articulation status from its block
        count and mirror it into the per-block cut-vertex sets."""
        bids = self.vertex_blocks[vertex]
        if len(bids) >= 2:
            self.articulation.add(vertex)
            for bid in bids:
                self._block_cuts[bid].add(vertex)
        else:
            self.articulation.discard(vertex)
            for bid in bids:
                self._block_cuts[bid].discard(vertex)

    def _insert_edge(self, v: int, u: int) -> bool:
        """Westbrook–Tarjan edge insertion: if the endpoints already
        share a block the edge is internal; otherwise every block on
        the block-cut tree path between them collapses into one."""
        vertex_blocks = self.vertex_blocks
        if vertex_blocks[v] & vertex_blocks[u]:
            return True
        path = self._tree_path_blocks(v, u)
        if path is None:
            return False
        self._merge_blocks(path)
        return True

    def _tree_path_blocks(self, v: int, u: int) -> list[int] | None:
        """Block ids on the block-cut tree path between the tree nodes
        of *v* and *u* (a vertex is a tree node only when it is an
        articulation point; otherwise its unique block stands in)."""
        articulation = self.articulation
        vertex_blocks = self.vertex_blocks
        src = ("v", v) if v in articulation else (
            "b", next(iter(vertex_blocks[v]))
        )
        dst = ("v", u) if u in articulation else (
            "b", next(iter(vertex_blocks[u]))
        )
        if src == dst:
            return []
        parent: dict[tuple[str, int], tuple[str, int] | None] = {src: None}
        queue = [src]
        head = 0
        found = False
        while head < len(queue):
            node = queue[head]
            head += 1
            if node == dst:
                found = True
                break
            kind, key = node
            if kind == "b":
                for cut in self._block_cuts[key]:
                    nxt = ("v", cut)
                    if nxt not in parent:
                        parent[nxt] = node
                        queue.append(nxt)
            else:
                for bid in vertex_blocks[key]:
                    nxt = ("b", bid)
                    if nxt not in parent:
                        parent[nxt] = node
                        queue.append(nxt)
        if not found:
            return None  # not one tree — the structure is corrupt
        path: list[int] = []
        node: tuple[str, int] | None = dst
        while node is not None:
            if node[0] == "b":
                path.append(node[1])
            node = parent[node]
        return path

    def _merge_blocks(self, bids: list[int]) -> None:
        """Collapse the given blocks into one, folding smaller blocks
        into the largest so repeated merges into a dominant block stay
        cheap (weighted-union)."""
        if len(bids) <= 1:
            return
        blocks = self.blocks
        survivor = max(bids, key=lambda b: len(blocks[b]))
        target = blocks[survivor]
        vertex_blocks = self.vertex_blocks
        changed: set[int] = set()
        for bid in bids:
            if bid == survivor:
                continue
            for member in blocks.pop(bid):
                row = vertex_blocks[member]
                row.discard(bid)
                row.add(survivor)
                target.add(member)
                changed.add(member)
            del self._block_cuts[bid]
        for member in changed:
            self._update_articulation(member)

    # -- validation (test/debug aid) ------------------------------------
    def check(self, node_set: Iterable[int], neighbors: NeighborFn) -> None:
        """Assert this structure equals a fresh full rebuild over
        *node_set* — blocks as vertex sets, articulation set, and the
        vertex→block / block→cut-vertex mirrors. O(V+E); never called
        on hot paths."""
        expected = BlockCutIndex()
        if not expected.rebuild(set(node_set), neighbors):
            raise AssertionError("check() requires a connected node set")
        mine = sorted(
            (sorted(members) for members in self.blocks.values())
        )
        theirs = sorted(
            (sorted(members) for members in expected.blocks.values())
        )
        assert mine == theirs, f"blocks diverged: {mine} != {theirs}"
        assert self.articulation == expected.articulation, (
            f"articulation diverged: {sorted(self.articulation)} != "
            f"{sorted(expected.articulation)}"
        )
        derived: dict[int, set[int]] = {}
        for bid, members in self.blocks.items():
            for vertex in members:
                derived.setdefault(vertex, set()).add(bid)
        assert derived == self.vertex_blocks, "vertex→block map diverged"
        for bid, members in self.blocks.items():
            assert self._block_cuts[bid] == (
                members & self.articulation
            ), f"cut-vertex mirror diverged for block {bid}"
