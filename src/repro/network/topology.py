"""Network topology generators and the uniform-grid spatial index.

All generators return ``(adjacency, positions)`` where *adjacency* maps a
node id to its neighbour ids and *positions* maps it to 2-D coordinates in
the unit square (used by location-aware experiments).  Coordinates are
unitless fractions of the deployment area's side length; radio range is
expressed in the same unit.

Two construction paths coexist:

- :func:`random_geometric_topology` keeps the historical `networkx`
  random-geometric graph (byte-identical output for a given seed, so
  seeded tests and benchmarks stay stable) but stitches disconnected
  components through a :class:`SpatialGrid` nearest-node search instead
  of the old all-pairs scan.
- :func:`city_topology` is the city-scale path: pure-Python position
  sampling plus a :class:`SpatialGrid` adjacency build, O(n · k) for
  average degree k instead of O(n²), with no `networkx`/`scipy`
  dependency — use it for static 10k+ node graphs that must be
  connected.  (The experiment runner derives its topologies from the
  mobility models' grid-backed snapshots instead, which are *not*
  stitched: a mid-run refresh would undo artificial links, so the runner
  reports fragmentation rather than hiding it.)

:func:`naive_adjacency` is the brute-force reference implementation that
benchmarks and property tests compare the grid against.
"""

from __future__ import annotations

import math
import random
from collections import deque
from collections.abc import Iterable, Mapping, Sequence

from repro.network.grid_backend import current_grid_backend

__all__ = [
    "SpatialGrid",
    "naive_adjacency",
    "proximity_adjacency",
    "random_geometric_topology",
    "city_topology",
    "grid_topology",
    "line_topology",
    "complete_topology",
]

Adjacency = dict[str, list[str]]
Positions = dict[str, tuple[float, float]]


def _node_id(i: int) -> str:
    return f"n{i}"


class SpatialGrid:
    """Uniform-grid spatial index with cell size equal to the radio range.

    Nodes live in hash buckets keyed by integer cell ``(x // r, y // r)``.
    Any node within *radius* of a query point is guaranteed to lie in the
    3×3 cell block around the query's cell, so range queries touch a
    constant number of buckets instead of the whole world, and moving a
    node re-buckets only that node (:meth:`move` is O(1) when the cell is
    unchanged, which is the common case for small mobility steps).

    Determinism: buckets are insertion-ordered dicts, so iteration order —
    and therefore every query result — depends only on the sequence of
    ``insert``/``move`` calls, never on hash randomisation.

    A non-positive *radius* degrades gracefully: only exactly co-located
    nodes are "within range", matching the brute-force definition
    ``dist <= radius``.
    """

    __slots__ = ("radius", "_cell_size", "_cells", "_where", "_pos")

    def __init__(self, radius: float):
        self.radius = radius
        # The 3×3 guarantee only needs cell_size >= radius, so tiny and
        # zero radii get a floored bucket size: cell coordinates stay
        # finite and ring searches stay bounded, while the <= radius
        # distance check still does the real filtering.
        self._cell_size = max(radius, 1e-3)
        self._cells: dict[tuple[int, int], dict[str, None]] = {}
        self._where: dict[str, tuple[int, int]] = {}
        self._pos: dict[str, tuple[float, float]] = {}

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self._cell_size)), int(math.floor(y / self._cell_size)))

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, node: str) -> bool:
        return node in self._where

    def position(self, node: str) -> tuple[float, float]:
        """The stored coordinates of *node*."""
        return self._pos[node]

    def cell_of(self, node: str) -> tuple[int, int]:
        """The grid cell *node* is currently bucketed in."""
        return self._where[node]

    def insert(self, node: str, x: float, y: float) -> None:
        """Add *node* at ``(x, y)``; a node id can be inserted once."""
        if node in self._where:
            raise ValueError(f"node {node!r} already in the grid (use move)")
        cell = self._cell_of(x, y)
        self._cells.setdefault(cell, {})[node] = None
        self._where[node] = cell
        self._pos[node] = (x, y)

    def move(self, node: str, x: float, y: float) -> tuple[tuple[int, int], tuple[int, int]]:
        """Update *node*'s position, re-bucketing only if its cell changed.

        Returns ``(old_cell, new_cell)`` so callers can compute the set of
        neighbourhoods an incremental refresh must re-examine.
        """
        old = self._where[node]
        self._pos[node] = (x, y)
        new = self._cell_of(x, y)
        if new != old:
            bucket = self._cells[old]
            del bucket[node]
            if not bucket:
                del self._cells[old]
            self._cells.setdefault(new, {})[node] = None
            self._where[node] = new
        return old, new

    def move_many(
        self, moves: Sequence[tuple[str, float, float]]
    ) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        """Batch :meth:`move`: one ``(old_cell, new_cell)`` per input move.

        The cell map for the whole batch runs through the active grid
        backend (:mod:`repro.network.grid_backend`), which vectorises it
        under numpy; re-bucketing then happens node by node **in input
        order**, so bucket insertion order — and therefore every later
        query — is exactly what the equivalent sequence of single
        :meth:`move` calls would produce, whichever backend computed the
        cells.
        """
        cells = current_grid_backend().assign_cells(
            [(x, y) for _, x, y in moves], self._cell_size
        )
        where = self._where
        pos = self._pos
        all_cells = self._cells
        out = []
        for (node, x, y), new in zip(moves, cells):
            old = where[node]
            pos[node] = (x, y)
            if new != old:
                bucket = all_cells[old]
                del bucket[node]
                if not bucket:
                    del all_cells[old]
                all_cells.setdefault(new, {})[node] = None
                where[node] = new
            out.append((old, new))
        return out

    def remove(self, node: str) -> None:
        """Drop *node* from the grid; its id may be inserted again later."""
        cell = self._where.pop(node)
        del self._pos[node]
        bucket = self._cells[cell]
        del bucket[node]
        if not bucket:
            del self._cells[cell]

    def block(self, cell: tuple[int, int]) -> Iterable[str]:
        """All nodes bucketed in the 3×3 block around *cell*.

        Order is bucket by bucket, each in insertion order: deterministic,
        but not the order the nodes were inserted overall.
        """
        cx, cy = cell
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = self._cells.get((cx + dx, cy + dy))
                if bucket:
                    yield from bucket

    def block_occupants(self, cell: tuple[int, int]) -> set[str]:
        """The 3×3 block contents as a set (incremental-refresh helper)."""
        return set(self.block(cell))

    def query(self, x: float, y: float) -> list[str]:
        """Every node within *radius* of the point ``(x, y)``."""
        out = []
        r = self.radius
        for other in self.block(self._cell_of(x, y)):
            ox, oy = self._pos[other]
            if math.hypot(ox - x, oy - y) <= r:
                out.append(other)
        return out

    def neighbors_within(self, node: str) -> list[str]:
        """Every *other* node within *radius* of *node*'s stored position."""
        x, y = self._pos[node]
        out = []
        r = self.radius
        for other in self.block(self._where[node]):
            if other == node:
                continue
            ox, oy = self._pos[other]
            if math.hypot(ox - x, oy - y) <= r:
                out.append(other)
        return out

    def nearest(self, x: float, y: float) -> tuple[str, float] | None:
        """The exact nearest node to ``(x, y)`` via expanding ring search.

        Scans cell rings outward from the query cell and keeps going one
        extra margin after the first hit, because a node in a farther ring
        can still be closer than one found early.  Returns
        ``(node, distance)`` or ``None`` for an empty grid.
        """
        if not self._where:
            return None
        cx, cy = self._cell_of(x, y)
        best: tuple[str, float] | None = None
        ring = 0
        # Bound the search by the occupied extent so empty space far from
        # every node cannot loop forever.
        occupied = self._cells.keys()
        max_ring = max(
            max(abs(ox - cx), abs(oy - cy)) for ox, oy in occupied
        )
        while ring <= max_ring:
            for ox, oy in self._ring_cells(cx, cy, ring):
                bucket = self._cells.get((ox, oy))
                if not bucket:
                    continue
                for node in bucket:
                    nx_, ny_ = self._pos[node]
                    d = math.hypot(nx_ - x, ny_ - y)
                    if best is None or d < best[1]:
                        best = (node, d)
            if best is not None and ring * self._cell_size > best[1]:
                break  # nothing in a farther ring can beat the current best
            ring += 1
        return best

    @staticmethod
    def _ring_cells(cx: int, cy: int, ring: int) -> Iterable[tuple[int, int]]:
        if ring == 0:
            yield (cx, cy)
            return
        for dx in range(-ring, ring + 1):
            yield (cx + dx, cy - ring)
            yield (cx + dx, cy + ring)
        for dy in range(-ring + 1, ring):
            yield (cx - ring, cy + dy)
            yield (cx + ring, cy + dy)

    def adjacency(self, *, sort_key=None) -> Adjacency:
        """Unit-disk adjacency of every stored node (lists optionally sorted)."""
        out: Adjacency = {}
        for node in self._where:
            neighbours = self.neighbors_within(node)
            if sort_key is not None:
                neighbours.sort(key=sort_key)
            out[node] = neighbours
        return out


def naive_adjacency(positions: Mapping[str, tuple[float, float]], radius: float) -> Adjacency:
    """Brute-force all-pairs unit-disk adjacency (the O(n²) reference).

    Kept as the ground truth the :class:`SpatialGrid` is benchmarked and
    property-tested against; production paths must not call it for large
    populations.  Neighbour lists come out in node-insertion order.
    """
    nodes = list(positions)
    adjacency: Adjacency = {node: [] for node in nodes}
    for i, a in enumerate(nodes):
        ax, ay = positions[a]
        for b in nodes[i + 1:]:
            bx, by = positions[b]
            if math.hypot(ax - bx, ay - by) <= radius:
                adjacency[a].append(b)
                adjacency[b].append(a)
    return adjacency


def proximity_adjacency(
    positions: Mapping[str, tuple[float, float]], radius: float
) -> Adjacency:
    """Grid-indexed unit-disk adjacency; equals :func:`naive_adjacency`.

    Builds a throwaway :class:`SpatialGrid` over *positions* and reads the
    adjacency back with neighbour lists in node-insertion order, so the
    result is list-for-list identical to the brute-force reference while
    costing O(n · k) instead of O(n²).
    """
    grid = SpatialGrid(radius)
    order: dict[str, int] = {}
    for i, (node, (x, y)) in enumerate(positions.items()):
        grid.insert(node, x, y)
        order[node] = i
    return grid.adjacency(sort_key=order.__getitem__)


def _connect_components(
    adjacency: Adjacency, positions: Mapping[str, tuple[float, float]], radius: float
) -> None:
    """Stitch every smaller component to the giant one, in place.

    Matches the historical behaviour (the closest node pair between each
    component and the growing main component gains an edge) but finds that
    pair with a :class:`SpatialGrid` expanding-ring nearest-node search
    over the main component instead of an all-pairs scan.
    """
    components = _components(adjacency)
    if len(components) <= 1:
        return
    # Stable size sort: equal-sized components keep BFS discovery order,
    # matching the historical all-pairs implementation choice for choice.
    components.sort(key=len, reverse=True)
    main = components[0]
    main_grid = SpatialGrid(radius)
    for node in sorted(main):
        main_grid.insert(node, *positions[node])
    for component in components[1:]:
        best: tuple[float, str, str] | None = None
        for a in sorted(component):
            found = main_grid.nearest(*positions[a])
            assert found is not None
            b, d = found
            if best is None or d < best[0]:
                best = (d, a, b)
        assert best is not None
        _, a, b = best
        adjacency[a].append(b)
        adjacency[b].append(a)
        for node in sorted(component):
            main_grid.insert(node, *positions[node])


def _components(adjacency: Adjacency) -> list[set[str]]:
    """Connected components by BFS (deterministic order)."""
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in adjacency:
        if start in seen:
            continue
        component = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for other in adjacency[node]:
                if other not in component:
                    component.add(other)
                    frontier.append(other)
        seen |= component
        components.append(component)
    return components


def random_geometric_topology(
    n: int,
    radius: float = 0.2,
    *,
    seed: int | None = None,
    connect: bool = True,
) -> tuple[Adjacency, Positions]:
    """Nodes uniform in the unit square; edges within *radius* (radio range).

    Deterministic for a given *seed* (delegates position sampling and edge
    construction to ``networkx.random_geometric_graph``, so seeded graphs
    are stable across releases of this module).  With ``connect=True``,
    isolated components are stitched to the giant component through their
    closest node pair, so floods can reach everyone (a disconnected MANET
    would trivially zero every metric); the closest pair is found with a
    grid nearest-node search rather than an all-pairs scan.

    For populations beyond a few thousand nodes prefer
    :func:`city_topology`, which skips `networkx` entirely.
    """
    import networkx as nx

    graph = nx.random_geometric_graph(n, radius, seed=seed)
    pos = nx.get_node_attributes(graph, "pos")
    adjacency = {
        _node_id(i): [_node_id(j) for j in graph.neighbors(i)] for i in graph.nodes
    }
    positions = {_node_id(i): tuple(coord) for i, coord in pos.items()}
    if connect and n > 1:
        _connect_components(adjacency, positions, radius)
    return adjacency, positions


def city_topology(
    n: int,
    radius: float,
    *,
    seed: int | None = None,
    connect: bool = True,
) -> tuple[Adjacency, Positions]:
    """City-scale unit-disk topology built entirely on the spatial grid.

    Samples *n* positions uniformly in the unit square with
    ``random.Random(seed)`` (deterministic for a given seed) and derives
    adjacency through a :class:`SpatialGrid`, so construction is O(n · k)
    for average degree k — practical for 10k+ node populations where the
    all-pairs scan is not.  ``connect=True`` stitches stray components to
    the giant one exactly as :func:`random_geometric_topology` does.

    Note the expected degree is ``n · π · radius²``: keep *radius* near
    ``sqrt(target_degree / (π n))`` or dense cities become cliques.
    """
    if n < 0:
        raise ValueError("need a non-negative node count")
    if radius < 0:
        raise ValueError("radio radius must be non-negative")
    rng = random.Random(seed)
    positions: Positions = {
        _node_id(i): (rng.random(), rng.random()) for i in range(n)
    }
    adjacency = proximity_adjacency(positions, radius)
    if connect and n > 1:
        _connect_components(adjacency, positions, radius)
    return adjacency, positions


def grid_topology(width: int, height: int) -> tuple[Adjacency, Positions]:
    """4-connected grid of width × height nodes."""
    adjacency: Adjacency = {}
    positions: Positions = {}
    for y in range(height):
        for x in range(width):
            node = _node_id(y * width + x)
            neighbours = []
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                nx_, ny_ = x + dx, y + dy
                if 0 <= nx_ < width and 0 <= ny_ < height:
                    neighbours.append(_node_id(ny_ * width + nx_))
            adjacency[node] = neighbours
            positions[node] = (float(x), float(y))
    return adjacency, positions


def line_topology(n: int) -> tuple[Adjacency, Positions]:
    """A chain -- the worst case for multi-hop relay depth."""
    adjacency = {}
    positions = {}
    for i in range(n):
        neighbours = []
        if i > 0:
            neighbours.append(_node_id(i - 1))
        if i < n - 1:
            neighbours.append(_node_id(i + 1))
        adjacency[_node_id(i)] = neighbours
        positions[_node_id(i)] = (float(i), 0.0)
    return adjacency, positions


def complete_topology(n: int, *, seed: int | None = None) -> tuple[Adjacency, Positions]:
    """Everyone in radio range of everyone (single-hop proximity scenario)."""
    rng = random.Random(seed)
    ids = [_node_id(i) for i in range(n)]
    adjacency = {node: [other for other in ids if other != node] for node in ids}
    positions = {node: (rng.random(), rng.random()) for node in ids}
    return adjacency, positions
