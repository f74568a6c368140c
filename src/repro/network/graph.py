"""Road-network graph model (Definition 1 of the paper).

A road network is an undirected graph ``G = (V, E)`` where every edge carries a
travel cost. The paper uses travel time and travel distance interchangeably; in
this library the canonical edge cost is the **travel time in seconds** obtained
from the edge length in metres and the speed of the edge's road class. The raw
length is kept alongside so distance-based statistics stay available.

Vertices carry planar coordinates (metres) which the decision phase of
``pruneGreedyDP`` uses for admissible Euclidean lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.timegrid import TIME_QUANTUM, on_grid
from repro.exceptions import RoadNetworkError
from repro.utils.geometry import Point

Vertex = int
"""Type alias for vertex identifiers (dense non-negative integers)."""

#: the APSP table's "unreachable" cell, in ticks of the time grid. Every
#: finite distance lies below it, and edge ticks stop one short of it, so a
#: cell plus one edge stays within ``2**31 - 1`` and never overflows int32.
UNREACHABLE_TICKS = 2**30


class CSRAdjacency:
    """Compressed-sparse-row view of a :class:`RoadNetwork`.

    The array-native hot path (CSR Dijkstra, batched oracle queries, the
    vectorized decision phase) works on *positions* — dense indices
    ``0..N-1`` assigned to the vertices in sorted-identifier order — instead
    of raw vertex identifiers. The adjacency of position ``i`` is
    ``indices[indptr[i]:indptr[i+1]]`` with travel costs in the matching
    slice of ``costs``; neighbours are sorted by vertex identifier so the
    layout is deterministic.

    Attributes:
        vertex_ids: ``(N,)`` int64 — vertex identifier of each position.
        indptr: ``(N+1,)`` int64 — row pointers.
        indices: ``(M,)`` int64 — neighbour positions (both directions of
            every undirected edge, so ``M = 2 |E|``).
        costs: ``(M,)`` float64 — travel times in seconds.
        ticks: ``(M,)`` int32 — the same costs in ticks of the time grid,
            clamped at ``UNREACHABLE_TICKS - 1`` (the integer view the APSP
            table is built and repaired from).
        xs, ys: ``(N,)`` float64 — vertex coordinates in metres.
        position: mapping ``vertex id -> position``.
    """

    def __init__(self, network: "RoadNetwork") -> None:
        ordered = sorted(network._coordinates)
        position = {vertex: index for index, vertex in enumerate(ordered)}
        n = len(ordered)
        self.vertex_ids = np.fromiter(ordered, dtype=np.int64, count=n)
        self.position = position
        self.xs = np.fromiter(
            (network._coordinates[v].x for v in ordered), dtype=np.float64, count=n
        )
        self.ys = np.fromiter(
            (network._coordinates[v].y for v in ordered), dtype=np.float64, count=n
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices: list[int] = []
        costs: list[float] = []
        for row, vertex in enumerate(ordered):
            adjacency = network._adjacency.get(vertex, {})
            for neighbour in sorted(adjacency):
                indices.append(position[neighbour])
                costs.append(adjacency[neighbour])
            indptr[row + 1] = len(indices)
        self.indptr = indptr
        self.indices = np.asarray(indices, dtype=np.int64)
        self.costs = np.asarray(costs, dtype=np.float64)
        # costs are whole ticks, so the scaling is exact
        self.ticks = np.minimum(self.costs / TIME_QUANTUM, UNREACHABLE_TICKS - 1).astype(np.int32)
        # dense id -> position lookup for vectorized translation (vertex ids
        # are near-dense in every generator; fall back to the dict otherwise)
        max_id = int(self.vertex_ids[-1]) if n else -1
        if n and max_id < 4 * n:
            lookup = np.full(max_id + 1, -1, dtype=np.int64)
            lookup[self.vertex_ids] = np.arange(n, dtype=np.int64)
            self._lookup: np.ndarray | None = lookup
        else:
            self._lookup = None
        # plain-list mirrors: Python-level Dijkstra loops index these ~3x
        # faster than numpy scalars (no boxing per element access)
        self.indptr_list: list[int] = indptr.tolist()
        self.indices_list: list[int] = self.indices.tolist()
        self.costs_list: list[float] = self.costs.tolist()
        self.vertex_ids_list: list[int] = self.vertex_ids.tolist()

    @cached_property
    def ticks_list(self) -> list[int]:
        """Plain-list mirror of :attr:`ticks`, built on first use: only the
        APSP backend's Python loops read it (the table's paths and its
        repair), so networks on another backend do not pay for one boxed
        int per edge slot."""
        return self.ticks.tolist()

    @property
    def num_vertices(self) -> int:
        """Number of vertices covered by the CSR layout."""
        return len(self.vertex_ids)

    def position_of(self, vertex: Vertex) -> int:
        """Position of ``vertex`` in the CSR layout.

        Raises:
            RoadNetworkError: if the vertex does not exist.
        """
        try:
            return self.position[vertex]
        except KeyError as exc:
            raise RoadNetworkError(f"unknown vertex {vertex}") from exc

    def positions_of(self, vertices: Sequence[Vertex] | np.ndarray) -> np.ndarray:
        """Vectorized ``vertex id -> position`` translation."""
        ids = np.asarray(vertices, dtype=np.int64)
        if self._lookup is not None:
            if ids.size and (ids.min() < 0 or ids.max() >= self._lookup.size):
                out_of_range = ids[(ids < 0) | (ids >= self._lookup.size)]
                raise RoadNetworkError(f"unknown vertex {int(out_of_range[0])}")
            positions = self._lookup[ids]
            if positions.size and positions.min() < 0:
                missing = ids[positions < 0]
                raise RoadNetworkError(f"unknown vertex {int(missing[0])}")
            return positions
        try:
            return np.fromiter(
                (self.position[int(v)] for v in ids), dtype=np.int64, count=ids.size
            )
        except KeyError as exc:
            raise RoadNetworkError(f"unknown vertex {exc.args[0]}") from exc


@dataclass(frozen=True, slots=True)
class Edge:
    """An undirected road segment.

    Attributes:
        u: one endpoint.
        v: the other endpoint.
        length: segment length in metres.
        speed: free-flow travel speed in metres/second.
        road_class: descriptive label such as ``"motorway"`` or ``"residential"``.
    """

    u: Vertex
    v: Vertex
    length: float
    speed: float
    road_class: str = "residential"

    @property
    def cost(self) -> float:
        """Travel time of this segment in seconds, rounded up onto the time grid."""
        return on_grid(self.length / self.speed, "edge cost")


@dataclass(frozen=True, slots=True)
class EdgeMutation:
    """One recorded topology mutation, replayable on an identical network.

    Instances are produced by :meth:`RoadNetwork.end_mutation_capture` and
    carry the full edge metadata so a ``close`` (``remove_edge``) or
    ``reopen`` (``add_edge``) can be re-applied verbatim on a *replica* of
    the network that recorded it — the basis of the cluster replica-sync
    ``NetworkUpdateCommand``. The dataclass is picklable and frozen so it
    can travel over worker pipes and live in the front door's journal.
    """

    kind: str
    """Either ``"close"`` (edge removed) or ``"reopen"`` (edge added)."""

    u: Vertex
    v: Vertex
    length: float
    speed: float
    road_class: str

    def apply(self, network: "RoadNetwork") -> None:
        """Re-apply this mutation to ``network``."""
        if self.kind == "close":
            network.remove_edge(self.u, self.v)
        elif self.kind == "reopen":
            network.add_edge(
                self.u, self.v, length=self.length, speed=self.speed,
                road_class=self.road_class,
            )
        else:  # pragma: no cover - constructor is internal
            raise RoadNetworkError(f"unknown edge mutation kind {self.kind!r}")


class RoadNetwork:
    """An undirected road network with per-vertex coordinates.

    The class offers O(1) access to vertex coordinates, adjacency with travel
    costs, and a few aggregate statistics (Table 4 of the paper). It is
    intentionally a plain adjacency-list structure; all shortest-path machinery
    lives in :mod:`repro.network.shortest_path`, :mod:`repro.network.ch` and
    :mod:`repro.network.backends`.
    """

    def __init__(self, name: str = "road-network") -> None:
        self.name = name
        self._coordinates: dict[Vertex, Point] = {}
        # adjacency: vertex -> {neighbour: cost_seconds}
        self._adjacency: dict[Vertex, dict[Vertex, float]] = {}
        # keep edge metadata for statistics and IO round-trips
        self._edges: dict[tuple[Vertex, Vertex], Edge] = {}
        self._max_speed: float = 0.0
        # CSR view, rebuilt lazily after topology mutations
        self._csr: CSRAdjacency | None = None
        self._topology_version: int = 0
        self._csr_version: int = -1
        # when not None, add_edge/remove_edge append EdgeMutation records
        self._mutation_capture: list[EdgeMutation] | None = None

    # ------------------------------------------------------------- mutation log

    def begin_mutation_capture(self) -> None:
        """Start recording edge mutations for later replay.

        Every subsequent :meth:`add_edge` / :meth:`remove_edge` appends an
        :class:`EdgeMutation` until :meth:`end_mutation_capture` is called.
        Used by the event engine to ship live network updates to cluster
        replicas as replayable commands.
        """
        self._mutation_capture = []

    def end_mutation_capture(self) -> tuple[EdgeMutation, ...]:
        """Stop recording and return the mutations captured since ``begin``."""
        captured = self._mutation_capture or ()
        self._mutation_capture = None
        return tuple(captured)

    # ------------------------------------------------------------------ build

    def add_vertex(self, vertex: Vertex, point: Point) -> None:
        """Register ``vertex`` at coordinates ``point``.

        Re-adding an existing vertex with different coordinates is an error.
        """
        existing = self._coordinates.get(vertex)
        if existing is not None and existing != point:
            raise RoadNetworkError(
                f"vertex {vertex} already exists at {existing}, cannot move it to {point}"
            )
        self._coordinates[vertex] = point
        self._adjacency.setdefault(vertex, {})
        self._topology_version += 1

    def add_edge(
        self,
        u: Vertex,
        v: Vertex,
        length: float | None = None,
        speed: float = 10.0,
        road_class: str = "residential",
    ) -> Edge:
        """Add an undirected edge between existing vertices ``u`` and ``v``.

        Args:
            u: first endpoint (must have been added).
            v: second endpoint (must have been added).
            length: edge length in metres; defaults to the Euclidean distance
                between the endpoints.
            speed: travel speed in metres/second (> 0).
            road_class: label used for statistics only.

        Returns:
            The created :class:`Edge`.

        Raises:
            RoadNetworkError: for unknown endpoints, self-loops, non-positive
                speed, a zero length (two vertices at one spot), or a length
                shorter than the straight-line distance (which would break
                Euclidean lower bounds).
        """
        if u == v:
            raise RoadNetworkError(f"self-loop on vertex {u} is not allowed")
        if u not in self._coordinates or v not in self._coordinates:
            raise RoadNetworkError(f"both endpoints must exist before adding edge ({u}, {v})")
        if speed <= 0:
            raise RoadNetworkError(f"edge ({u}, {v}) speed must be positive, got {speed}")
        straight = self._coordinates[u].distance_to(self._coordinates[v])
        if length is None:
            length = straight
        if length < straight - 1e-6:
            raise RoadNetworkError(
                f"edge ({u}, {v}) length {length:.3f} m is shorter than the straight-line "
                f"distance {straight:.3f} m; Euclidean lower bounds would be violated"
            )
        if length <= 0:
            raise RoadNetworkError(
                f"edge ({u}, {v}) length must be positive, got {length}: every street "
                f"costs at least one tick of the time grid"
            )
        edge = Edge(u=u, v=v, length=float(length), speed=float(speed), road_class=road_class)
        cost = edge.cost
        previous = self._adjacency[u].get(v)
        if previous is None or cost < previous:
            # keep the cheaper edge if a parallel edge is added
            self._adjacency[u][v] = cost
            self._adjacency[v][u] = cost
            self._edges[self._edge_key(u, v)] = edge
            self._topology_version += 1
            if self._mutation_capture is not None:
                self._mutation_capture.append(EdgeMutation(
                    "reopen", edge.u, edge.v, edge.length, edge.speed,
                    edge.road_class,
                ))
        self._max_speed = max(self._max_speed, edge.speed)
        return edge

    def remove_edge(self, u: Vertex, v: Vertex) -> Edge:
        """Remove the undirected edge between ``u`` and ``v`` (street closure).

        The removed :class:`Edge` is returned so callers can reopen the street
        later with :meth:`add_edge` using the original length/speed metadata.
        ``_max_speed`` is deliberately *not* recomputed: after removing the
        fastest edge it may overestimate, which keeps Euclidean travel-time
        lower bounds admissible (they only get looser, never wrong).

        Raises:
            RoadNetworkError: if no such edge exists.
        """
        key = self._edge_key(u, v)
        edge = self._edges.pop(key, None)
        if edge is None:
            raise RoadNetworkError(f"no edge between {u} and {v}")
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._topology_version += 1
        if self._mutation_capture is not None:
            self._mutation_capture.append(EdgeMutation(
                "close", edge.u, edge.v, edge.length, edge.speed,
                edge.road_class,
            ))
        return edge

    @staticmethod
    def _edge_key(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
        return (u, v) if u <= v else (v, u)

    # ------------------------------------------------------------------ query

    def has_vertex(self, vertex: Vertex) -> bool:
        """Whether ``vertex`` exists."""
        return vertex in self._coordinates

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether an edge between ``u`` and ``v`` exists."""
        return self._edge_key(u, v) in self._edges

    def coordinates(self, vertex: Vertex) -> Point:
        """Coordinates of ``vertex``.

        Raises:
            RoadNetworkError: if the vertex does not exist.
        """
        try:
            return self._coordinates[vertex]
        except KeyError as exc:
            raise RoadNetworkError(f"unknown vertex {vertex}") from exc

    def neighbours(self, vertex: Vertex) -> dict[Vertex, float]:
        """Mapping ``neighbour -> travel cost (seconds)`` for ``vertex``."""
        try:
            return self._adjacency[vertex]
        except KeyError as exc:
            raise RoadNetworkError(f"unknown vertex {vertex}") from exc

    def edge(self, u: Vertex, v: Vertex) -> Edge:
        """The :class:`Edge` between ``u`` and ``v``.

        Raises:
            RoadNetworkError: if no such edge exists.
        """
        try:
            return self._edges[self._edge_key(u, v)]
        except KeyError as exc:
            raise RoadNetworkError(f"no edge between {u} and {v}") from exc

    def edge_cost(self, u: Vertex, v: Vertex) -> float:
        """Travel time (seconds) of the edge ``(u, v)``."""
        cost = self._adjacency.get(u, {}).get(v)
        if cost is None:
            raise RoadNetworkError(f"no edge between {u} and {v}")
        return cost

    def euclidean(self, u: Vertex, v: Vertex) -> float:
        """Straight-line distance between two vertices in metres."""
        return self.coordinates(u).distance_to(self.coordinates(v))

    @property
    def csr(self) -> CSRAdjacency:
        """The CSR view of the network, rebuilt lazily after mutations.

        Building costs one pass over the adjacency; every shortest-path run
        and batched oracle query shares the cached arrays afterwards.
        """
        if self._csr is None or self._csr_version != self._topology_version:
            self._csr = CSRAdjacency(self)
            self._csr_version = self._topology_version
        return self._csr

    # ------------------------------------------------------------- iteration

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertex identifiers."""
        return iter(self._coordinates)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges (each undirected edge exactly once)."""
        return iter(self._edges.values())

    # ------------------------------------------------------------ statistics

    @property
    def num_vertices(self) -> int:
        """Number of vertices (|V|)."""
        return len(self._coordinates)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (|E|)."""
        return len(self._edges)

    @property
    def max_speed(self) -> float:
        """Maximum edge speed in metres/second (used for admissible time bounds)."""
        return self._max_speed if self._max_speed > 0 else 1.0

    def total_length(self) -> float:
        """Total road length in metres."""
        return sum(edge.length for edge in self._edges.values())

    def degree(self, vertex: Vertex) -> int:
        """Number of incident edges of ``vertex``."""
        return len(self.neighbours(vertex))

    def statistics(self) -> dict[str, float]:
        """Aggregate statistics in the spirit of Table 4 of the paper."""
        degrees = [len(adj) for adj in self._adjacency.values()]
        return {
            "vertices": float(self.num_vertices),
            "edges": float(self.num_edges),
            "total_length_km": self.total_length() / 1000.0,
            "mean_degree": (sum(degrees) / len(degrees)) if degrees else 0.0,
            "max_speed_mps": self.max_speed,
        }

    def validate(self) -> None:
        """Check structural invariants; raise :class:`RoadNetworkError` on failure."""
        for (u, v), edge in self._edges.items():
            if u not in self._coordinates or v not in self._coordinates:
                raise RoadNetworkError(f"edge ({u}, {v}) references a missing vertex")
            if edge.length < 0 or edge.speed <= 0:
                raise RoadNetworkError(f"edge ({u}, {v}) has invalid length/speed")
        for vertex, adjacency in self._adjacency.items():
            for neighbour, cost in adjacency.items():
                if cost < 0:
                    raise RoadNetworkError(
                        f"negative travel cost {cost} on ({vertex}, {neighbour})"
                    )
                reciprocal = self._adjacency.get(neighbour, {}).get(vertex)
                if reciprocal != cost:
                    raise RoadNetworkError(
                        f"asymmetric adjacency between {vertex} and {neighbour}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"RoadNetwork(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )


@dataclass
class ConnectedComponents:
    """Result of a connected-component analysis of a :class:`RoadNetwork`."""

    labels: dict[Vertex, int] = field(default_factory=dict)
    sizes: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        """Number of connected components."""
        return len(self.sizes)

    def largest_component(self) -> set[Vertex]:
        """Vertices of the largest component (ties broken by label order)."""
        if not self.sizes:
            return set()
        target = max(range(len(self.sizes)), key=lambda idx: self.sizes[idx])
        return {vertex for vertex, label in self.labels.items() if label == target}


def connected_components(network: RoadNetwork) -> ConnectedComponents:
    """Label connected components of ``network`` with an iterative BFS."""
    result = ConnectedComponents()
    visited: set[Vertex] = set()
    label = 0
    for start in network.vertices():
        if start in visited:
            continue
        size = 0
        frontier = [start]
        visited.add(start)
        while frontier:
            vertex = frontier.pop()
            result.labels[vertex] = label
            size += 1
            for neighbour in network.neighbours(vertex):
                if neighbour not in visited:
                    visited.add(neighbour)
                    frontier.append(neighbour)
        result.sizes.append(size)
        label += 1
    return result


def induced_subnetwork(network: RoadNetwork, keep: Iterable[Vertex]) -> RoadNetwork:
    """Return the subnetwork induced by the vertex set ``keep``.

    Vertex identifiers are preserved. Used to restrict generated networks to
    their largest connected component.
    """
    keep_set = set(keep)
    result = RoadNetwork(name=network.name)
    for vertex in keep_set:
        result.add_vertex(vertex, network.coordinates(vertex))
    for edge in network.edges():
        if edge.u in keep_set and edge.v in keep_set:
            result.add_edge(
                edge.u, edge.v, length=edge.length, speed=edge.speed, road_class=edge.road_class
            )
    return result
