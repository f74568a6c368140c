"""Shortest-path helpers only the tests call.

The seed's dict-of-dict Dijkstra searches (:func:`dijkstra_reference`,
:func:`bidirectional_dijkstra_reference`) are the baselines the CSR searches
of :mod:`repro.network.shortest_path` must equal exactly; :func:`dijkstra`
is the single-source CSR search, and the small wrappers below answer one
question each over it,
:func:`table_seconds` reads the APSP backend's raw table of ticks as seconds,
and :class:`ReferenceBackend` is a distance backend that searches.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Sequence

import numpy as np

from repro.core.timegrid import TIME_QUANTUM
from repro.exceptions import DisconnectedError
from repro.network.graph import UNREACHABLE_TICKS, RoadNetwork, Vertex
from repro.network.shortest_path import _csr_dijkstra, bidirectional_dijkstra

INFINITY = math.inf


def dijkstra(
    network: RoadNetwork,
    source: Vertex,
    targets: Iterable[Vertex] | None = None,
    max_cost: float = INFINITY,
) -> dict[Vertex, float]:
    """Single-source Dijkstra on the CSR adjacency (the scan
    :func:`~repro.network.shortest_path.check_tick_range` runs, kept here as
    a test helper with targets and a cost bound).

    Args:
        network: the road network.
        source: start vertex.
        targets: optional set of targets; the search stops once all of them
            are settled (or proven unreachable within ``max_cost``).
        max_cost: do not settle vertices farther than this cost.

    Returns:
        Mapping ``vertex -> shortest travel time`` for every settled vertex.
    """
    csr = network.csr
    src = csr.position_of(source)
    remaining: set[int] | None = None
    if targets is not None:
        # unknown targets can never be settled; a sentinel keeps the search
        # exhaustive, matching the dict reference behaviour
        remaining = {csr.position.get(target, -1) for target in targets}
    distances, settled = _csr_dijkstra(csr, src, remaining, max_cost)
    vertex_ids = csr.vertex_ids_list
    return {
        vertex_ids[index]: distances[index]
        for index in range(len(settled))
        if settled[index]
    }


def dijkstra_reference(
    network: RoadNetwork,
    source: Vertex,
    targets: Iterable[Vertex] | None = None,
    max_cost: float = INFINITY,
) -> dict[Vertex, float]:
    """The seed's dict-of-dict Dijkstra, kept as the equivalence baseline.

    The property tests assert that :func:`dijkstra` (CSR) returns *exactly*
    the same mapping as this reference on random generator networks.
    """
    remaining: set[Vertex] | None = set(targets) if targets is not None else None
    distances: dict[Vertex, float] = {source: 0.0}
    settled: set[Vertex] = set()
    heap: list[tuple[float, Vertex]] = [(0.0, source)]
    while heap:
        cost, vertex = heapq.heappop(heap)
        if vertex in settled:
            continue
        if cost > max_cost:
            break
        settled.add(vertex)
        if remaining is not None:
            remaining.discard(vertex)
            if not remaining:
                break
        for neighbour, edge_cost in network.neighbours(vertex).items():
            candidate = cost + edge_cost
            if candidate < distances.get(neighbour, INFINITY) and candidate <= max_cost:
                distances[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return {vertex: cost for vertex, cost in distances.items() if vertex in settled}


def bidirectional_dijkstra_reference(
    network: RoadNetwork, source: Vertex, target: Vertex
) -> tuple[float, list[Vertex]]:
    """The seed's dict-of-dict bidirectional Dijkstra (equivalence baseline).

    Kept verbatim so property tests can compare the CSR implementation
    against the original.
    """
    if source == target:
        return 0.0, [source]

    dist_forward: dict[Vertex, float] = {source: 0.0}
    dist_backward: dict[Vertex, float] = {target: 0.0}
    parent_forward: dict[Vertex, Vertex] = {}
    parent_backward: dict[Vertex, Vertex] = {}
    settled_forward: set[Vertex] = set()
    settled_backward: set[Vertex] = set()
    heap_forward: list[tuple[float, Vertex]] = [(0.0, source)]
    heap_backward: list[tuple[float, Vertex]] = [(0.0, target)]

    best_cost = INFINITY
    meeting_vertex: Vertex | None = None

    def relax(
        heap: list[tuple[float, Vertex]],
        distances: dict[Vertex, float],
        parents: dict[Vertex, Vertex],
        settled: set[Vertex],
        other_distances: dict[Vertex, float],
    ) -> None:
        nonlocal best_cost, meeting_vertex
        cost, vertex = heapq.heappop(heap)
        if vertex in settled:
            return
        settled.add(vertex)
        for neighbour, edge_cost in network.neighbours(vertex).items():
            candidate = cost + edge_cost
            if candidate < distances.get(neighbour, INFINITY):
                distances[neighbour] = candidate
                parents[neighbour] = vertex
                heapq.heappush(heap, (candidate, neighbour))
            other = other_distances.get(neighbour)
            if other is not None and candidate + other < best_cost:
                best_cost = candidate + other
                meeting_vertex = neighbour

    while heap_forward and heap_backward:
        top_forward = heap_forward[0][0]
        top_backward = heap_backward[0][0]
        if top_forward + top_backward >= best_cost:
            break
        if top_forward <= top_backward:
            relax(heap_forward, dist_forward, parent_forward, settled_forward, dist_backward)
        else:
            relax(heap_backward, dist_backward, parent_backward, settled_backward, dist_forward)

    if meeting_vertex is None:
        raise DisconnectedError(f"no path between {source} and {target}")

    forward_path = _unwind(parent_forward, source, meeting_vertex)
    backward_path = _unwind(parent_backward, target, meeting_vertex)
    backward_path.reverse()
    return best_cost, forward_path + backward_path[1:]


def _unwind(parents: dict[Vertex, Vertex], root: Vertex, leaf: Vertex) -> list[Vertex]:
    """Rebuild the path ``root -> ... -> leaf`` from a parent map."""
    path = [leaf]
    vertex = leaf
    while vertex != root:
        vertex = parents[vertex]
        path.append(vertex)
    path.reverse()
    return path


def single_source_distances(network: RoadNetwork, source: Vertex) -> dict[Vertex, float]:
    """Shortest travel time from ``source`` to every reachable vertex."""
    return dijkstra(network, source)


def shortest_path(network: RoadNetwork, source: Vertex, target: Vertex) -> list[Vertex]:
    """Vertex sequence of the shortest path from ``source`` to ``target``.

    Raises:
        DisconnectedError: if no path exists.
    """
    _, path = bidirectional_dijkstra(network, source, target)
    return path


def shortest_distance(network: RoadNetwork, source: Vertex, target: Vertex) -> float:
    """Shortest travel time between two vertices.

    Raises:
        DisconnectedError: if no path exists.
    """
    cost, _ = bidirectional_dijkstra(network, source, target)
    return cost


def path_cost(network: RoadNetwork, path: list[Vertex]) -> float:
    """Total travel time of a concrete vertex path."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += network.edge_cost(u, v)
    return total


def eccentricity(network: RoadNetwork, source: Vertex) -> float:
    """Largest finite shortest-path cost from ``source`` (graph eccentricity)."""
    distances = single_source_distances(network, source)
    return max(distances.values()) if distances else 0.0


def table_seconds(ticks: np.ndarray) -> np.ndarray:
    """The APSP table (or a slice of it) in seconds, ``inf`` where unreachable."""
    return np.where(ticks == UNREACHABLE_TICKS, INFINITY, ticks * TIME_QUANTUM)


class ReferenceBackend:
    """A distance backend with nothing precomputed: distances from memoised
    :func:`dijkstra_reference` rows, paths from the bidirectional Dijkstra.

    An oracle takes it through the
    :class:`~repro.network.backends.DistanceBackend` protocol, as the third
    witness beside ``apsp`` and ``ch``. The rows are never invalidated, so
    it serves a network that does not change.
    """

    name = "reference"
    build_seconds = 0.0

    def __init__(self, network: RoadNetwork) -> None:
        self._network = network
        self._rows: dict[Vertex, dict[Vertex, float]] = {}

    def _row(self, source: Vertex) -> dict[Vertex, float]:
        if source not in self._rows:
            self._rows[source] = dijkstra_reference(self._network, source)
        return self._rows[source]

    def distance(self, u: Vertex, v: Vertex) -> float:
        return self._row(u).get(v, INFINITY)

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        row = self._row(source)
        return np.array([row.get(target, INFINITY) for target in targets], dtype=np.float64)

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        return np.array([self.distance(u, v) for u, v in zip(us, vs)], dtype=np.float64)

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[Sequence[float], Sequence[float]]:
        # the network is undirected: the row from an endpoint answers "to" it
        found = self.distances_many(origin, vertices), self.distances_many(destination, vertices)
        if isinstance(vertices, np.ndarray):
            return found
        return found[0].tolist(), found[1].tolist()

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        return bidirectional_dijkstra(self._network, u, v)

    def stats(self) -> dict[str, float]:
        return {"rows": float(len(self._rows))}
