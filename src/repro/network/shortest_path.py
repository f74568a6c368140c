"""Exact shortest-path algorithms on :class:`~repro.network.graph.RoadNetwork`.

The paper assumes an O(1) shortest-distance oracle (Section 4.2; see
:mod:`repro.network.oracle`). This module provides the exact reference
algorithms the oracle builds upon:

* :func:`dijkstra` — single-source shortest distances (optionally bounded),
* :func:`bidirectional_dijkstra` — point-to-point distance and path,
* :func:`shortest_path` — point-to-point vertex sequence,
* :func:`single_source_distances` — convenience wrapper returning a dict,
* :func:`all_pairs_distances` — every source at once, into the dense APSP
  table (one vectorised label-correcting sweep, bit-identical to a
  Dijkstra per row).

All algorithms run on the network's CSR adjacency
(:attr:`~repro.network.graph.RoadNetwork.csr`): flat ``indptr``/``indices``/
``costs`` arrays replace the dict-of-dict walk of the seed implementation,
which keeps the inner relaxation loop on dense integer positions.
:func:`dijkstra_reference` preserves the seed's dict-based search as the
oracle-free baseline the equivalence property tests compare against.

All costs are travel times in seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import DisconnectedError
from repro.network.graph import RoadNetwork, Vertex

INFINITY = math.inf


def dijkstra(
    network: RoadNetwork,
    source: Vertex,
    targets: Iterable[Vertex] | None = None,
    max_cost: float = INFINITY,
) -> dict[Vertex, float]:
    """Single-source Dijkstra on the CSR adjacency.

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


def _csr_dijkstra(
    csr,
    src: int,
    remaining: set[int] | None,
    max_cost: float,
) -> tuple[list[float], bytearray]:
    """Core CSR Dijkstra over positions; returns (distances, settled flags)."""
    indptr = csr.indptr_list
    indices = csr.indices_list
    costs = csr.costs_list
    n = len(csr.vertex_ids_list)
    distances = [INFINITY] * n
    distances[src] = 0.0
    settled = bytearray(n)
    heap: list[tuple[float, int]] = [(0.0, src)]
    push = heapq.heappush
    pop = heapq.heappop
    while heap:
        cost, vertex = pop(heap)
        if settled[vertex]:
            continue
        if cost > max_cost:
            break
        settled[vertex] = 1
        if remaining is not None:
            remaining.discard(vertex)
            if not remaining:
                break
        for slot in range(indptr[vertex], indptr[vertex + 1]):
            neighbour = indices[slot]
            candidate = cost + costs[slot]
            if candidate < distances[neighbour] and candidate <= max_cost:
                distances[neighbour] = candidate
                push(heap, (candidate, neighbour))
    return distances, settled


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

    Kept verbatim so property tests and the hot-path benchmark's "pre-PR"
    configuration can compare the CSR implementation against the original.
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


#: rows and columns per block of the in-place transpose that ends
#: :func:`all_pairs_distances`: a 64 x 64 float64 block is 32 KB, so the
#: build's scratch memory stays negligible beside the table
_TRANSPOSE_BLOCK = 64


def all_pairs_distances(network: RoadNetwork, table: np.ndarray) -> None:
    """Fill ``table`` with the shortest travel time between every pair of vertices.

    ``table[s, t]`` becomes the distance from position ``s`` to position
    ``t`` (``inf`` when unreachable), bit for bit what a Dijkstra from ``s``
    settles ``t`` at. The ``N x N`` float64 ``table`` is written in place;
    no second table-sized array is allocated.

    While the sweep runs, row ``v`` holds the distance from every source *to*
    ``v`` (the network is undirected, so ``v``'s CSR row lists its
    in-edges). A dirty ``v`` takes ``min_u table[u] + w(u, v)`` cellwise for
    all sources at once, and if any cell improved its neighbours turn dirty.
    Vertices are visited in four coordinate orders (``x + y`` and ``x - y``,
    forward and reversed) until none is dirty: about a dozen passes on
    nyc-like and riverton, where row-id order takes about seventy. The order
    sets the pass count only. A blockwise in-place transpose then
    makes the table source-major.

    **Exactness.** Every cell is always the left-to-right float sum
    ``((0 + w1) + w2) + ...`` of some walk from its source, and
    ``fl(x + w)`` is monotone in ``x`` with ``w >= 0``; so at the fixpoint
    each cell is at most every walk's sum (by induction on the walk's
    length), which is the value Dijkstra settles. Starting from ``inf``, the
    sweep needs none of :mod:`repro.network.apsp_repair`'s preconditions.
    """
    csr = network.csr
    n = csr.num_vertices
    table.fill(INFINITY)
    np.fill_diagonal(table, 0.0)
    indptr = csr.indptr_list
    indices, indices_list = csr.indices, csr.indices_list
    weights = csr.costs[:, None]
    orders: list[list[int]] = []
    for key in (csr.xs + csr.ys, csr.xs - csr.ys):
        forward = np.argsort(key, kind="stable").tolist()
        orders += [forward, forward[::-1]]
    dirty = bytearray(b"\x01") * n
    remaining = n
    for order in itertools.cycle(orders):
        if not remaining:
            break
        for v in order:
            if not dirty[v]:
                continue
            dirty[v] = 0
            remaining -= 1
            start, stop = indptr[v], indptr[v + 1]
            # initial=inf: an isolated vertex has no neighbour rows to reduce
            candidate = (table[indices[start:stop]] + weights[start:stop]).min(
                axis=0, initial=INFINITY
            )
            row = table[v]
            if (candidate < row).any():
                np.minimum(row, candidate, out=row)
                for u in indices_list[start:stop]:
                    if not dirty[u]:
                        dirty[u] = 1
                        remaining += 1
    block = _TRANSPOSE_BLOCK
    for i in range(0, n, block):
        for j in range(i, n, block):
            upper = table[i:i + block, j:j + block]
            lower = table[j:j + block, i:i + block]
            held = upper.copy()
            upper[...] = lower.T
            lower[...] = held.T


def truncated_multi_target_distances(
    network: RoadNetwork, source: Vertex, targets: Sequence[Vertex]
) -> tuple[np.ndarray, int]:
    """Distances from ``source`` to every target from **one** truncated search.

    A single source Dijkstra that stops as soon as every target is settled
    (or the whole component is exhausted) — the batched fallback of the
    Dijkstra distance backend, replacing one point-to-point search per pair.
    Unreachable targets hold ``inf``.

    Returns:
        ``(distances, settled)`` where ``distances`` is aligned with
        ``targets`` and ``settled`` counts the vertices the search settled
        (the work metric surfaced by the per-backend oracle counters).
    """
    csr = network.csr
    positions = csr.positions_of(targets)
    remaining = set(positions.tolist())
    distances, settled = _csr_dijkstra(csr, csr.position_of(source), remaining, INFINITY)
    out = np.fromiter(
        (distances[position] if settled[position] else INFINITY for position in positions),
        dtype=np.float64,
        count=positions.size,
    )
    return out, sum(settled)


def bidirectional_dijkstra(
    network: RoadNetwork, source: Vertex, target: Vertex
) -> tuple[float, list[Vertex]]:
    """Point-to-point shortest path via bidirectional Dijkstra on the CSR arrays.

    Returns:
        ``(cost, path)`` where ``path`` is the vertex sequence from ``source``
        to ``target`` inclusive.

    Raises:
        DisconnectedError: if no path exists.
    """
    if source == target:
        return 0.0, [source]
    csr = network.csr
    src = csr.position_of(source)
    dst = csr.position_of(target)
    indptr = csr.indptr_list
    indices = csr.indices_list
    costs = csr.costs_list

    # frontier state lives in dicts keyed by position: both searches settle
    # only a small region around their roots, so O(|V|) per-call allocation
    # would dominate short queries
    dist_forward: dict[int, float] = {src: 0.0}
    dist_backward: dict[int, float] = {dst: 0.0}
    parent_forward: dict[int, int] = {}
    parent_backward: dict[int, int] = {}
    settled_forward: set[int] = set()
    settled_backward: set[int] = set()
    heap_forward: list[tuple[float, int]] = [(0.0, src)]
    heap_backward: list[tuple[float, int]] = [(0.0, dst)]

    best_cost = INFINITY
    meeting = -1
    pop = heapq.heappop
    push = heapq.heappush

    while heap_forward and heap_backward:
        top_forward = heap_forward[0][0]
        top_backward = heap_backward[0][0]
        if top_forward + top_backward >= best_cost:
            break
        if top_forward <= top_backward:
            heap, distances, parents, settled, other = (
                heap_forward, dist_forward, parent_forward, settled_forward, dist_backward,
            )
        else:
            heap, distances, parents, settled, other = (
                heap_backward, dist_backward, parent_backward, settled_backward, dist_forward,
            )
        cost, vertex = pop(heap)
        if vertex in settled:
            continue
        settled.add(vertex)
        for slot in range(indptr[vertex], indptr[vertex + 1]):
            neighbour = indices[slot]
            candidate = cost + costs[slot]
            if candidate < distances.get(neighbour, INFINITY):
                distances[neighbour] = candidate
                parents[neighbour] = vertex
                push(heap, (candidate, neighbour))
            other_cost = other.get(neighbour)
            if other_cost is not None and candidate + other_cost < best_cost:
                best_cost = candidate + other_cost
                meeting = neighbour

    if meeting < 0:
        raise DisconnectedError(f"no path between {source} and {target}")

    vertex_ids = csr.vertex_ids_list
    forward_path = _unwind_positions(parent_forward, src, meeting)
    backward_path = _unwind_positions(parent_backward, dst, meeting)
    backward_path.reverse()
    positions = forward_path + backward_path[1:]
    return best_cost, [vertex_ids[position] for position in positions]


def _unwind_positions(parents: dict[int, int], root: int, leaf: int) -> list[int]:
    """Rebuild the position path ``root -> ... -> leaf`` from a parent map."""
    path = [leaf]
    vertex = leaf
    while vertex != root:
        vertex = parents[vertex]
        path.append(vertex)
    path.reverse()
    return path


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
