"""Exact shortest-path algorithms on :class:`~repro.network.graph.RoadNetwork`.

The paper assumes an O(1) shortest-distance oracle (Section 4.2; see
:mod:`repro.network.oracle`). This module provides the exact reference
algorithms the oracle builds upon:

* :func:`bidirectional_dijkstra` — point-to-point distance and path (the
  path every distance backend answers; the APSP backend rebuilds it from
  its table, :mod:`repro.network.apsp_path`),
* :func:`all_pairs_distances` — every source at once, into the dense APSP
  table of int32 ticks (one vectorised label-correcting sweep, bit-identical
  to a Dijkstra per row), once :func:`check_tick_range` passes.

All algorithms run on the network's CSR adjacency
(:attr:`~repro.network.graph.RoadNetwork.csr`): flat ``indptr``/``indices``/
``costs`` arrays replace the dict-of-dict walk of the seed implementation,
which keeps the inner relaxation loop on dense integer positions. The
seed's dict-based searches live on in the tests, as the baseline the
equivalence property tests compare against.

All costs are travel times in seconds; the APSP table alone counts ticks.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from repro.core.timegrid import TIME_QUANTUM
from repro.exceptions import ConfigurationError, DisconnectedError
from repro.network.graph import UNREACHABLE_TICKS, RoadNetwork, Vertex

INFINITY = math.inf


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


def check_tick_range(network: RoadNetwork) -> None:
    """Raise unless every finite shortest distance of ``network`` stays below
    :data:`~repro.network.graph.UNREACHABLE_TICKS` ticks, the range of the
    int32 APSP table.

    The bound is twice the farthest distance from one root per connected
    component (``d(u, v) <= d(u, r) + d(r, v)``), one Dijkstra per component.

    Raises:
        ConfigurationError: naming the network, when the bound reaches the
            sentinel; the ``"ch"`` backend has no such limit.
    """
    csr = network.csr
    covered = np.zeros(csr.num_vertices, dtype=bool)
    farthest = 0.0
    for root in range(csr.num_vertices):
        if covered[root]:
            continue  # settled from an earlier root of its component
        distances, settled = _csr_dijkstra(csr, root, None, INFINITY)
        reached = np.frombuffer(settled, dtype=bool)
        covered |= reached
        farthest = max(farthest, np.asarray(distances)[reached].max())
    bound = 2 * farthest
    if bound >= UNREACHABLE_TICKS * TIME_QUANTUM:
        raise ConfigurationError(
            f"network {network.name!r} may have shortest distances of up to {bound:.0f} s, "
            f"beyond the {UNREACHABLE_TICKS * TIME_QUANTUM:.0f} s the 'apsp' backend's "
            "int32 table holds; use the 'ch' backend"
        )


def all_pairs_distances(network: RoadNetwork, table: np.ndarray) -> None:
    """Fill ``table`` with the shortest travel time between every pair of
    vertices, in ticks of :data:`~repro.core.timegrid.TIME_QUANTUM`.

    ``table[s, t]`` becomes the distance from position ``s`` to position
    ``t`` (:data:`~repro.network.graph.UNREACHABLE_TICKS` when unreachable);
    times ``TIME_QUANTUM`` it is bit for bit what a Dijkstra from ``s``
    settles ``t`` at. The ``N x N`` int32 ``table`` is written in place: no
    second table-sized array is allocated, and no int64 or float temporary.
    The caller runs :func:`check_tick_range` first (the APSP backend does),
    which rejects a network whose distances the table cannot hold.

    While the sweep runs, row ``v`` holds the distance from every source *to*
    ``v`` (the network is undirected, so ``v``'s CSR row lists its
    in-edges). A dirty ``v`` takes ``min_u table[u] + w(u, v)`` cellwise for
    all sources at once, and if any cell improved its neighbours turn dirty.
    Vertices are visited in four coordinate orders (``x + y`` and ``x - y``,
    forward and reversed) until none is dirty: about a dozen passes on
    nyc-like and riverton, where row-id order takes about seventy. The order
    sets the pass count only.

    **Exactness.** Every cell is always the sentinel or the integer sum of the
    edge ticks (``csr.ticks``) of some walk from its source, and integer sums
    are exact; so at the fixpoint each cell is the least such sum, the
    distance Dijkstra settles. The checked range keeps every finite distance
    below the sentinel, and a cell plus one edge at most ``2**31 - 1``. An
    edge longer than ``UNREACHABLE_TICKS - 1`` ticks, clamped to that, lies
    on no shortest path (such a path would reach the sentinel), and a walk
    over it still costs at least every finite distance, so the clamp changes
    no cell. A distance is symmetric, so the finished table is source-major
    as it stands.
    """
    csr = network.csr
    n = csr.num_vertices
    table.fill(UNREACHABLE_TICKS)
    np.fill_diagonal(table, 0)
    indptr = csr.indptr_list
    indices, indices_list = csr.indices, csr.indices_list
    weights = csr.ticks[:, None]
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
            # initial: an isolated vertex has no neighbour rows to reduce
            candidate = (table[indices[start:stop]] + weights[start:stop]).min(
                axis=0, initial=UNREACHABLE_TICKS
            )
            row = table[v]
            if (candidate < row).any():
                np.minimum(row, candidate, out=row)
                for u in indices_list[start:stop]:
                    if not dirty[u]:
                        dirty[u] = 1
                        remaining += 1


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
