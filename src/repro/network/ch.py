"""Contraction hierarchy over the CSR road network.

A contraction hierarchy (Geisberger et al., WEA 2008) preprocesses the graph
by repeatedly *contracting* the least important remaining vertex: the vertex
is removed and, for every pair of its remaining neighbours whose shortest
path runs through it, a **shortcut** edge preserving that distance is added.
Importance is the classic edge-difference heuristic (shortcuts added minus
edges removed, plus a deleted-neighbour term that spreads contractions
evenly), maintained lazily in a heap.

Queries then run on the **upward graph** only — the edges (original +
shortcuts) leading from each vertex to higher-ranked vertices, frozen into
flat CSR arrays at build time:

* **point-to-point** — a bidirectional *upward* search from both endpoints;
  the answer is the minimum over meeting vertices of the two upward
  distances (exact: some vertex of a shortest path is reachable upward from
  both sides by the CH construction invariant);
* **many-to-many** — the bucket technique: the source's upward search space
  is scattered into a per-vertex bucket row, and every target's search space
  is gathered from it, answering a whole
  ``distances_many``/``endpoint_distances`` batch with a single search per
  endpoint. Search spaces are memoised (bounded), since dispatch batches
  re-query the same request origins/destinations continuously.

Both query shapes share one bucket row the hierarchy owns: all ``inf``
between queries, it takes one search space, answers the gathers, and has
exactly the entries it took reset before the query returns — no row is
allocated per query.

Upward search spaces on road-like networks are tiny (tens to a few hundred
vertices), so a query settles orders of magnitude fewer vertices than the
fallback point-to-point Dijkstra; the per-backend ``settled`` counters of
:class:`~repro.network.oracle.OracleCounters` make that visible.

Distances are exact shortest distances and bit-identical to the Dijkstra
fallback's: a shortcut's cost is the sum of its two halves, and a query adds
the two upward distances at the meeting vertex — another order than a
Dijkstra relaxation's left fold, but every edge cost is on the time grid, so
the sums are exact in any order. Both query shapes take the same minimum over
the same meeting candidates. See the "Exactness" note in
:mod:`repro.network.backends`.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import Sequence

import numpy as np

from repro.network.graph import RoadNetwork

INFINITY = math.inf

#: witness searches stop after settling this many vertices (conservative:
#: an exhausted budget adds the shortcut, never drops one).
WITNESS_SETTLE_BUDGET = 60


class ContractionHierarchy:
    """A built contraction hierarchy answering exact distance queries.

    Build with :func:`build_contraction_hierarchy`. All query entry points
    work on CSR *positions*; the :class:`~repro.network.backends.CHBackend`
    translates vertex ids at the oracle boundary.

    Attributes:
        rank: ``(N,)`` contraction rank per position (higher = more important).
        num_shortcuts: shortcut edges added during construction.
        build_seconds: wall-clock construction time.
        searches: upward searches run so far (queries + bucket scans).
        settled: vertices settled across all upward searches.
    """

    def __init__(
        self,
        num_vertices: int,
        rank: list[int],
        up_indptr: list[int],
        up_indices: list[int],
        up_costs: list[float],
        num_shortcuts: int,
        build_seconds: float,
    ) -> None:
        self.num_vertices = num_vertices
        self.rank = rank
        self.up_indptr = up_indptr
        self.up_indices = up_indices
        self.up_costs = up_costs
        self.num_shortcuts = num_shortcuts
        self.build_seconds = build_seconds
        self.searches = 0
        self.settled = 0
        # bounded memo of upward search spaces as (nodes, dists) arrays —
        # the bucket side of every many-to-many join; worker positions and
        # request origins/destinations recur across dispatch batches
        self._search_space_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._search_space_cache_capacity = 50_000
        self._allocate_scratch()

    def _allocate_scratch(self) -> None:
        self._bucket = np.full(self.num_vertices, INFINITY, dtype=np.float64)
        self._dist = [INFINITY] * self.num_vertices

    def __getstate__(self) -> dict:
        # the bucket row and the search's distance list are scratch space,
        # all-``inf`` between queries: a pickled hierarchy (shard inits) does
        # not ship them
        state = self.__dict__.copy()
        del state["_bucket"]
        del state["_dist"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._allocate_scratch()

    # ------------------------------------------------------------------ search

    def _upward_search(self, source: int) -> tuple[list[int], list[float]]:
        """Full upward Dijkstra from ``source``; returns settled (nodes, dists).

        Tentative distances live in the hierarchy's ``_dist`` scratch list,
        all ``inf`` between searches: entries are pushed only on a strict
        decrease, so a popped entry above ``dist[node]`` is a re-pop of a
        settled vertex, and every vertex reached is settled before the heap
        drains — resetting the settled ones restores the list.
        """
        indptr = self.up_indptr
        indices = self.up_indices
        costs = self.up_costs
        dist = self._dist
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        nodes: list[int] = []
        dists: list[float] = []
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            cost, node = pop(heap)
            if cost > dist[node]:
                continue
            nodes.append(node)
            dists.append(cost)
            for slot in range(indptr[node], indptr[node + 1]):
                neighbour = indices[slot]
                candidate = cost + costs[slot]
                if candidate < dist[neighbour]:
                    dist[neighbour] = candidate
                    push(heap, (candidate, neighbour))
        for node in nodes:
            dist[node] = INFINITY
        self.searches += 1
        self.settled += len(nodes)
        return nodes, dists

    def search_space(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        """Memoised full upward search space of ``position`` as flat arrays."""
        cached = self._search_space_cache.get(position)
        if cached is not None:
            return cached
        nodes, dists = self._upward_search(position)
        space = (
            np.asarray(nodes, dtype=np.int64),
            np.asarray(dists, dtype=np.float64),
        )
        cache = self._search_space_cache
        if len(cache) >= self._search_space_cache_capacity:
            # drop the oldest entry (insertion order); plain FIFO is enough
            cache.pop(next(iter(cache)))
        cache[position] = space
        return space

    def query_positions(self, source: int, target: int) -> float:
        """Exact distance between two CSR positions (``inf`` if disconnected).

        The answer is the minimum over all meeting vertices of the two full
        upward search spaces — by the CH invariant some vertex of a shortest
        path is reachable upward from both endpoints with exact distances.
        The same scatter + gather + minimum the batched queries run, so
        scalar and batched answers are bit-for-bit identical.
        """
        if source == target:
            return 0.0
        nodes, dists = self.search_space(source)
        target_nodes, target_dists = self.search_space(target)
        bucket = self._bucket
        bucket[nodes] = dists
        try:
            return float((bucket[target_nodes] + target_dists).min())
        finally:
            bucket[nodes] = INFINITY

    def distances_many_positions(
        self, source: int, targets: np.ndarray | Sequence[int]
    ) -> np.ndarray:
        """Distances from ``source`` to many positions via the bucket join
        (:meth:`sweep_positions`), as a float64 array."""
        targets = np.asarray(targets, dtype=np.int64)
        if targets.size == 0:
            return np.full(0, INFINITY, dtype=np.float64)
        return np.array(self.sweep_positions(source, targets.tolist()), dtype=np.float64)

    def sweep_positions(self, source: int, targets: list[int]) -> list[float]:
        """Distances from ``source`` to the non-empty list ``targets`` of
        positions via the bucket join, as plain floats.

        One upward sweep from ``source`` (scattered into the bucket row), then
        one small gather + minimum per *unique* target search space (served
        from the bounded memo) — the whole batch costs
        ``#unique_targets + 1`` tiny upward searches instead of
        ``len(targets)`` point-to-point Dijkstras.
        """
        nodes, dists = self.search_space(source)
        bucket = self._bucket
        bucket[nodes] = dists
        try:
            memo: dict[int, float] = {source: 0.0}
            found = []
            for t in targets:
                value = memo.get(t)
                if value is None:
                    target_nodes, target_dists = self.search_space(t)
                    value = memo[t] = float((bucket[target_nodes] + target_dists).min())
                found.append(value)
            return found
        finally:
            bucket[nodes] = INFINITY

    def stats(self) -> dict[str, float]:
        """Build/search statistics for benchmarks and reports."""
        return {
            "vertices": float(self.num_vertices),
            "shortcuts": float(self.num_shortcuts),
            "upward_edges": float(len(self.up_indices)),
            "build_seconds": self.build_seconds,
            "searches": float(self.searches),
            "settled_vertices": float(self.settled),
        }


def build_contraction_hierarchy(
    network: RoadNetwork, witness_settle_budget: int = WITNESS_SETTLE_BUDGET
) -> ContractionHierarchy:
    """Contract ``network`` into a :class:`ContractionHierarchy`.

    Deterministic: the lazy priority queue breaks ties by position, witness
    searches are plain Dijkstras with a settle budget (exhausting the budget
    conservatively adds the shortcut), and each contracted vertex freezes its
    remaining adjacency — by construction all higher-ranked — as its upward
    edges.

    A witness search from neighbour ``a`` of ``v`` runs over the overlay
    graph avoiding ``v``, bounded by the largest ``a``-``v``-``b`` cost, and
    stops once every target ``b`` is settled or the budget runs out. Its
    state lives in two flat scratch arrays shared by every search of the
    build: ``dist`` (all ``inf`` between searches, reset through the
    vertices the search reached) and the target ``marks`` (a target's mark
    is cleared when it settles, so a mark still set afterwards means "not
    certified"). Entries are pushed only on a strict decrease, so a popped
    entry above ``dist[node]`` is exactly a re-pop of a settled vertex.
    """
    started = time.perf_counter()
    csr = network.csr
    n = csr.num_vertices
    indptr = csr.indptr_list
    indices = csr.indices_list
    costs = csr.costs_list
    # mutable overlay graph: position -> {neighbour position: cost}
    adjacency: list[dict[int, float]] = [{} for _ in range(n)]
    for u in range(n):
        row = adjacency[u]
        for slot in range(indptr[u], indptr[u + 1]):
            v = indices[slot]
            cost = costs[slot]
            current = row.get(v)
            if current is None or cost < current:
                row[v] = cost
    rank = [-1] * n
    deleted_neighbours = [0] * n
    num_shortcuts = 0
    up_edges: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    dist = [INFINITY] * n
    marks = bytearray(n)
    pop = heapq.heappop
    push = heapq.heappush

    def simulate(v: int) -> tuple[list[tuple[int, int, float]], int]:
        """Shortcuts required to contract ``v`` and its resulting priority."""
        neighbours = sorted(adjacency[v].items())
        shortcuts: list[tuple[int, int, float]] = []
        for i, (a, cost_a) in enumerate(neighbours):
            rest = neighbours[i + 1:]
            if not rest:
                continue
            bounds = [cost_a + cost_b for _, cost_b in rest]
            max_cost = max(bounds)
            for b, _ in rest:
                marks[b] = 1
            remaining = len(rest)
            budget = witness_settle_budget
            dist[a] = 0.0
            reached = [a]
            frontier: list[tuple[float, int]] = [(0.0, a)]
            while frontier and budget > 0 and remaining > 0:
                cost, node = pop(frontier)
                if cost > dist[node]:
                    continue
                if cost > max_cost:
                    break
                budget -= 1
                if marks[node]:
                    marks[node] = 0
                    remaining -= 1
                for neighbour, edge_cost in adjacency[node].items():
                    if neighbour == v:
                        continue
                    candidate = cost + edge_cost
                    if candidate < dist[neighbour] and candidate <= max_cost:
                        dist[neighbour] = candidate
                        reached.append(neighbour)
                        push(frontier, (candidate, neighbour))
            for (b, _), bound in zip(rest, bounds):
                # a mark still set: ``b`` was not certified within the budget
                if marks[b] or dist[b] > bound:
                    shortcuts.append((a, b, bound))
                    marks[b] = 0
            for node in reached:
                dist[node] = INFINITY
        priority = len(shortcuts) - len(neighbours) + deleted_neighbours[v]
        return shortcuts, priority

    heap: list[tuple[int, int]] = []
    for v in range(n):
        _, priority = simulate(v)
        heap.append((priority, v))
    heapq.heapify(heap)

    next_rank = 0
    while heap:
        _, v = heapq.heappop(heap)
        if rank[v] >= 0:
            continue
        shortcuts, priority = simulate(v)
        if heap and priority > heap[0][0]:
            heapq.heappush(heap, (priority, v))
            continue
        # contract v: freeze upward edges, splice in shortcuts, detach
        rank[v] = next_rank
        next_rank += 1
        up_edges[v] = sorted(adjacency[v].items())
        for neighbour in adjacency[v]:
            del adjacency[neighbour][v]
            deleted_neighbours[neighbour] += 1
        adjacency[v] = {}
        for a, b, cost in shortcuts:
            current = adjacency[a].get(b)
            if current is None or cost < current:
                adjacency[a][b] = cost
                adjacency[b][a] = cost
                num_shortcuts += 1

    up_indptr = [0] * (n + 1)
    up_indices: list[int] = []
    up_costs: list[float] = []
    for v in range(n):
        for neighbour, cost in up_edges[v]:
            up_indices.append(neighbour)
            up_costs.append(cost)
        up_indptr[v + 1] = len(up_indices)
    return ContractionHierarchy(
        num_vertices=n,
        rank=rank,
        up_indptr=up_indptr,
        up_indices=up_indices,
        up_costs=up_costs,
        num_shortcuts=num_shortcuts,
        build_seconds=time.perf_counter() - started,
    )
