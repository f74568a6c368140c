"""The contraction hierarchy's flat-array searches against the dict-and-set
searches they replaced.

:func:`~repro.network.ch.build_contraction_hierarchy` runs its witness searches
on one ``dist`` list and one target-mark ``bytearray`` per build, and
:meth:`ContractionHierarchy._upward_search` on a scratch list the hierarchy
owns. Their contract is **bit-identity** with the per-search ``dist`` dict,
``done`` set, ``targets`` set and ``found`` dict they replaced, which live on
here verbatim as the test-side references :func:`reference_build`,
:func:`reference_witness_search` and :class:`DictSearchHierarchy`: the same
``rank``, upward CSR arrays and shortcut count (``==``, never ``approx``) over
the generator cities, the ingested riverton map, both witness budgets, random
geometric graphs with random closures and the degenerate networks; the same
search spaces, in settle order, with the same counters.
"""

from __future__ import annotations

import functools
import heapq
import math
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.ch import (
    WITNESS_SETTLE_BUDGET,
    ContractionHierarchy,
    build_contraction_hierarchy,
)
from repro.exceptions import RoadNetworkError
from repro.network.generators import random_geometric_city
from repro.network.graph import RoadNetwork
from repro.utils.geometry import Point
from repro.utils.rng import derive_seed
from repro.workloads.scenarios import CITY_BUILDERS

INFINITY = math.inf


def reference_build(
    network: RoadNetwork, witness_settle_budget: int = WITNESS_SETTLE_BUDGET
) -> ContractionHierarchy:
    """The dict-and-set contraction ``build_contraction_hierarchy`` replaced.

    Deterministic: the lazy priority queue breaks ties by position, witness
    searches are plain Dijkstras with a settle budget (exhausting the budget
    conservatively adds the shortcut), and each contracted vertex freezes its
    remaining adjacency — by construction all higher-ranked — as its upward
    edges.
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

    def simulate(v: int) -> tuple[list[tuple[int, int, float]], int]:
        """Shortcuts required to contract ``v`` and its resulting priority."""
        neighbours = sorted(adjacency[v].items())
        shortcuts: list[tuple[int, int, float]] = []
        for i, (a, cost_a) in enumerate(neighbours):
            rest = neighbours[i + 1:]
            if not rest:
                continue
            bounds = {b: cost_a + cost_b for b, cost_b in rest}
            witness = reference_witness_search(
                adjacency, a, v, set(bounds), max(bounds.values()), witness_settle_budget
            )
            for b, bound in bounds.items():
                if witness.get(b, INFINITY) > bound:
                    shortcuts.append((a, b, bound))
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


def reference_witness_search(
    adjacency: list[dict[int, float]],
    source: int,
    skip: int,
    targets: set[int],
    max_cost: float,
    settle_budget: int,
) -> dict[int, float]:
    """Bounded Dijkstra over the overlay graph avoiding ``skip``.

    Returns the distances of the settled targets; a target missing from the
    result was not certified within the budget (so the caller adds the
    shortcut — conservative, never wrong).
    """
    dist: dict[int, float] = {source: 0.0}
    done: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    found: dict[int, float] = {}
    remaining = len(targets)
    budget = settle_budget
    pop = heapq.heappop
    push = heapq.heappush
    while heap and budget > 0 and remaining > 0:
        cost, node = pop(heap)
        if node in done:
            continue
        if cost > max_cost:
            break
        done.add(node)
        budget -= 1
        if node in targets:
            found[node] = cost
            remaining -= 1
        for neighbour, edge_cost in adjacency[node].items():
            if neighbour == skip or neighbour in done:
                continue
            candidate = cost + edge_cost
            if candidate < dist.get(neighbour, INFINITY) and candidate <= max_cost:
                dist[neighbour] = candidate
                push(heap, (candidate, neighbour))
    return found


class DictSearchHierarchy(ContractionHierarchy):
    """A hierarchy whose upward search is the dict-and-set one it replaced."""

    def _upward_search(self, source: int) -> tuple[list[int], list[float]]:
        """Full upward Dijkstra from ``source``; returns settled (nodes, dists)."""
        indptr = self.up_indptr
        indices = self.up_indices
        costs = self.up_costs
        dist: dict[int, float] = {source: 0.0}
        done: set[int] = set()
        heap: list[tuple[float, int]] = [(0.0, source)]
        nodes: list[int] = []
        dists: list[float] = []
        push = heapq.heappush
        pop = heapq.heappop
        while heap:
            cost, node = pop(heap)
            if node in done:
                continue
            done.add(node)
            nodes.append(node)
            dists.append(cost)
            for slot in range(indptr[node], indptr[node + 1]):
                neighbour = indices[slot]
                candidate = cost + costs[slot]
                if candidate < dist.get(neighbour, INFINITY):
                    dist[neighbour] = candidate
                    push(heap, (candidate, neighbour))
        self.searches += 1
        self.settled += len(nodes)
        return nodes, dists


def _arrays(hierarchy: ContractionHierarchy) -> tuple:
    return (
        hierarchy.rank,
        hierarchy.up_indptr,
        hierarchy.up_indices,
        hierarchy.up_costs,
        hierarchy.num_shortcuts,
    )


def _assert_same_build(network: RoadNetwork, budget: int = WITNESS_SETTLE_BUDGET):
    hierarchy = build_contraction_hierarchy(network, witness_settle_budget=budget)
    assert _arrays(hierarchy) == _arrays(reference_build(network, witness_settle_budget=budget))
    return hierarchy


def _city(city: str) -> RoadNetwork:
    """The map every scenario of ``city`` at seed 2018 runs on."""
    return CITY_BUILDERS[city](derive_seed(2018, "city", city))


@functools.cache
def _city_hierarchy(city: str) -> ContractionHierarchy:
    return _assert_same_build(_city(city))


def _network(points, edges) -> RoadNetwork:
    network = RoadNetwork(name="hand-made")
    for vertex, (x, y) in enumerate(points):
        network.add_vertex(vertex, Point(float(x), float(y)))
    for edge in edges:
        network.add_edge(*edge)
    return network


class TestContraction:
    @pytest.mark.parametrize(
        "city", ["small-grid", "chengdu-like", "random", "riverton", "nyc-like", "metro-grid"]
    )
    def test_city_hierarchies_equal_the_reference(self, city):
        _city_hierarchy(city)

    def test_metro_sparse_shortcut_and_edge_counts(self):
        hierarchy = _city_hierarchy("metro-grid")
        assert (hierarchy.num_shortcuts, len(hierarchy.up_indices)) == (6222, 13110)

    @pytest.mark.parametrize("budget", [1, 60])
    @pytest.mark.parametrize("city", ["small-grid", "chengdu-like"])
    def test_witness_budgets(self, city, budget):
        _assert_same_build(_city(city), budget)

    def test_isolated_vertex(self):
        hierarchy = _assert_same_build(_network([(0, 0), (100, 0), (200, 0), (50, 900)],
                                                [(0, 1), (1, 2)]))
        assert hierarchy.up_indptr[4] == hierarchy.up_indptr[3]

    def test_a_zero_length_street_is_refused(self):
        # two vertices at one spot: a street between them would cost 0.0 seconds
        with pytest.raises(RoadNetworkError, match=r"edge \(0, 1\) length must be positive"):
            _network([(0, 0), (0, 0), (300, 0), (300, 400), (0, 400)], [(0, 1)])
        network = _network([(0, 0), (0, 0), (300, 0), (300, 400), (0, 400)],
                           [(1, 2), (2, 3), (0, 3), (3, 4), (4, 0)])
        _assert_same_build(network)

    def test_parallel_edges_with_different_costs(self):
        network = _network([(0, 0), (100, 0), (200, 0), (100, 100)],
                           [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
        network.add_edge(0, 1, length=100.0, speed=5.0)  # slower: ignored
        network.add_edge(1, 2, length=100.0, speed=40.0)  # faster: replaces
        assert network.edge_cost(0, 1) == 10.0 and network.edge_cost(1, 2) == 2.5
        _assert_same_build(network)

    @pytest.mark.parametrize("size", [0, 1])
    def test_one_and_zero_vertex_networks(self, size):
        hierarchy = _assert_same_build(_network([(0, 0)][:size], []))
        assert hierarchy.rank == list(range(size))


@given(
    size=st.integers(min_value=2, max_value=60),
    radius=st.floats(min_value=1200.0, max_value=4000.0),
    seed=st.integers(min_value=0, max_value=10**6),
    closures=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
    budget=st.sampled_from([1, 3, WITNESS_SETTLE_BUDGET]),
)
@settings(max_examples=25, deadline=None)
def test_random_geometric_graphs_with_closures(size, radius, seed, closures, budget):
    network = random_geometric_city(
        num_vertices=size, area_metres=8000.0, connection_radius_metres=radius, seed=seed
    )
    for pick in closures:
        streets = sorted(network.edges(), key=lambda edge: (edge.u, edge.v))
        if not streets:
            break
        edge = streets[pick % len(streets)]
        network.remove_edge(edge.u, edge.v)
    _assert_same_build(network, budget)


def _dict_twin(hierarchy: ContractionHierarchy) -> DictSearchHierarchy:
    return DictSearchHierarchy(
        num_vertices=hierarchy.num_vertices,
        rank=hierarchy.rank,
        up_indptr=hierarchy.up_indptr,
        up_indices=hierarchy.up_indices,
        up_costs=hierarchy.up_costs,
        num_shortcuts=hierarchy.num_shortcuts,
        build_seconds=hierarchy.build_seconds,
    )


class TestUpwardSearch:
    @pytest.mark.parametrize("city", ["chengdu-like", "metro-grid"])
    def test_every_search_space_equals_the_reference_in_settle_order(self, city):
        hierarchy = _city_hierarchy(city)
        twin = _dict_twin(hierarchy)
        for source in range(hierarchy.num_vertices):
            before = (hierarchy.searches, hierarchy.settled)
            twin_before = (twin.searches, twin.settled)
            assert hierarchy._upward_search(source) == twin._upward_search(source)
            assert (hierarchy.searches - before[0], hierarchy.settled - before[1]) == (
                twin.searches - twin_before[0], twin.settled - twin_before[1]
            )
        assert hierarchy._dist == [INFINITY] * hierarchy.num_vertices

    def test_a_pickled_hierarchy_answers_the_same(self):
        hierarchy = _city_hierarchy("chengdu-like")
        hierarchy._dist[:3] = [1.0, 2.0, 3.0]  # as if a search were in flight
        try:
            state = hierarchy.__getstate__()
            assert "_dist" not in state and "_bucket" not in state
            copy = pickle.loads(pickle.dumps(hierarchy))
        finally:
            hierarchy._dist[:3] = [INFINITY] * 3
        assert copy._dist == [INFINITY] * copy.num_vertices
        assert copy._dist is not hierarchy._dist
        n = hierarchy.num_vertices
        for source in range(0, n, 7):
            assert copy._upward_search(source) == hierarchy._upward_search(source)
            targets = list(range(n))
            assert (copy.distances_many_positions(source, targets).tolist()
                    == hierarchy.distances_many_positions(source, targets).tolist())
