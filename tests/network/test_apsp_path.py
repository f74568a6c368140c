"""The APSP table's path is the bidirectional Dijkstra's path, bit for bit.

:meth:`APSPBackend.path <repro.network.backends.APSPBackend.path>` rebuilds
the path from two table rows (:func:`~repro.network.apsp_path.table_path`)
instead of searching. On equal-cost ties the search's pick decides where
workers stand, so the contract is ``==`` on the cost and on the vertex
sequence against :func:`~repro.network.shortest_path.bidirectional_dijkstra`:
on every ordered pair of small-grid and chengdu-like, on random pairs of the
larger maps, on tie-heavy grids and cycles (where nearly every pair has many
shortest paths), after closures repaired in place, and on random geometric
graphs with random closures.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DisconnectedError, RoadNetworkError
from repro.network.backends import APSPBackend
from repro.network.generators import cycle_network, random_geometric_city
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.network.shortest_path import bidirectional_dijkstra
from repro.utils.geometry import Point
from repro.workloads.scenarios import CITY_BUILDERS
from tests.network.reference import dijkstra_reference


def _assert_paths_equal(network: RoadNetwork, pairs, backend: APSPBackend | None = None) -> None:
    backend = backend if backend is not None else APSPBackend(network)
    for u, v in pairs:
        assert backend.path(u, v) == bidirectional_dijkstra(network, u, v), (u, v)


def _random_pairs(network: RoadNetwork, count: int, seed: int) -> list[tuple[int, int]]:
    vertices = sorted(network.vertices())
    rng = random.Random(seed)
    return [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]


def _lattice(side: int, speeds: tuple[float, ...], seed: int) -> RoadNetwork:
    """A ``side x side`` grid of 250 m blocks, each street at a speed drawn
    from ``speeds``: one speed makes every corner-to-corner pair a tie of
    binomially many paths, two or three speeds leave ties of fewer."""
    rng = random.Random(seed)
    network = RoadNetwork(name=f"lattice-{side}-{len(speeds)}")
    for row, column in itertools.product(range(side), repeat=2):
        network.add_vertex(row * side + column, Point(column * 250.0, row * 250.0))
    for row, column in itertools.product(range(side), repeat=2):
        vertex = row * side + column
        if column + 1 < side:
            network.add_edge(vertex, vertex + 1, speed=rng.choice(speeds))
        if row + 1 < side:
            network.add_edge(vertex, vertex + side, speed=rng.choice(speeds))
    return network


@pytest.mark.parametrize("city", ["small-grid", "chengdu-like"])
def test_every_pair_of_the_small_cities(city):
    network = CITY_BUILDERS[city](2018)
    _assert_paths_equal(network, itertools.permutations(sorted(network.vertices()), 2))


@pytest.mark.parametrize("city", ["nyc-like", "riverton", "random"])
def test_random_pairs_of_the_larger_maps(city):
    network = CITY_BUILDERS[city](2018)
    _assert_paths_equal(network, _random_pairs(network, 500, seed=7))


@pytest.mark.parametrize("size", [40, 41])
def test_every_pair_of_a_cycle(size):
    # an even cycle ties every antipodal pair between its two halves
    network = cycle_network(size)
    _assert_paths_equal(network, itertools.permutations(range(size), 2))


@pytest.mark.parametrize("speeds", [(10.0,), (10.0, 12.5), (8.0, 10.0, 12.5)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tie_heavy_grids(speeds, seed):
    network = _lattice(15, speeds, seed)
    _assert_paths_equal(network, _random_pairs(network, 700, seed=seed))


def test_a_grid_with_closed_streets():
    network = _lattice(20, (10.0,), seed=0)
    rng = random.Random(25)
    streets = sorted((edge.u, edge.v) for edge in network.edges())
    for u, v in rng.sample(streets, 25):
        network.remove_edge(u, v)
    _assert_paths_equal(network, _random_pairs(network, 700, seed=25))


def test_same_vertex_and_disconnected_pair():
    network = RoadNetwork(name="two-pieces")
    for vertex, x in enumerate([0.0, 100.0, 200.0, 5000.0, 5100.0]):
        network.add_vertex(vertex, Point(x, 0.0))
    for u, v in [(0, 1), (1, 2), (3, 4)]:
        network.add_edge(u, v)
    backend = APSPBackend(network)
    assert backend.path(1, 1) == bidirectional_dijkstra(network, 1, 1) == (0.0, [1])
    with pytest.raises(DisconnectedError) as table:
        backend.path(0, 4)
    with pytest.raises(DisconnectedError) as search:
        bidirectional_dijkstra(network, 0, 4)
    assert str(table.value) == str(search.value)


def test_a_zero_length_street_is_refused():
    # two vertices at one spot: a street between them would cost 0 ticks, where
    # the search no longer pops each side in (distance, position) order; the
    # network refuses it, so every table path stays inside the exact rule
    network = RoadNetwork(name="zero-tick")
    for vertex, (x, y) in enumerate([(0, 0), (0, 0), (300, 0), (300, 400), (0, 400)]):
        network.add_vertex(vertex, Point(float(x), float(y)))
    with pytest.raises(RoadNetworkError, match=r"edge \(0, 1\) length must be positive"):
        network.add_edge(0, 1)
    for u, v in [(1, 2), (2, 3), (0, 4), (4, 3), (1, 4)]:
        network.add_edge(u, v)
    assert not network.has_edge(0, 1)
    assert network.csr.ticks.min() >= 1
    _assert_paths_equal(network, itertools.permutations(range(5), 2))


def test_paths_after_a_closure_repaired_in_place():
    network = CITY_BUILDERS["nyc-like"](2018)
    oracle = DistanceOracle(network, backend="apsp")
    pairs = _random_pairs(network, 300, seed=11)
    # close the first streets of three pairs' paths, then reopen them
    closed = []
    for u, v in pairs[:3]:
        path = oracle.path(u, v)
        if len(path) > 1 and network.has_edge(path[0], path[1]):
            closed.append(network.remove_edge(path[0], path[1]))
    assert closed
    oracle.refresh_topology()
    assert oracle.backend.repairs == 1
    _assert_paths_equal(network, pairs, oracle.backend)
    for edge in closed:
        network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed)
    oracle.refresh_topology()
    _assert_paths_equal(network, pairs, oracle.backend)


def test_the_oracle_answers_and_counts_alike_on_every_backend():
    network = CITY_BUILDERS["small-grid"](2018)
    pairs = _random_pairs(network, 200, seed=3)
    pairs += pairs[:50]  # path-cache hits
    # reversals: each is its own search
    pairs += [(v, u) for u, v in pairs[:50]]
    apsp, ch = (DistanceOracle(network, backend=name) for name in ("apsp", "ch"))
    searched = [bidirectional_dijkstra(network, u, v)[1] for u, v in pairs]
    assert [apsp.path(u, v) for u, v in pairs] == searched
    assert [ch.path(u, v) for u, v in pairs] == searched
    assert apsp.counters.path_queries == ch.counters.path_queries == len(pairs)
    # a miss is one run on either backend; the repeats hit, a reversal is its
    # own search
    assert apsp.counters.dijkstra_runs == ch.counters.dijkstra_runs == len(set(
        (u, v) for u, v in pairs if u != v
    ))
    vertices = sorted(network.vertices())
    for source in sorted({u for u, _ in pairs[:10]}):
        row = dijkstra_reference(network, source)
        expected = [row[v] for v in vertices]
        assert apsp.distances_many(source, vertices).tolist() == expected
        assert ch.distances_many(source, vertices).tolist() == expected


@given(
    size=st.integers(min_value=2, max_value=40),
    radius=st.floats(min_value=1200.0, max_value=4000.0),
    seed=st.integers(min_value=0, max_value=10**6),
    closures=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_random_geometric_graphs_with_closures(size, radius, seed, closures):
    network = random_geometric_city(
        num_vertices=size, area_metres=8000.0, connection_radius_metres=radius, seed=seed
    )
    backend = APSPBackend(network)
    for pick in closures:
        streets = sorted(network.edges(), key=lambda edge: (edge.u, edge.v))
        if not streets:
            break
        edge = streets[pick % len(streets)]
        network.remove_edge(edge.u, edge.v)
    backend.refresh(network)
    for u, v in itertools.permutations(sorted(network.vertices()), 2):
        try:
            expected = bidirectional_dijkstra(network, u, v)
        except DisconnectedError:
            with pytest.raises(DisconnectedError):
                backend.path(u, v)
            continue
        assert backend.path(u, v) == expected, (u, v)
