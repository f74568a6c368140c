"""The dense APSP table equals a Dijkstra per row, bit for bit.

:func:`~repro.network.shortest_path.all_pairs_distances` builds the whole
table in one label-correcting sweep over all sources. Its contract is
**bit-identity** (``np.array_equal``, never ``allclose``) with the row-by-row
build it replaced, which lives on here as the test-side reference
:func:`dijkstra_rows` — over the generator cities, the ingested riverton map,
random geometric graphs with random closures, and the degenerate networks
(disconnected, isolated vertex, a refused zero-length street, one and zero
vertices). The table counts int32 ticks of the time grid; :func:`table_seconds`
reads it as seconds, and two networks with a street of ``2**30`` ticks pin the
tick range: it fails typed without a detour (where ``"auto"`` takes the
hierarchy), and is exact beside one.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, RoadNetworkError
from repro.network.backends import APSPBackend
from repro.network.generators import random_geometric_city
from repro.network.graph import UNREACHABLE_TICKS, RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.network.shortest_path import all_pairs_distances
from repro.utils.geometry import Point
from repro.workloads.scenarios import CITY_BUILDERS
from tests.network.reference import dijkstra, table_seconds


def dijkstra_row(network: RoadNetwork, source: int) -> np.ndarray:
    """Distances from ``source`` by one CSR Dijkstra, CSR-position-aligned
    (``inf`` where unreachable)."""
    csr = network.csr
    distances = dijkstra(network, source)
    row = np.full(csr.num_vertices, np.inf)
    row[csr.positions_of(list(distances))] = list(distances.values())
    return row


def dijkstra_rows(network: RoadNetwork) -> np.ndarray:
    """The reference table: one Dijkstra per source row."""
    csr = network.csr
    table = np.full((csr.num_vertices, csr.num_vertices), np.inf)
    for row, source in enumerate(csr.vertex_ids_list):
        table[row] = dijkstra_row(network, source)
    return table


def _assert_exact(network: RoadNetwork) -> np.ndarray:
    matrix = table_seconds(APSPBackend(network).matrix)
    assert np.array_equal(matrix, dijkstra_rows(network))
    return matrix


def _network(points, edges) -> RoadNetwork:
    network = RoadNetwork(name="hand-made")
    for vertex, (x, y) in enumerate(points):
        network.add_vertex(vertex, Point(float(x), float(y)))
    for u, v in edges:
        network.add_edge(u, v)
    return network


@pytest.mark.parametrize(
    "city, seed",
    [("small-grid", 2018), ("chengdu-like", 2018), ("random", 3), ("riverton", 0),
     ("nyc-like", 2018)],
)
def test_city_tables_equal_dijkstra_rows(city, seed):
    _assert_exact(CITY_BUILDERS[city](seed))


def test_disconnected_network():
    network = _network(
        [(0, 0), (100, 0), (200, 0), (5000, 5000), (5100, 5000)],
        [(0, 1), (1, 2), (3, 4)],
    )
    matrix = _assert_exact(network)
    assert np.isinf(matrix[:3, 3:]).all() and np.isinf(matrix[3:, :3]).all()


def test_isolated_vertex():
    network = _network([(0, 0), (100, 0), (50, 900)], [(0, 1)])
    matrix = _assert_exact(network)
    assert matrix[2].tolist() == [np.inf, np.inf, 0.0]


def test_a_zero_length_street_is_refused():
    # two vertices at one spot: a street between them would cost 0.0 seconds
    with pytest.raises(RoadNetworkError, match=r"edge \(0, 1\) length must be positive"):
        _network([(0, 0), (0, 0), (300, 0), (300, 400)], [(0, 1), (1, 2), (2, 3), (0, 3)])
    network = _network([(0, 0), (0, 0), (300, 0), (300, 400)], [(1, 2), (2, 3), (0, 3)])
    matrix = _assert_exact(network)
    assert matrix[0, 1] > 0.0


@pytest.mark.parametrize("size", [0, 1])
def test_one_and_zero_vertex_networks(size):
    network = _network([(0, 0)][:size], [])
    assert _assert_exact(network).shape == (size, size)


def _two_triangles(detour: bool) -> RoadNetwork:
    """Two triangles joined by one street of ``2**30`` ticks (``2**20`` s),
    with or without a 20 s detour beside it."""
    network = _network(
        [(0, 0), (100, 0), (50, 80), (0, 1000), (100, 1000), (50, 1080)],
        [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
    )
    network.add_edge(2, 3, length=1024.0, speed=2.0**-10)
    if detour:
        network.add_vertex(6, Point(25.0, 500.0))
        network.add_edge(0, 6, length=600.0, speed=60.0)
        network.add_edge(6, 3, length=600.0, speed=60.0)
    return network


@pytest.mark.parametrize("short_component_first", [False, True])
def test_a_distance_beyond_the_tick_range_fails_typed(short_component_first):
    network = _two_triangles(detour=False)
    if short_component_first:
        # lower ids take the first CSR positions: the guard must not stop there
        network.add_vertex(-2, Point(-500.0, 0.0))
        network.add_vertex(-1, Point(-400.0, 0.0))
        network.add_edge(-2, -1)
    with pytest.raises(ConfigurationError, match="hand-made.*'ch' backend"):
        APSPBackend(network)


def test_auto_takes_the_hierarchy_for_a_network_beyond_the_tick_range():
    network = _two_triangles(detour=False)
    oracle = DistanceOracle(network, backend="auto")
    assert oracle.counters.backend == "ch"
    assert oracle.distance(0, 4) == dijkstra(network, 0)[4]
    with pytest.raises(ConfigurationError, match="'ch' backend"):
        DistanceOracle(network, backend="apsp")


def test_a_clamped_edge_beside_a_detour_is_exact():
    network = _two_triangles(detour=True)
    assert network.edge_cost(2, 3) * 1024 == UNREACHABLE_TICKS
    assert network.csr.ticks.max() == UNREACHABLE_TICKS - 1
    backend = APSPBackend(network)
    assert np.array_equal(table_seconds(backend.matrix), dijkstra_rows(network))
    # closing the detour leaves only the long street: the repair refuses too
    network.remove_edge(0, 6)
    with pytest.raises(ConfigurationError, match="'ch' backend"):
        backend.refresh(network)


def test_build_allocates_no_second_table():
    network = CITY_BUILDERS["nyc-like"](2018)
    n = network.csr.num_vertices
    table = np.empty((n, n), dtype=np.int32)
    tracemalloc.start()
    try:
        all_pairs_distances(network, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes / 4


@given(
    size=st.integers(min_value=2, max_value=60),
    radius=st.floats(min_value=1200.0, max_value=4000.0),
    seed=st.integers(min_value=0, max_value=10**6),
    closures=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
)
@settings(max_examples=25, deadline=None)
def test_random_geometric_graphs_with_closures(size, radius, seed, closures):
    network = random_geometric_city(
        num_vertices=size, area_metres=8000.0, connection_radius_metres=radius, seed=seed
    )
    for pick in closures:
        streets = sorted(network.edges(), key=lambda edge: (edge.u, edge.v))
        if not streets:
            break
        edge = streets[pick % len(streets)]
        network.remove_edge(edge.u, edge.v)
    _assert_exact(network)
