"""Tests for Dijkstra / bidirectional Dijkstra shortest paths."""

import math

import pytest

from repro.exceptions import DisconnectedError
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import bidirectional_dijkstra
from repro.utils.geometry import Point
from tests.conftest import build_line_network
from tests.network.reference import (
    dijkstra,
    eccentricity,
    path_cost,
    shortest_distance,
    shortest_path,
    single_source_distances,
)


def build_two_route_network() -> RoadNetwork:
    """A square with a shortcut diagonal: 0-1-2 is longer than 0-3-2."""
    network = RoadNetwork()
    network.add_vertex(0, Point(0, 0))
    network.add_vertex(1, Point(1000, 0))
    network.add_vertex(2, Point(1000, 1000))
    network.add_vertex(3, Point(0, 1000))
    network.add_edge(0, 1, speed=5.0)   # 200 s
    network.add_edge(1, 2, speed=5.0)   # 200 s
    network.add_edge(0, 3, speed=20.0)  # 50 s
    network.add_edge(3, 2, speed=20.0)  # 50 s
    return network


class TestDijkstra:
    def test_single_source_distances_on_line(self, line_network):
        distances = single_source_distances(line_network, 0)
        assert distances[0] == 0.0
        assert distances[5] == pytest.approx(50.0)

    def test_bounded_search_stops_early(self, line_network):
        distances = dijkstra(line_network, 0, max_cost=25.0)
        assert set(distances) == {0, 1, 2}

    def test_targeted_search_settles_targets(self, line_network):
        distances = dijkstra(line_network, 0, targets={3})
        assert distances[3] == pytest.approx(30.0)

    def test_prefers_faster_route(self):
        network = build_two_route_network()
        distances = single_source_distances(network, 0)
        assert distances[2] == pytest.approx(100.0)


class TestBidirectional:
    def test_distance_matches_dijkstra(self):
        network = build_two_route_network()
        cost, path = bidirectional_dijkstra(network, 0, 2)
        assert cost == pytest.approx(100.0)
        assert path == [0, 3, 2]

    def test_path_endpoints(self, line_network):
        path = shortest_path(line_network, 1, 4)
        assert path[0] == 1 and path[-1] == 4
        assert path == [1, 2, 3, 4]

    def test_path_cost_matches_distance(self, line_network):
        path = shortest_path(line_network, 0, 5)
        assert path_cost(line_network, path) == pytest.approx(shortest_distance(line_network, 0, 5))

    def test_same_vertex_distance_zero(self, line_network):
        assert shortest_distance(line_network, 3, 3) == 0.0
        assert shortest_path(line_network, 3, 3) == [3]

    def test_disconnected_raises(self):
        network = build_line_network(4)
        network.add_vertex(99, Point(9999.0, 9999.0))
        with pytest.raises(DisconnectedError):
            bidirectional_dijkstra(network, 0, 99)

    def test_symmetry_on_undirected_graph(self, city_network):
        vertices = sorted(city_network.vertices())
        a, b = vertices[0], vertices[len(vertices) // 2]
        assert shortest_distance(city_network, a, b) == pytest.approx(
            shortest_distance(city_network, b, a)
        )


class TestDerived:
    def test_eccentricity_of_line_endpoint(self, line_network):
        assert eccentricity(line_network, 0) == pytest.approx(50.0)

    def test_triangle_inequality_holds(self, city_network):
        vertices = sorted(city_network.vertices())
        a, b, c = vertices[0], vertices[7], vertices[19]
        ab = shortest_distance(city_network, a, b)
        bc = shortest_distance(city_network, b, c)
        ac = shortest_distance(city_network, a, c)
        assert ac <= ab + bc + 1e-9

    def test_unreachable_distance_is_not_returned(self):
        network = build_line_network(3)
        distances = dijkstra(network, 0, max_cost=5.0)
        assert 2 not in distances
        assert math.isfinite(distances[0])
