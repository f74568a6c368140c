"""Tests for the shared distance oracle (exact queries, lower bounds, counters)."""

import pytest

from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle
from tests.network.reference import shortest_distance


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=6, columns=6, block_metres=200.0, removed_block_fraction=0.0, seed=1)


@pytest.fixture(
    scope="module",
    params=["ch", "apsp"],
)
def oracle(request, network):
    return DistanceOracle(network, backend=request.param)


class TestExactQueries:
    def test_distance_matches_reference(self, oracle, network):
        vertices = sorted(network.vertices())
        pairs = [(vertices[0], vertices[-1]), (vertices[3], vertices[17]), (vertices[8], vertices[8])]
        for u, v in pairs:
            assert oracle.distance(u, v) == pytest.approx(shortest_distance(network, u, v))

    def test_distance_is_symmetric(self, oracle, network):
        vertices = sorted(network.vertices())
        u, v = vertices[2], vertices[29]
        assert oracle.distance(u, v) == pytest.approx(oracle.distance(v, u))

    def test_path_is_consistent_with_distance(self, oracle, network):
        vertices = sorted(network.vertices())
        u, v = vertices[0], vertices[20]
        path = oracle.path(u, v)
        assert path[0] == u and path[-1] == v
        total = sum(network.edge_cost(a, b) for a, b in zip(path, path[1:]))
        assert total == pytest.approx(oracle.distance(u, v))

    def test_path_same_vertex(self, oracle):
        assert oracle.path(4, 4) == [4]


class TestLowerBounds:
    def test_lower_bound_is_admissible(self, oracle, network):
        vertices = sorted(network.vertices())
        for u, v in zip(vertices[::5], vertices[::7]):
            assert oracle.lower_bound(u, v) <= oracle.distance(u, v) + 1e-9

    def test_lower_bound_zero_for_same_vertex(self, oracle):
        assert oracle.lower_bound(3, 3) == 0.0


class TestCountersAndCaches:
    def test_counters_increment(self, network):
        oracle = DistanceOracle(network)
        oracle.distance(0, 5)
        oracle.lower_bound(0, 5)
        oracle.path(0, 5)
        snapshot = oracle.counters.snapshot()
        assert snapshot["distance_queries"] == 1
        assert snapshot["lower_bound_queries"] == 1
        assert snapshot["path_queries"] == 1

    def test_reset_counters(self, network):
        oracle = DistanceOracle(network)
        oracle.distance(0, 5)
        oracle.reset_counters()
        assert oracle.counters.distance_queries == 0

    @pytest.mark.parametrize("name", ["apsp", "ch"])
    def test_snapshot_reports_the_path_cache_only(self, network, name):
        oracle = DistanceOracle(network, backend=name)
        oracle.distance(0, 5)
        oracle.path(0, 5)
        assert set(oracle.counters.snapshot()) == {
            "distance_queries", "path_queries", "lower_bound_queries", "dijkstra_runs",
            f"backend_{name}_queries", *(["backend_ch_settled"] if name == "ch" else []),
            "path_cache_hits", "path_cache_misses", "path_cache_evictions",
            "path_cache_hit_rate",
        }

    def test_cache_statistics_exposed(self, network):
        oracle = DistanceOracle(network)
        oracle.path(0, 5)
        oracle.path(5, 0)
        stats = oracle.cache_statistics()
        assert stats == {"path_cache_size": 1.0, "path_cache_hit_rate": 0.5}
