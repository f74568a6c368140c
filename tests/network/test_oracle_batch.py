"""Batched oracle APIs vs their scalar loops: exact equality, not approx.

The batched calls (``distances_many``, ``distance_pairs``,
``endpoint_distances``, ``euclidean_lower_bounds``) must return the very same
floats the scalar loop would, bump the same exact-query counters, and — for
the symmetric path cache — answer a reversed query from one cached entry.
"""

import numpy as np
import pytest

from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=6, columns=6, block_metres=200.0, removed_block_fraction=0.04, seed=9)


@pytest.fixture(
    scope="module",
    params=["ch", "apsp"],
)
def oracle(request, network):
    return DistanceOracle(network, backend=request.param)


@pytest.fixture(scope="module")
def vertices(network):
    return sorted(network.vertices())


class TestBatchedDistances:
    def test_distances_many_equals_scalar_loop(self, oracle, vertices):
        source, targets = vertices[0], vertices[::3]
        batched = oracle.distances_many(source, targets)
        scalar = [oracle.distance(source, target) for target in targets]
        assert batched.tolist() == scalar

    def test_distance_pairs_equals_scalar_loop(self, oracle, vertices):
        us = vertices[::4]
        vs = list(reversed(vertices))[::4]
        batched = oracle.distance_pairs(us, vs)
        scalar = [oracle.distance(u, v) for u, v in zip(us, vs)]
        assert batched.tolist() == scalar

    def test_endpoint_distances_equals_scalar_loop(self, oracle, vertices):
        stops = vertices[::5]
        origin, destination = vertices[3], vertices[-2]
        to_origin, to_destination = oracle.endpoint_distances(stops, origin, destination)
        assert to_origin == [oracle.distance(stop, origin) for stop in stops]
        assert to_destination == [oracle.distance(stop, destination) for stop in stops]
        assert all(type(value) is float for value in to_origin + to_destination)
        # an array of vertices is answered in arrays, with the same values
        as_arrays = oracle.endpoint_distances(np.asarray(stops), origin, destination)
        assert [found.tolist() for found in as_arrays] == [to_origin, to_destination]

    def test_counters_match_scalar_loop(self, network, vertices):
        batched_oracle = DistanceOracle(network, backend="apsp")
        scalar_oracle = DistanceOracle(network, backend="apsp")
        source, targets = vertices[0], vertices[:7]
        batched_oracle.distances_many(source, targets)
        for target in targets:
            scalar_oracle.distance(source, target)
        assert (
            batched_oracle.counters.distance_queries
            == scalar_oracle.counters.distance_queries
            == len(targets)
        )

    def test_distance_pairs_rejects_mismatched_lengths(self, oracle, vertices):
        with pytest.raises(ValueError, match="length"):
            oracle.distance_pairs(vertices[:3], vertices[:2])

    def test_repeated_targets_and_the_source_itself(self, oracle, vertices):
        source, target = vertices[0], vertices[7]
        batched = oracle.distances_many(source, [target, target, target, source])
        assert batched.tolist() == [oracle.distance(source, target)] * 3 + [0.0]

    def test_batches_run_no_path_search(self, network, oracle, vertices):
        fresh = DistanceOracle(network, backend=oracle.backend_name)
        fresh.distances_many(vertices[0], vertices[::3])
        fresh.distance_pairs(vertices[::4], vertices[1::4])
        fresh.endpoint_distances(vertices[::5], vertices[3], vertices[-2])
        snapshot = fresh.counters.snapshot()
        assert snapshot["dijkstra_runs"] == 0
        assert (snapshot["path_cache_hits"], snapshot["path_cache_misses"]) == (0, 0)
        assert fresh.cache_statistics()["path_cache_size"] == 0.0

    def test_empty_batches_count_nothing(self, network, oracle, vertices):
        fresh = DistanceOracle(network, backend=oracle.backend_name)
        many = fresh.distances_many(vertices[0], [])
        pairs = fresh.distance_pairs([], [])
        to_origin, to_destination = fresh.endpoint_distances(
            np.empty(0, dtype=np.int64), vertices[1], vertices[2]
        )
        for empty in (many, pairs, to_origin, to_destination):
            assert empty.dtype == np.float64 and empty.shape == (0,)
        assert fresh.endpoint_distances([], vertices[1], vertices[2]) == ([], [])
        assert fresh.counters.distance_queries == 0
        assert fresh.counters.backend_queries == {}


class TestBatchedLowerBounds:
    @pytest.fixture(scope="class")
    def bound_oracle(self, network):
        return DistanceOracle(network)

    def test_euclidean_lower_bounds_equal_scalar(self, bound_oracle, vertices):
        stops = vertices[::2]
        origin, destination = vertices[1], vertices[-1]
        to_origin, to_destination = bound_oracle.euclidean_lower_bounds(
            stops, origin, destination
        )
        assert to_origin.tolist() == [
            bound_oracle.lower_bound(stop, origin) for stop in stops
        ]
        assert to_destination.tolist() == [
            bound_oracle.lower_bound(stop, destination) for stop in stops
        ]

    def test_single_endpoint_variant_equal_scalar(self, bound_oracle, vertices):
        stops = vertices[::3]
        target = vertices[5]
        bounds = bound_oracle.euclidean_lower_bounds_to(stops, target)
        assert bounds.tolist() == [bound_oracle.lower_bound(stop, target) for stop in stops]

    def test_lower_bound_counter_advances_per_pair(self, network, vertices):
        oracle = DistanceOracle(network)
        before = oracle.counters.lower_bound_queries
        oracle.euclidean_lower_bounds(vertices[:6], vertices[0], vertices[-1])
        assert oracle.counters.lower_bound_queries == before + 12


class TestSymmetricPathCache:
    def test_reverse_path_served_from_cache(self, network, vertices):
        oracle = DistanceOracle(network)
        u, v = vertices[0], vertices[-1]
        forward = oracle.path(u, v)
        runs_after_forward = oracle.counters.dijkstra_runs
        backward = oracle.path(v, u)
        assert backward == list(reversed(forward))
        # the reversed lookup must not spend another Dijkstra
        assert oracle.counters.dijkstra_runs == runs_after_forward

    def test_cache_statistics_in_counter_snapshot(self, network, vertices):
        oracle = DistanceOracle(network)
        oracle.path(vertices[0], vertices[4])
        oracle.path(vertices[0], vertices[4])
        snapshot = oracle.counters.snapshot()
        assert snapshot["path_cache_hits"] == 1
        assert snapshot["path_cache_misses"] == 1
        assert snapshot["path_cache_hit_rate"] == 0.5

    def test_reset_counters_resets_cache_statistics(self, network, vertices):
        oracle = DistanceOracle(network)
        oracle.path(vertices[0], vertices[3])
        oracle.reset_counters()
        snapshot = oracle.counters.snapshot()
        assert snapshot["path_cache_hits"] == 0
        assert snapshot["path_cache_misses"] == 0
        # cache contents survive: the next query is a hit
        oracle.path(vertices[0], vertices[3])
        assert oracle.counters.snapshot()["path_cache_hits"] == 1
