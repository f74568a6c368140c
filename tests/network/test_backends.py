"""Equivalence and policy tests of the pluggable distance backends.

The contraction hierarchy must answer exactly what ``dijkstra_reference``
(the seed's dict-based search) answers — across random generator cities and
seeds, including disconnected pairs (``inf``) and ``u == v``. The
auto-selection policy must pick the expected backend per city size / query
volume.
"""

import math
import os
import random

import numpy as np
import pytest

from repro.exceptions import DisconnectedError
from repro.network.backends import (
    APSP_VERTEX_LIMIT,
    BACKEND_NAMES,
    APSPBackend,
    CHBackend,
    select_backend_name,
)
from repro.network.ch import build_contraction_hierarchy
from repro.network.generators import grid_city, random_geometric_city, ring_radial_city
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.network.shortest_path import truncated_multi_target_distances
from repro.utils.geometry import Point
from repro.workloads.scenarios import CITY_BUILDERS
from tests.network.reference import dijkstra_reference

_CITIES = [
    pytest.param(lambda: random_geometric_city(num_vertices=80, seed=0), id="random-0"),
    pytest.param(lambda: random_geometric_city(num_vertices=70, seed=1), id="random-1"),
    pytest.param(lambda: random_geometric_city(num_vertices=90, seed=2), id="random-2"),
    pytest.param(
        lambda: grid_city(rows=8, columns=8, block_metres=200.0, seed=3), id="grid"
    ),
    pytest.param(lambda: ring_radial_city(rings=4, radials=10, seed=5), id="ring"),
]


@pytest.mark.parametrize("build_city", _CITIES)
class TestBackendEquivalence:
    def test_ch_equals_dijkstra_reference(self, build_city):
        network = build_city()
        vertices = sorted(network.vertices())
        hierarchy = build_contraction_hierarchy(network)
        position = network.csr.position
        for u in vertices[::5]:
            truth = dijkstra_reference(network, u)
            for v in vertices[::7]:
                expected = truth.get(v, math.inf)
                got = hierarchy.query_positions(position[u], position[v])
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == expected

    def test_apsp_equals_dijkstra_reference(self, build_city):
        network = build_city()
        vertices = sorted(network.vertices())
        backend = APSPBackend(network)
        for u in vertices[::5]:
            truth = dijkstra_reference(network, u)
            for v in vertices[::7]:
                expected = truth.get(v, math.inf)
                assert backend.distance(u, v) == expected

    def test_precomputed_backends_are_symmetric(self, build_city):
        # (u, v) and (v, u) add the same edge costs in opposite orders; on
        # the time grid those sums are exact, so both backends are symmetric
        network = build_city()
        vertices = sorted(network.vertices())
        hierarchy = CHBackend(network)
        table = APSPBackend(network)
        for u in vertices[::6]:
            for v in vertices[::11]:
                assert hierarchy.distance(u, v) == hierarchy.distance(v, u)
                assert table.distance(u, v) == table.distance(v, u)

    def test_identity_is_zero(self, build_city):
        network = build_city()
        vertices = sorted(network.vertices())
        hierarchy = build_contraction_hierarchy(network)
        position = network.csr.position
        for u in vertices[::9]:
            assert hierarchy.query_positions(position[u], position[u]) == 0.0

    def test_batched_queries_bitwise_equal_scalar(self, build_city):
        network = build_city()
        vertices = sorted(network.vertices())
        for backend in ("apsp", "ch"):
            oracle = DistanceOracle(network, backend=backend)
            source = vertices[0]
            targets = vertices[::3]
            batched = oracle.distances_many(source, targets)
            scalar = [oracle.distance(source, t) for t in targets]
            assert batched.tolist() == scalar


#: the generated cities of ``CITY_BUILDERS`` (riverton is an ingested map)
_GENERATOR_CITIES = ["small-grid", "chengdu-like", "nyc-like", "random", "metro-grid"]


@pytest.mark.parametrize("city", _GENERATOR_CITIES)
def test_apsp_ch_and_dijkstra_answer_the_same_bits(city):
    """Every edge cost is on the time grid, so a shortest distance is an exact
    sum whatever order a backend adds its edges in: batched rows and scalar
    queries agree with ``==``, and so do both directions of a pair."""
    network = CITY_BUILDERS[city](2018)
    apsp, ch, dijkstra = (
        DistanceOracle(network, backend=name) for name in ("apsp", "ch", "dijkstra")
    )
    vertices = sorted(network.vertices())
    rng = random.Random(2018)
    for source in rng.sample(vertices, 6):
        row = apsp.distances_many(source, vertices).tolist()
        assert row == ch.distances_many(source, vertices).tolist()
        assert row == dijkstra.distances_many(source, vertices).tolist()
        for target in rng.sample(vertices, 20):
            forward = apsp.distance(source, target)
            assert forward == ch.distance(source, target) == dijkstra.distance(source, target)
            assert forward == apsp.distance(target, source) == ch.distance(target, source)


class TestDisconnectedPairs:
    @pytest.fixture()
    def split_network(self):
        """Two components: a 3-vertex path and a detached 2-vertex edge."""
        network = RoadNetwork(name="split")
        for vertex, (x, y) in enumerate([(0, 0), (100, 0), (200, 0), (5000, 5000), (5100, 5000)]):
            network.add_vertex(vertex, Point(float(x), float(y)))
        network.add_edge(0, 1)
        network.add_edge(1, 2)
        network.add_edge(3, 4)
        return network

    def test_ch_reports_infinity(self, split_network):
        hierarchy = build_contraction_hierarchy(split_network)
        position = split_network.csr.position
        assert math.isinf(hierarchy.query_positions(position[0], position[3]))
        assert (
            hierarchy.query_positions(position[0], position[2])
            == dijkstra_reference(split_network, 0)[2]
        )

    def test_apsp_reports_infinity(self, split_network):
        backend = APSPBackend(split_network)
        assert math.isinf(backend.distance(0, 4))
        assert math.isinf(backend.distance(3, 2))
        assert backend.distance(3, 4) == dijkstra_reference(split_network, 3)[4]

    def test_apsp_batch_reports_infinity(self, split_network):
        oracle = DistanceOracle(split_network, backend="apsp")
        distances = oracle.distances_many(0, [1, 3, 4])
        assert math.isfinite(distances[0])
        assert math.isinf(distances[1]) and math.isinf(distances[2])

    def test_ch_batch_reports_infinity(self, split_network):
        oracle = DistanceOracle(split_network, backend="ch")
        distances = oracle.distances_many(0, [1, 3, 4])
        assert math.isfinite(distances[0])
        assert math.isinf(distances[1]) and math.isinf(distances[2])

    def test_dijkstra_batch_raises_like_the_scalar_path(self, split_network):
        oracle = DistanceOracle(split_network, backend="dijkstra")
        with pytest.raises(DisconnectedError):
            oracle.distances_many(0, [1, 3])


class TestTruncatedMultiTargetDijkstra:
    def test_matches_reference_distances(self):
        network = random_geometric_city(num_vertices=90, seed=7)
        vertices = sorted(network.vertices())
        source = vertices[0]
        targets = vertices[::4]
        distances, settled = truncated_multi_target_distances(network, source, targets)
        truth = dijkstra_reference(network, source)
        assert distances.tolist() == [truth[t] for t in targets]
        assert 0 < settled <= network.num_vertices

    def test_stops_early_for_nearby_targets(self):
        network = grid_city(rows=20, columns=20, block_metres=200.0,
                            removed_block_fraction=0.0, seed=1)
        vertices = sorted(network.vertices())
        source = vertices[0]
        neighbours = sorted(network.neighbours(source))
        _, settled = truncated_multi_target_distances(network, source, neighbours)
        # settling the direct neighbours must not sweep the whole city
        assert settled < network.num_vertices / 4

    def test_unreachable_targets_hold_infinity(self):
        network = RoadNetwork()
        network.add_vertex(0, Point(0.0, 0.0))
        network.add_vertex(1, Point(100.0, 0.0))
        network.add_vertex(2, Point(9000.0, 9000.0))
        network.add_edge(0, 1)
        distances, _ = truncated_multi_target_distances(network, 0, [1, 2])
        assert math.isfinite(distances[0])
        assert math.isinf(distances[1])


class TestAutoSelectionPolicy:
    def test_small_network_gets_apsp(self):
        assert select_backend_name(150) == "apsp"
        assert select_backend_name(APSP_VERTEX_LIMIT) == "apsp"

    def test_city_scale_gets_contraction_hierarchy(self):
        assert select_backend_name(APSP_VERTEX_LIMIT + 1) == "ch"
        assert select_backend_name(100_000) == "ch"

    def test_policy_answers_only_from_the_roster(self):
        for num_vertices in (1, 50, APSP_VERTEX_LIMIT, APSP_VERTEX_LIMIT + 1, 10_000_000):
            assert select_backend_name(num_vertices) in BACKEND_NAMES

    def test_oracle_auto_backend_resolves_by_size(self):
        network = grid_city(rows=6, columns=6, block_metres=200.0, seed=1)
        oracle = DistanceOracle(network, backend="auto")
        assert oracle.backend_name == "apsp"

    def test_scenario_auto_policy_per_city(self):
        from repro.workloads.scenarios import CITY_BUILDERS, ScenarioConfig, make_oracle

        small = CITY_BUILDERS["small-grid"](1)
        assert make_oracle(small, ScenarioConfig(city="small-grid")).backend_name == "apsp"
        metro = CITY_BUILDERS["metro-grid"](1)
        assert make_oracle(metro, ScenarioConfig(city="metro-grid")).backend_name == "ch"

    def test_explicit_backend_selection(self):
        network = grid_city(rows=5, columns=5, block_metres=200.0, seed=2)
        for name in BACKEND_NAMES:
            assert DistanceOracle(network, backend=name).backend_name == name

    def test_unknown_backend_rejected(self):
        network = grid_city(rows=4, columns=4, block_metres=200.0, seed=2)
        for name in ("bogus", "hub_labels"):
            with pytest.raises(ValueError, match="unknown distance backend"):
                DistanceOracle(network, backend=name)


class TestPerBackendCounters:
    def test_queries_attributed_to_backend(self):
        network = grid_city(rows=6, columns=6, block_metres=200.0, seed=4)
        vertices = sorted(network.vertices())
        oracle = DistanceOracle(network, backend="ch")
        oracle.distance(vertices[0], vertices[-1])
        oracle.distances_many(vertices[0], vertices[:5])
        snapshot = oracle.counters.snapshot()
        assert snapshot["backend_ch_queries"] == 6
        assert snapshot["backend_ch_settled"] > 0

    def test_bypassed_cache_reported_honestly(self):
        network = grid_city(rows=5, columns=5, block_metres=200.0, seed=4)
        vertices = sorted(network.vertices())
        for name in ("apsp", "ch"):
            oracle = DistanceOracle(network, backend=name)
            oracle.distance(vertices[0], vertices[-1])
            assert oracle.cache_statistics()["distance_cache_hit_rate"] == f"bypassed ({name})"
            assert oracle.counters.snapshot()["distance_cache_hit_rate"] == f"bypassed ({name})"
        active = DistanceOracle(network, backend="dijkstra")
        active.distance(vertices[0], vertices[-1])
        assert isinstance(active.cache_statistics()["distance_cache_hit_rate"], float)


class TestDijkstraBatchCache:
    """The fallback batch path must consult and populate the distance LRU."""

    @pytest.fixture()
    def network(self):
        return grid_city(rows=6, columns=6, block_metres=200.0, seed=9)

    def test_batch_populates_the_cache(self, network):
        vertices = sorted(network.vertices())
        oracle = DistanceOracle(network, backend="dijkstra")
        targets = vertices[1:6]
        first = oracle.distances_many(vertices[0], targets)
        runs = oracle.counters.dijkstra_runs
        second = oracle.distances_many(vertices[0], targets)
        assert second.tolist() == first.tolist()
        # the repeat batch is answered entirely from the cache
        assert oracle.counters.dijkstra_runs == runs
        assert oracle.counters.snapshot()["distance_cache_hits"] >= len(targets)

    def test_batch_serves_later_scalar_queries(self, network):
        vertices = sorted(network.vertices())
        oracle = DistanceOracle(network, backend="dijkstra")
        batched = oracle.distances_many(vertices[0], vertices[1:6])
        runs = oracle.counters.dijkstra_runs
        scalar = [oracle.distance(vertices[0], t) for t in vertices[1:6]]
        assert scalar == batched.tolist()
        assert oracle.counters.dijkstra_runs == runs

    def test_repeated_targets_deduplicated(self, network):
        vertices = sorted(network.vertices())
        oracle = DistanceOracle(network, backend="dijkstra")
        target = vertices[7]
        distances = oracle.distances_many(vertices[0], [target, target, target, vertices[0]])
        assert distances[0] == distances[1] == distances[2]
        assert distances[3] == 0.0
        # one truncated search answered the whole batch
        assert oracle.counters.dijkstra_runs == 1

    def test_distance_pairs_shares_an_endpoint_in_one_search(self, network):
        vertices = sorted(network.vertices())
        oracle = DistanceOracle(network, backend="dijkstra")
        hub = vertices[3]
        us = [hub, hub, hub]
        vs = [vertices[10], vertices[20], vertices[30]]
        pairs = oracle.distance_pairs(us, vs)
        assert oracle.counters.dijkstra_runs == 1
        assert pairs.tolist() == [oracle.distance(hub, v) for v in vs]

    def test_endpoint_distances_two_sweeps(self, network):
        vertices = sorted(network.vertices())
        oracle = DistanceOracle(network, backend="dijkstra")
        stops = vertices[::4]
        to_origin, to_destination = oracle.endpoint_distances(
            stops, vertices[1], vertices[-2]
        )
        assert oracle.counters.dijkstra_runs == 2
        assert to_origin.tolist() == [oracle.distance(s, vertices[1]) for s in stops]
        assert to_destination.tolist() == [oracle.distance(s, vertices[-2]) for s in stops]


class TestAPSPTableMapping:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="shard workers fork only where fork exists")
    def test_a_forked_worker_writes_its_own_copy(self):
        """Shard workers are forked from the front door: a replica writing its
        table (a live-update repair) must not reach the parent's."""
        backend = APSPBackend(grid_city(rows=4, columns=4, block_metres=150.0, seed=1))
        before = backend.matrix.copy()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child only writes and exits
            backend.matrix[:] = -1.0
            os._exit(0)
        os.waitpid(pid, 0)
        assert np.array_equal(backend.matrix, before)
