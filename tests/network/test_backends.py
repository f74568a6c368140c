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

from repro.exceptions import ConfigurationError, DisconnectedError
from repro.network.backends import (
    APSP_VERTEX_LIMIT,
    BACKEND_NAMES,
    APSPBackend,
    CHBackend,
    make_backend,
    select_backend_name,
)
from repro.network.ch import build_contraction_hierarchy
from repro.network.generators import grid_city, random_geometric_city, ring_radial_city
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
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
    sum whatever order a backend adds its edges in: batched rows, scalar
    queries and the reference Dijkstra's rows agree with ``==``, and so do
    both directions of a pair."""
    network = CITY_BUILDERS[city](2018)
    apsp, ch = (DistanceOracle(network, backend=name) for name in ("apsp", "ch"))
    vertices = sorted(network.vertices())
    rng = random.Random(2018)
    for source in rng.sample(vertices, 6):
        truth = dijkstra_reference(network, source)
        row = [truth.get(vertex, math.inf) for vertex in vertices]
        assert row == apsp.distances_many(source, vertices).tolist()
        assert row == ch.distances_many(source, vertices).tolist()
        for target in rng.sample(vertices, 20):
            forward = apsp.distance(source, target)
            assert forward == ch.distance(source, target) == truth.get(target, math.inf)
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

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_pair_and_endpoint_batches_report_infinity(self, split_network, name):
        oracle = DistanceOracle(split_network, backend=name)
        to_2 = dijkstra_reference(split_network, 2)
        to_4 = dijkstra_reference(split_network, 4)
        assert oracle.distance_pairs([0, 3, 1], [4, 4, 2]).tolist() == [
            math.inf, to_4[3], to_2[1],
        ]
        to_origin, to_destination = oracle.endpoint_distances([0, 1, 3], 2, 4)
        assert to_origin == [to_2[0], to_2[1], math.inf]
        assert to_destination == [math.inf, math.inf, to_4[3]]
        as_arrays = oracle.endpoint_distances(np.array([0, 1, 3]), 2, 4)
        assert [found.tolist() for found in as_arrays] == [to_origin, to_destination]

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_oracle_path_between_components_raises(self, split_network, name):
        oracle = DistanceOracle(split_network, backend=name)
        with pytest.raises(DisconnectedError, match="no path between 0 and 4"):
            oracle.path(0, 4)
        # nothing was cached or counted as a search for the failed pair
        assert oracle.cache_statistics()["path_cache_size"] == 0.0
        assert oracle.counters.dijkstra_runs == 0
        assert oracle.path(0, 2) == [0, 1, 2]


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

    def test_oracle_defaults_to_auto(self):
        small = grid_city(rows=6, columns=6, block_metres=200.0, seed=1)
        assert DistanceOracle(small).backend_name == "apsp"
        beyond = grid_city(rows=46, columns=46, block_metres=200.0,
                           removed_block_fraction=0.0, seed=1)
        assert beyond.num_vertices > APSP_VERTEX_LIMIT
        assert DistanceOracle(beyond).backend_name == "ch"

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

    def test_make_backend_takes_no_policy_name(self):
        # "auto" is resolved by the oracle; the factory builds named backends only
        network = grid_city(rows=4, columns=4, block_metres=200.0, seed=2)
        host = DistanceOracle(network, backend="apsp")
        with pytest.raises(ConfigurationError, match="unknown distance backend 'auto'"):
            make_backend("auto", network, host)
        for name in BACKEND_NAMES:
            assert make_backend(name, network, host).name == name

    def test_unknown_backend_rejected(self):
        network = grid_city(rows=4, columns=4, block_metres=200.0, seed=2)
        for name in ("bogus", "hub_labels", "dijkstra"):
            with pytest.raises(
                ConfigurationError, match=r"backend must be one of \('apsp', 'ch'\)"
            ):
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
