"""Tests for live road-network mutation (street closures and reopenings).

Covers the three layers the scenario runtime relies on: edge removal on the
graph itself, lazy CSR invalidation, and full oracle re-derivation via
``refresh_topology`` — including the content-addressed artifact store keying
on the mutated network's content hash.
"""

import pytest

from repro.artifacts.store import ArtifactStore
from repro.exceptions import RoadNetworkError
from repro.network.generators import grid_city
from repro.network.graph import connected_components
from repro.network.oracle import DistanceOracle, network_content_hash
from tests.network.reference import shortest_distance


@pytest.fixture()
def network():
    return grid_city(rows=6, columns=6, block_metres=200.0,
                     removed_block_fraction=0.0, seed=1)


def _some_edge(network):
    # pick a removable edge whose loss keeps the grid connected
    for edge in network.edges():
        removed = network.remove_edge(edge.u, edge.v)
        if connected_components(network).count == 1:
            network.add_edge(removed.u, removed.v, length=removed.length,
                             speed=removed.speed, road_class=removed.road_class)
            return removed
        network.add_edge(removed.u, removed.v, length=removed.length,
                         speed=removed.speed, road_class=removed.road_class)
    raise AssertionError("no removable edge found")


class TestRemoveEdge:
    def test_removes_both_directions(self, network):
        edge = _some_edge(network)
        before = network.num_edges
        removed = network.remove_edge(edge.u, edge.v)
        assert network.num_edges == before - 1
        assert not network.has_edge(edge.u, edge.v)
        assert edge.v not in network.neighbours(edge.u)
        assert edge.u not in network.neighbours(edge.v)
        assert removed.length == edge.length

    def test_missing_edge_raises(self, network):
        edge = _some_edge(network)
        network.remove_edge(edge.u, edge.v)
        with pytest.raises(RoadNetworkError):
            network.remove_edge(edge.u, edge.v)

    def test_reopen_restores_metadata(self, network):
        edge = _some_edge(network)
        removed = network.remove_edge(edge.u, edge.v)
        network.add_edge(removed.u, removed.v, length=removed.length,
                         speed=removed.speed, road_class=removed.road_class)
        restored = network.edge(edge.u, edge.v)
        assert restored.length == edge.length
        assert restored.speed == edge.speed
        assert restored.road_class == edge.road_class


class TestCSRInvalidation:
    def test_csr_rebuilds_after_removal(self, network):
        csr_before = network.csr
        edge = _some_edge(network)
        network.remove_edge(edge.u, edge.v)
        csr_after = network.csr
        assert csr_after is not csr_before
        assert len(csr_after.indices) == len(csr_before.indices) - 2
        # rebuilt rows no longer list the removed neighbour
        u_pos = csr_after.position_of(edge.u)
        row = csr_after.indices[csr_after.indptr[u_pos]:csr_after.indptr[u_pos + 1]]
        assert csr_after.position_of(edge.v) not in row

    def test_csr_cached_when_topology_unchanged(self, network):
        assert network.csr is network.csr


class TestOracleRefresh:
    @pytest.mark.parametrize("backend", ["apsp", "ch"])
    def test_distances_exact_after_close_and_reopen(self, network, backend):
        oracle = DistanceOracle(network, backend=backend)
        edge = _some_edge(network)
        baseline = oracle.distance(edge.u, edge.v)

        network.remove_edge(edge.u, edge.v)
        oracle.refresh_topology()
        detour = oracle.distance(edge.u, edge.v)
        assert detour == pytest.approx(shortest_distance(network, edge.u, edge.v))
        assert detour > baseline

        network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed,
                         road_class=edge.road_class)
        oracle.refresh_topology()
        assert oracle.distance(edge.u, edge.v) == pytest.approx(baseline)

    @pytest.mark.parametrize("backend", ["apsp", "ch"])
    def test_counters_accumulate_across_refresh(self, network, backend):
        oracle = DistanceOracle(network, backend=backend)
        vertices = sorted(network.vertices())
        oracle.distance(vertices[0], vertices[-1])
        queries_before = oracle.counters.distance_queries
        assert queries_before > 0
        edge = _some_edge(network)
        network.remove_edge(edge.u, edge.v)
        oracle.refresh_topology()
        oracle.distance(vertices[0], vertices[-1])
        assert oracle.counters.distance_queries > queries_before


class TestArtifactStoreAfterMutation:
    def test_content_hash_tracks_topology(self, network, tmp_path):
        oracle = DistanceOracle(network, backend="apsp", artifact_dir=tmp_path)
        original_hash = oracle.content_hash
        assert original_hash == network_content_hash(network)

        edge = _some_edge(network)
        network.remove_edge(edge.u, edge.v)
        oracle.refresh_topology()
        assert oracle.content_hash == network_content_hash(network)
        assert oracle.content_hash != original_hash
        # the mutated topology is a fresh build, saved under its own hash
        assert oracle.artifact_loaded is False

        network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed,
                         road_class=edge.road_class)
        oracle.refresh_topology()
        assert oracle.content_hash == original_hash
        # reopening restores the original topology: its artifact is cached
        assert oracle.artifact_loaded is True

    def test_warm_start_bitwise_equal_to_fresh_build(self, network, tmp_path):
        # first oracle builds + saves both topologies (close, then reopen)
        oracle = DistanceOracle(network, backend="ch", artifact_dir=tmp_path)
        edge = _some_edge(network)
        network.remove_edge(edge.u, edge.v)
        oracle.refresh_topology()
        network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed,
                         road_class=edge.road_class)
        oracle.refresh_topology()
        assert oracle.artifact_loaded is True

        # a second oracle over the closed topology warm-starts from the
        # store and answers bitwise-identically to a cold build
        network.remove_edge(edge.u, edge.v)
        warm = DistanceOracle(network, backend="ch", artifact_dir=tmp_path)
        assert warm.artifact_loaded is True
        fresh = DistanceOracle(network, backend="ch")
        vertices = sorted(network.vertices())
        for source in vertices[:4]:
            for target in vertices[-4:]:
                assert warm.distance(source, target) == fresh.distance(source, target)

    def test_mutated_artifacts_coexist_in_store(self, network, tmp_path):
        oracle = DistanceOracle(network, backend="apsp", artifact_dir=tmp_path)
        first_hash = oracle.content_hash
        edge = _some_edge(network)
        network.remove_edge(edge.u, edge.v)
        oracle.refresh_topology()
        second_hash = oracle.content_hash
        store = ArtifactStore(tmp_path)
        assert store.has(first_hash, "apsp")
        assert store.has(second_hash, "apsp")
