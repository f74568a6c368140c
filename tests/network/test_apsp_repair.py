"""In-place APSP repair on live edge deltas: exactness, fallbacks, bookkeeping.

``APSPBackend.refresh`` repairs the dense table after closures/reopenings
instead of rebuilding it. The contract gated here is **bit-identity** with a
from-scratch build (``np.array_equal``, never ``allclose``) after every step
of random close/reopen sequences — including closures that disconnect part of
the network (cells go to ``inf``) and the reopenings that bring them back —
plus the deltas the repair declines (full build), the artifact-store
interplay and the handles/statistics the oracle exposes afterwards.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts.store import ArtifactStore
from repro.exceptions import RoadNetworkError
from repro.network.apsp_repair import diff_csr
from repro.network.backends import APSPBackend
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork, induced_subnetwork
from repro.network.oracle import DistanceOracle
from repro.utils.geometry import Point
from repro.workloads.scenarios import CITY_BUILDERS
from tests.network.reference import table_seconds


def _riverton_extract(size: int = 220) -> RoadNetwork:
    """A connected piece of the ingested riverton map (BFS ball).

    Real-map geometry — full-mantissa edge costs, degree-2 chains and
    dead-end streets whose closure disconnects a component — at a size where
    the fresh reference build of every step stays cheap.
    """
    full = CITY_BUILDERS["riverton"](0)
    start = min(full.vertices())
    seen = [start]
    members = {start}
    for vertex in seen:
        if len(seen) >= size:
            break
        for neighbour in sorted(full.neighbours(vertex)):
            if neighbour not in members:
                members.add(neighbour)
                seen.append(neighbour)
    return induced_subnetwork(full, seen[:size])


_NETWORKS = {
    "small-grid": CITY_BUILDERS["small-grid"](2018),
    "chengdu-like": CITY_BUILDERS["chengdu-like"](2018),
    "riverton": _riverton_extract(),
}
_PRISTINE = {city: APSPBackend(network).matrix for city, network in _NETWORKS.items()}


def _reopen(network: RoadNetwork, edge) -> None:
    network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed,
                     road_class=edge.road_class)


def _fresh(network: RoadNetwork) -> np.ndarray:
    return APSPBackend(network).matrix


#: one step = (prefer reopening, 1-5 picks); picks index the open streets on a
#: closure and the closed ones on a (possibly partial) reopening
_STEPS = st.lists(
    st.tuples(
        st.booleans(),
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=5),
    ),
    min_size=1,
    max_size=5,
)


class TestRepairIsExact:
    @pytest.mark.parametrize("city", sorted(_NETWORKS))
    @given(steps=_STEPS)
    @settings(max_examples=15, deadline=None)
    def test_random_close_reopen_sequences(self, city, steps):
        network = _NETWORKS[city]
        backend = APSPBackend(network, matrix=_PRISTINE[city].copy())
        closed = []
        try:
            for reopen, picks in steps:
                if reopen and closed:
                    for pick in picks[: len(closed)]:
                        _reopen(network, closed.pop(pick % len(closed)))
                else:
                    for pick in picks:
                        streets = sorted(network.edges(), key=lambda e: (e.u, e.v))
                        edge = streets[pick % len(streets)]
                        closed.append(network.remove_edge(edge.u, edge.v))
                backend.refresh(network)
                assert np.array_equal(backend.matrix, _fresh(network))
            assert backend.full_rebuilds == 0
            assert backend.repairs == len(steps)
        finally:
            for edge in closed:
                _reopen(network, edge)

    def test_isolating_a_vertex_and_reconnecting_it(self):
        network = grid_city(rows=5, columns=5, block_metres=200.0,
                            removed_block_fraction=0.0, seed=3)
        backend = APSPBackend(network)
        corner = min(network.vertices(), key=network.degree)
        streets = [network.edge(corner, other) for other in sorted(network.neighbours(corner))]
        for edge in streets:
            network.remove_edge(edge.u, edge.v)
        backend.refresh(network)
        row = table_seconds(backend.matrix[backend.vertex_index[corner]])
        assert np.isinf(row).sum() == network.num_vertices - 1
        assert np.array_equal(backend.matrix, _fresh(network))
        # the reads report the repair's new unreachable cells as inf
        others = sorted(set(network.vertices()) - {corner})
        assert np.isinf(backend.distances_many(corner, others)).all()
        assert backend.distance(others[0], corner) == np.inf
        # a partial reopening reconnects the corner through one street only
        _reopen(network, streets[0])
        backend.refresh(network)
        assert np.isfinite(table_seconds(backend.matrix)).all()
        assert np.array_equal(backend.matrix, _fresh(network))
        assert backend.full_rebuilds == 0

    def test_refresh_without_a_mutation_is_a_no_op(self):
        network = _NETWORKS["small-grid"]
        backend = APSPBackend(network, matrix=_PRISTINE["small-grid"].copy())
        backend.refresh(network)
        assert backend.stats()["repaired_cells"] == 0.0
        assert np.array_equal(backend.matrix, _PRISTINE["small-grid"])


class TestUncoveredDeltasTakeTheFullBuild:
    @pytest.fixture()
    def network(self):
        return grid_city(rows=5, columns=5, block_metres=200.0,
                         removed_block_fraction=0.0, seed=1)

    def _assert_full_rebuild(self, backend, network, rebuilds=1):
        assert backend.full_rebuilds == rebuilds
        assert backend.repairs == 0
        assert np.array_equal(backend.matrix, _fresh(network))
        assert backend.vertex_index is network.csr.position

    def test_vertex_added_between_refreshes(self, network):
        backend = APSPBackend(network)
        anchor = max(network.vertices())
        point = network.coordinates(anchor)
        network.add_vertex(anchor + 1, Point(point.x + 150.0, point.y))
        network.add_edge(anchor, anchor + 1)
        backend.refresh(network)
        assert backend.matrix.shape == (network.num_vertices,) * 2
        self._assert_full_rebuild(backend, network)

    def test_edge_readded_with_a_different_speed(self, network):
        backend = APSPBackend(network)
        edge = next(iter(network.edges()))
        network.remove_edge(edge.u, edge.v)
        network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed / 2.0)
        removed, added = diff_csr(backend._csr, network.csr)
        assert [pair[:2] for pair in removed] == [pair[:2] for pair in added]
        backend.refresh(network)
        self._assert_full_rebuild(backend, network)

    def test_a_zero_length_street_is_refused(self, network):
        # two vertices at the same coordinates: a 0 m street between them
        # would cost 0 ticks, outside the repair's fixpoint argument; the
        # network refuses it, and the table is repaired as before
        anchor = max(network.vertices())
        network.add_vertex(anchor + 1, network.coordinates(anchor))
        network.add_edge(anchor - 1, anchor + 1)
        backend = APSPBackend(network)
        with pytest.raises(RoadNetworkError, match=rf"edge \({anchor}, {anchor + 1}\)"):
            network.add_edge(anchor, anchor + 1)
        assert not network.has_edge(anchor, anchor + 1)
        edge = next(iter(network.edges()))
        network.remove_edge(edge.u, edge.v)
        backend.refresh(network)
        assert (backend.repairs, backend.full_rebuilds) == (1, 0)
        assert np.array_equal(backend.matrix, _fresh(network))

    def test_batch_mixing_a_closure_with_a_reopening(self, network):
        first, second = list(network.edges())[:2]
        network.remove_edge(first.u, first.v)
        backend = APSPBackend(network)
        network.remove_edge(second.u, second.v)
        _reopen(network, first)
        backend.refresh(network)
        self._assert_full_rebuild(backend, network)


class TestOracleAfterRepair:
    @pytest.fixture()
    def network(self):
        return grid_city(rows=6, columns=6, block_metres=200.0,
                         removed_block_fraction=0.0, seed=1)

    def test_handles_point_at_the_new_snapshot(self, network):
        oracle = DistanceOracle(network, backend="apsp")
        backend = oracle.backend
        vertices = sorted(network.vertices())
        u, v = vertices[0], vertices[1]
        assert oracle.path(u, v) == [u, v]
        oracle.distance(u, v)
        queries = oracle.counters.distance_queries
        network.remove_edge(u, v)
        oracle.refresh_topology()

        assert oracle.backend is backend  # repaired, not replaced
        assert oracle._csr is network.csr
        assert backend._csr is network.csr
        assert backend.vertex_index is network.csr.position
        assert len(oracle._path_cache) == 0
        # the path search reads the new adjacency: no hop over the closed
        # street, and the repaired table prices the detour it takes
        runs = oracle.counters.dijkstra_runs
        path = oracle.path(u, v)
        assert oracle.counters.dijkstra_runs == runs + 1
        assert len(path) > 2
        assert all(network.has_edge(a, b) for a, b in zip(path, path[1:]))
        assert sum(network.edge_cost(a, b) for a, b in zip(path, path[1:])) == pytest.approx(
            oracle.distance(u, v)
        )
        oracle.distance(u, v)
        assert oracle.counters.distance_queries > queries

    def test_stats_count_repairs_and_rebuilds(self, network):
        oracle = DistanceOracle(network, backend="apsp")
        cold = oracle.backend.stats()
        assert (cold["repairs"], cold["full_rebuilds"], cold["repaired_cells"]) == (0.0, 0.0, 0.0)
        edge = next(iter(network.edges()))
        network.remove_edge(edge.u, edge.v)
        oracle.refresh_topology()
        closed = oracle.backend.stats()
        assert closed["repairs"] == 1.0 and closed["full_rebuilds"] == 0.0
        assert closed["repaired_rows"] >= 2.0
        assert closed["repaired_cells"] >= closed["repaired_rows"]
        assert closed["repair_seconds"] > 0.0
        assert closed["build_seconds"] == cold["build_seconds"]
        anchor = max(network.vertices())
        point = network.coordinates(anchor)
        network.add_vertex(anchor + 1, Point(point.x + 100.0, point.y))
        oracle.refresh_topology()
        grown = oracle.backend.stats()
        assert grown["repairs"] == 1.0 and grown["full_rebuilds"] == 1.0
        assert grown["repair_seconds"] == closed["repair_seconds"]
        assert grown["build_seconds"] == cold["build_seconds"]

    def test_store_miss_repairs_then_persists(self, network, tmp_path):
        oracle = DistanceOracle(network, backend="apsp", artifact_dir=tmp_path)
        backend = oracle.backend
        edge = next(iter(network.edges()))
        network.remove_edge(edge.u, edge.v)
        oracle.refresh_topology()
        assert oracle.artifact_loaded is False
        assert oracle.backend is backend and backend.repairs == 1
        stored = ArtifactStore(tmp_path).load_backend("apsp", network)
        assert np.array_equal(stored.matrix, _fresh(network))

        # reopening finds the original topology's table under its own key ...
        _reopen(network, edge)
        oracle.refresh_topology()
        assert oracle.artifact_loaded is True
        assert np.array_equal(oracle.backend.matrix, _fresh(network))
        # ... and the loaded table is repaired in turn on the next closure
        other = list(network.edges())[5]
        network.remove_edge(other.u, other.v)
        oracle.refresh_topology()
        assert oracle.artifact_loaded is False
        assert oracle.backend.repairs == 1
        assert np.array_equal(oracle.backend.matrix, _fresh(network))

    def test_read_only_matrix_is_copied_before_the_first_repair(self, network):
        loaded = _fresh(network)
        loaded.setflags(write=False)
        snapshot = loaded.copy()
        backend = APSPBackend(network, matrix=loaded)
        edge = next(iter(network.edges()))
        network.remove_edge(edge.u, edge.v)
        backend.refresh(network)
        assert backend.repairs == 1
        assert backend.matrix is not loaded and backend.matrix.flags.writeable
        assert np.array_equal(loaded, snapshot)
        assert np.array_equal(backend.matrix, _fresh(network))
        repaired = backend.matrix
        _reopen(network, edge)
        backend.refresh(network)
        assert backend.matrix is repaired  # copied once, not per repair
