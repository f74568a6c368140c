"""The contraction hierarchy answers through one bucket row it owns.

A query scatters the source's upward search space into the hierarchy's
all-``inf`` bucket row, gathers each target's search space from it, and
resets the entries it wrote. The reference here is the allocate-per-query
form: a fresh ``inf`` row per source, scattered and gathered the same way.
Answers must agree bit for bit, the row must be all ``inf`` after every call,
the settled counters must not move, and neither a pickle (a shard init) nor
an artifact round trip may carry the row.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.artifacts import ArtifactStore, network_content_hash
from repro.cluster.messages import ShardInit
from repro.dispatch import DispatcherConfig
from repro.network.backends import CHBackend
from repro.network.ch import ContractionHierarchy, build_contraction_hierarchy
from repro.network.generators import grid_city
from repro.network.oracle import OracleCounters
from repro.sharding.partitioner import SpatialPartitioner
from repro.workloads.scenarios import ScenarioConfig, build_instance


class DenseRowHierarchy(ContractionHierarchy):
    """Answers with a freshly allocated ``inf`` row per source."""

    def _dense(self, source: int) -> np.ndarray:
        nodes, dists = self.search_space(source)
        dense = np.full(self.num_vertices, np.inf)
        dense[nodes] = dists
        return dense

    def query_positions(self, source, target):
        if source == target:
            return 0.0
        dense = self._dense(source)
        nodes, dists = self.search_space(target)
        return float(np.min(dense[nodes] + dists))

    def distances_many_positions(self, source, targets):
        dense = self._dense(source)
        result = []
        for target in np.asarray(targets, dtype=np.int64).tolist():
            nodes, dists = self.search_space(target)
            result.append(0.0 if target == source else float(np.min(dense[nodes] + dists)))
        return np.asarray(result, dtype=np.float64)


class _Host:
    """The slice of an oracle a CH backend reports to."""

    def __init__(self) -> None:
        self.counters = OracleCounters()


@pytest.fixture(scope="module")
def city():
    return grid_city(rows=7, columns=7, block_metres=200.0, removed_block_fraction=0.08, seed=12)


def _twin(hierarchy: ContractionHierarchy) -> DenseRowHierarchy:
    return DenseRowHierarchy(
        hierarchy.num_vertices, hierarchy.rank, hierarchy.up_indptr, hierarchy.up_indices,
        hierarchy.up_costs, hierarchy.num_shortcuts, hierarchy.build_seconds,
    )


def _bits(values) -> list[str]:
    return [float(value).hex() for value in np.atleast_1d(values)]


def _clean(hierarchy: ContractionHierarchy) -> bool:
    bucket = hierarchy._bucket
    return bucket.shape == (hierarchy.num_vertices,) and bool(np.all(bucket == np.inf))


class TestBucketRow:
    def test_every_pair_matches_the_dense_row_reference_bitwise(self, city):
        hierarchy = build_contraction_hierarchy(city)
        reference = _twin(hierarchy)
        positions = list(range(hierarchy.num_vertices))
        for source in positions:
            for target in positions:
                got = hierarchy.query_positions(source, target)
                assert _clean(hierarchy)
                assert _bits(got) == _bits(reference.query_positions(source, target))
            got = hierarchy.distances_many_positions(source, positions)
            assert _clean(hierarchy)
            assert _bits(got) == _bits(reference.distances_many_positions(source, positions))
        assert hierarchy.searches == reference.searches
        assert hierarchy.settled == reference.settled

    def test_backend_answers_and_settled_counters_are_unchanged(self, city):
        hierarchy = build_contraction_hierarchy(city)
        live = CHBackend(city, _Host(), hierarchy=hierarchy)
        reference = CHBackend(city, _Host(), hierarchy=_twin(hierarchy))
        vertices = sorted(city.vertices())
        rng = np.random.default_rng(3)
        for _ in range(60):
            u, v, w = (vertices[i] for i in rng.integers(0, len(vertices), size=3))
            targets = [vertices[i] for i in rng.integers(0, len(vertices), size=5)]
            got, expected = (
                [
                    _bits(backend.distance(u, v)),
                    _bits(backend.distances_many(w, targets)),
                    _bits(backend.distance_pairs(targets, targets[::-1])),
                    *map(_bits, backend.endpoint_distances(targets, u, v)),
                ]
                for backend in (live, reference)
            )
            assert got == expected
            assert _clean(hierarchy)
        assert live._host.counters.backend_settled == reference._host.counters.backend_settled
        assert live._host.counters.backend_settled["ch"] > 0

    def test_a_pickle_carries_no_bucket_state(self, city):
        hierarchy = build_contraction_hierarchy(city)
        hierarchy._bucket[:5] = 1.0  # as if a query were in flight
        assert "_bucket" not in hierarchy.__getstate__()
        copy = pickle.loads(pickle.dumps(hierarchy))
        assert _clean(copy) and copy._bucket is not hierarchy._bucket
        assert copy.query_positions(0, 9) == _twin(hierarchy).query_positions(0, 9)

    def test_a_pickled_shard_init_carries_no_bucket_state(self):
        scenario = ScenarioConfig(city="small-grid", num_workers=4, num_requests=4, seed=5,
                                  oracle_backend="ch")
        instance = build_instance(scenario)
        instance.oracle.backend.hierarchy._bucket[:] = 0.0
        init = pickle.loads(pickle.dumps(ShardInit(
            shard_id=0, inner="pruneGreedyDP",
            config=DispatcherConfig(grid_cell_metres=scenario.grid_km * 1000.0),
            partition=SpatialPartitioner(1, "grid").partition(instance.network),
            instance=instance, membership={worker.id: 0 for worker in instance.workers},
            seed=scenario.seed,
        )))
        assert _clean(init.instance.oracle.backend.hierarchy)

    def test_an_artifact_round_trip_carries_no_bucket_state(self, city, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        content_hash = network_content_hash(city)
        built, loaded = store.load_or_build("ch", city, content_hash=content_hash)
        assert not loaded
        built.hierarchy._bucket[:] = 0.0
        warm, loaded = store.load_or_build("ch", city, content_hash=content_hash)
        assert loaded and _clean(warm.hierarchy)
        assert warm.hierarchy._bucket is not built.hierarchy._bucket
