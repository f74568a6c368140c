"""Backend property tests on city-scale networks (metro-grid + riverton).

The unit suites cover the backends on toy generator cities whose edge costs
happen to be exactly representable. These tests run the same properties on
two city-scale networks — the 3.6k-vertex synthetic ``metro-grid`` (where
the ``"auto"`` policy picks the contraction hierarchy) and the ingested
real-map ``riverton`` fixture, whose projected edge costs have full
floating-point mantissas:

* the contraction hierarchy equals the Dijkstra reference bit for bit —
  the projected lengths have full mantissas, but every edge cost is rounded
  onto the time grid, so different summation orders give the same float;
* loading a backend from the artifact store is **bitwise** identical to the
  fresh build it was saved from — same algorithm, same arrays, so exact
  equality is required, per backend;
* structural properties (symmetry, identity, admissible Euclidean lower
  bounds, the triangle inequality) hold on the real map.
"""

import numpy as np
import pytest

from repro.artifacts import ArtifactStore
from repro.network.backends import APSP_VERTEX_LIMIT
from repro.network.oracle import DistanceOracle
from repro.workloads.scenarios import ScenarioConfig, build_network
from tests.network.reference import dijkstra_reference

@pytest.fixture(scope="module")
def metro():
    return build_network(ScenarioConfig(city="metro-grid"))


@pytest.fixture(scope="module")
def riverton():
    return build_network(ScenarioConfig(city="riverton"))


@pytest.fixture(scope="module")
def ch_oracles(metro, riverton):
    return {
        "metro-grid": DistanceOracle(metro, backend="ch"),
        "riverton": DistanceOracle(riverton, backend="ch"),
    }


def sample_pairs(network, count, seed=2018):
    rng = np.random.default_rng(seed)
    vertices = sorted(network.vertices())
    n = len(vertices)
    return [
        (vertices[int(i)], vertices[int(j)])
        for i, j in zip(rng.integers(0, n, count), rng.integers(0, n, count))
    ]


class TestCHProperties:
    @pytest.mark.parametrize("city", ["metro-grid", "riverton"])
    def test_matches_dijkstra_reference(self, ch_oracles, metro, riverton, city):
        network = metro if city == "metro-grid" else riverton
        oracle = ch_oracles[city]
        for u, v in sample_pairs(network, 40):
            expected = dijkstra_reference(network, u, [v])[v]
            assert oracle.distance(u, v) == expected

    @pytest.mark.parametrize("city", ["metro-grid", "riverton"])
    def test_symmetric_and_zero_on_identity(self, ch_oracles, metro, riverton, city):
        network = metro if city == "metro-grid" else riverton
        backend = ch_oracles[city].backend
        for u, v in sample_pairs(network, 60):
            # both endpoints search the same upward graph and the query takes
            # the minimum of the same meeting sums, so symmetry holds exactly
            assert backend.distance(u, v) == backend.distance(v, u)
            assert backend.distance(u, u) == 0.0

    def test_riverton_lower_bound_admissible(self, ch_oracles, riverton):
        oracle = ch_oracles["riverton"]
        max_speed = max(edge.speed for edge in riverton.edges())
        for u, v in sample_pairs(riverton, 60):
            seconds = oracle.distance(u, v)
            assert seconds * max_speed >= riverton.euclidean(u, v) - 1e-6

    def test_riverton_triangle_inequality(self, ch_oracles, riverton):
        backend = ch_oracles["riverton"].backend
        rng = np.random.default_rng(7)
        vertices = sorted(riverton.vertices())
        for _ in range(40):
            u, v, w = (vertices[int(i)] for i in rng.integers(0, len(vertices), 3))
            assert backend.distance(u, w) <= (
                backend.distance(u, v) + backend.distance(v, w) + 1e-9
            )


def persistable_backends(network):
    names = ["ch"]
    if network.num_vertices <= APSP_VERTEX_LIMIT:
        names.insert(0, "apsp")
    return names


class TestArtifactRoundTripBitwise:
    """Fresh build vs load-from-artifact: exact equality, per backend."""

    @pytest.mark.parametrize("city", ["metro-grid", "riverton"])
    def test_loaded_equals_fresh(self, tmp_path, metro, riverton, city, ch_oracles):
        network = metro if city == "metro-grid" else riverton
        store = ArtifactStore(tmp_path / "store")
        pairs = sample_pairs(network, 120)
        us, vs = [u for u, _ in pairs], [v for _, v in pairs]
        for name in persistable_backends(network):
            if name == "ch":  # reuse the module-scoped build
                fresh = ch_oracles[city]
            else:
                fresh = DistanceOracle(network, backend=name)
            store.save_backend(network, fresh.backend)
            warm = DistanceOracle(network, backend=name, artifact_dir=store.root)
            assert warm.artifact_loaded, name
            assert np.array_equal(
                fresh.distance_pairs(us, vs), warm.distance_pairs(us, vs)
            ), name
            self.assert_state_bitwise_equal(fresh.backend, warm.backend, name)

    @staticmethod
    def assert_state_bitwise_equal(fresh, warm, name):
        if name == "apsp":
            assert np.array_equal(fresh.matrix, warm.matrix)
        else:
            assert fresh.hierarchy.rank == warm.hierarchy.rank
            assert fresh.hierarchy.up_indptr == warm.hierarchy.up_indptr
            assert fresh.hierarchy.up_indices == warm.hierarchy.up_indices
            assert fresh.hierarchy.up_costs == warm.hierarchy.up_costs
            assert fresh.hierarchy.num_shortcuts == warm.hierarchy.num_shortcuts
