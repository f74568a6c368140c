"""CSR adjacency structure and CSR-vs-dict shortest-path equivalence.

The CSR rewrite must be *exactly* equivalent to the seed's dict-of-dict
search: the property tests assert equality (``==`` on floats, not approx)
between :func:`~repro.network.shortest_path.dijkstra` (CSR) and
:func:`~repro.network.shortest_path.dijkstra_reference` (the seed code) on
random generator networks.
"""

import numpy as np
import pytest

from repro.exceptions import RoadNetworkError
from repro.network.generators import grid_city, random_geometric_city, ring_radial_city
from repro.network.graph import RoadNetwork
from repro.network.shortest_path import bidirectional_dijkstra
from repro.utils.geometry import Point
from tests.network.reference import (
    bidirectional_dijkstra_reference,
    dijkstra,
    dijkstra_reference,
    path_cost,
)
from tests.network.test_apsp_build import dijkstra_row


def _networks():
    yield grid_city(rows=6, columns=7, block_metres=220.0, seed=11)
    yield ring_radial_city(rings=4, radials=9, ring_spacing_metres=500.0, seed=3)
    for seed in (1, 7, 42):
        yield random_geometric_city(num_vertices=120, seed=seed)


NETWORKS = list(_networks())
NETWORK_IDS = [f"{network.name}-{index}" for index, network in enumerate(NETWORKS)]


class TestCSRStructure:
    @pytest.mark.parametrize("network", NETWORKS, ids=NETWORK_IDS)
    def test_csr_mirrors_adjacency(self, network):
        csr = network.csr
        assert csr.num_vertices == network.num_vertices
        assert csr.indptr[-1] == len(csr.indices) == 2 * network.num_edges
        for position, vertex in enumerate(csr.vertex_ids_list):
            neighbours = {
                csr.vertex_ids_list[csr.indices_list[slot]]: csr.costs_list[slot]
                for slot in range(csr.indptr_list[position], csr.indptr_list[position + 1])
            }
            assert neighbours == network.neighbours(vertex)

    def test_csr_invalidated_on_mutation(self):
        network = RoadNetwork()
        network.add_vertex(0, Point(0, 0))
        network.add_vertex(1, Point(100, 0))
        network.add_edge(0, 1)
        first = network.csr
        assert first is network.csr  # cached while unchanged
        network.add_vertex(2, Point(200, 0))
        network.add_edge(1, 2)
        rebuilt = network.csr
        assert rebuilt is not first
        assert rebuilt.num_vertices == 3

    def test_positions_of_rejects_unknown_vertices(self):
        network = grid_city(rows=3, columns=3, block_metres=100.0, seed=0)
        csr = network.csr
        known = list(network.vertices())[:3]
        assert list(csr.positions_of(known)) == [csr.position[v] for v in known]
        with pytest.raises(RoadNetworkError):
            csr.positions_of([known[0], 10_000_000])


class TestDijkstraEquivalence:
    @pytest.mark.parametrize("network", NETWORKS, ids=NETWORK_IDS)
    def test_full_search_equals_reference(self, network):
        for source in sorted(network.vertices())[::17]:
            assert dijkstra(network, source) == dijkstra_reference(network, source)

    @pytest.mark.parametrize("network", NETWORKS, ids=NETWORK_IDS)
    def test_bounded_search_equals_reference(self, network):
        source = sorted(network.vertices())[0]
        full = dijkstra_reference(network, source)
        bound = float(np.median(list(full.values())))
        assert dijkstra(network, source, max_cost=bound) == dijkstra_reference(
            network, source, max_cost=bound
        )

    @pytest.mark.parametrize("network", NETWORKS, ids=NETWORK_IDS)
    def test_targeted_search_equals_reference(self, network):
        vertices = sorted(network.vertices())
        source, targets = vertices[0], set(vertices[-4:])
        csr_result = dijkstra(network, source, targets=targets)
        reference = dijkstra_reference(network, source, targets=targets)
        for target in targets:
            assert csr_result[target] == reference[target]

    @pytest.mark.parametrize("network", NETWORKS, ids=NETWORK_IDS)
    def test_array_variant_matches_dict(self, network):
        source = sorted(network.vertices())[1]
        array = dijkstra_row(network, source)
        expected = dijkstra_reference(network, source)
        csr = network.csr
        for vertex, distance in expected.items():
            assert array[csr.position[vertex]] == distance


class TestBidirectionalEquivalence:
    @pytest.mark.parametrize("network", NETWORKS, ids=NETWORK_IDS)
    def test_cost_matches_reference(self, network):
        vertices = sorted(network.vertices())
        pairs = list(zip(vertices[::13], reversed(vertices[::11])))[:8]
        for u, v in pairs:
            cost, path = bidirectional_dijkstra(network, u, v)
            reference_cost, _ = bidirectional_dijkstra_reference(network, u, v)
            assert cost == reference_cost
            assert path[0] == u and path[-1] == v
            assert path_cost(network, path) == pytest.approx(cost)
