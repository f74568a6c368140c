"""Unit tests of the contraction hierarchy itself, including a property-based
comparison against Dijkstra ground truth.

The hierarchy is the oracle's index for city-scale networks, so the checks
here cover its construction invariants (a rank permutation, upward edges that
lead up and never undercut a shortest path, a deterministic build, a
conservative witness budget) as well as its answers.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.network.ch import build_contraction_hierarchy
from repro.network.generators import grid_city, random_geometric_city
from repro.utils.geometry import Point
from tests.conftest import build_line_network
from tests.network.reference import single_source_distances

_CITY = grid_city(rows=6, columns=6, block_metres=150.0, removed_block_fraction=0.05, seed=9)
_HIERARCHY = build_contraction_hierarchy(_CITY)
_POSITION = _CITY.csr.position
_VERTICES = sorted(_CITY.vertices())
_TRUTH = {vertex: single_source_distances(_CITY, vertex) for vertex in _VERTICES}


def _query(hierarchy, network, u, v):
    position = network.csr.position
    return hierarchy.query_positions(position[u], position[v])


def _upward_edges(hierarchy):
    for v in range(hierarchy.num_vertices):
        for slot in range(hierarchy.up_indptr[v], hierarchy.up_indptr[v + 1]):
            yield v, hierarchy.up_indices[slot], hierarchy.up_costs[slot]


class TestContractionHierarchy:
    def test_query_matches_dijkstra_on_line(self):
        network = build_line_network(8)
        hierarchy = build_contraction_hierarchy(network)
        truth = single_source_distances(network, 0)
        for target, expected in truth.items():
            assert _query(hierarchy, network, 0, target) == expected

    def test_query_same_vertex_is_zero(self):
        assert _query(_HIERARCHY, _CITY, _VERTICES[0], _VERTICES[0]) == 0.0

    def test_disconnected_vertices_report_infinity(self):
        network = build_line_network(3)
        network.add_vertex(99, Point(10_000.0, 0.0))
        hierarchy = build_contraction_hierarchy(network)
        assert _query(hierarchy, network, 0, 99) == math.inf
        assert _query(hierarchy, network, 99, 2) == math.inf

    def test_stats_are_reported(self):
        hierarchy = build_contraction_hierarchy(_CITY)
        stats = hierarchy.stats()
        assert stats["vertices"] == float(_CITY.num_vertices)
        assert stats["shortcuts"] == float(hierarchy.num_shortcuts)
        assert stats["upward_edges"] == float(len(hierarchy.up_indices))
        assert stats["searches"] == 0.0 and stats["settled_vertices"] == 0.0
        _query(hierarchy, _CITY, _VERTICES[0], _VERTICES[-1])
        after = hierarchy.stats()
        assert after["searches"] == 2.0
        assert after["settled_vertices"] >= 2.0

    def test_rank_is_a_permutation(self):
        assert sorted(_HIERARCHY.rank) == list(range(_HIERARCHY.num_vertices))

    def test_upward_edges_lead_to_higher_rank(self):
        rank = _HIERARCHY.rank
        for v, w, _ in _upward_edges(_HIERARCHY):
            assert rank[w] > rank[v]

    def test_upward_edges_never_undercut_shortest_paths(self):
        # an original edge or a shortcut both stand for a real path, so no
        # upward edge may be shorter than the shortest path it spans
        vertex_ids = _CITY.csr.vertex_ids_list
        for v, w, cost in _upward_edges(_HIERARCHY):
            truth = _TRUTH[vertex_ids[v]][vertex_ids[w]]
            assert cost >= truth - 1e-9 * max(1.0, truth)

    def test_search_space_is_settled_in_order_from_its_source(self):
        for vertex in _VERTICES[::5]:
            nodes, dists = _HIERARCHY.search_space(_POSITION[vertex])
            assert nodes[0] == _POSITION[vertex] and dists[0] == 0.0
            assert list(dists) == sorted(dists)
            assert len(set(nodes.tolist())) == len(nodes)

    def test_build_is_deterministic(self):
        again = build_contraction_hierarchy(_CITY)
        assert again.rank == _HIERARCHY.rank
        assert again.up_indptr == _HIERARCHY.up_indptr
        assert again.up_indices == _HIERARCHY.up_indices
        assert again.up_costs == _HIERARCHY.up_costs
        assert again.num_shortcuts == _HIERARCHY.num_shortcuts

    def test_exhausted_witness_budget_adds_shortcuts_but_stays_exact(self):
        tight = build_contraction_hierarchy(_CITY, witness_settle_budget=1)
        assert tight.num_shortcuts >= _HIERARCHY.num_shortcuts
        for u in _VERTICES[::4]:
            for v in _VERTICES[::5]:
                assert _query(tight, _CITY, u, v) == _TRUTH[u].get(v, math.inf)

    def test_bounded_search_space_memo_keeps_answers(self):
        hierarchy = build_contraction_hierarchy(_CITY)
        hierarchy._search_space_cache_capacity = 3
        source = _POSITION[_VERTICES[0]]
        targets = [_POSITION[v] for v in _VERTICES[::2]]
        first = hierarchy.distances_many_positions(source, targets).tolist()
        assert len(hierarchy._search_space_cache) <= 3
        assert hierarchy.distances_many_positions(source, targets).tolist() == first

    @given(
        st.integers(min_value=0, max_value=len(_VERTICES) - 1),
        st.integers(min_value=0, max_value=len(_VERTICES) - 1),
    )
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_property_query_equals_dijkstra(self, index_u, index_v):
        u, v = _VERTICES[index_u], _VERTICES[index_v]
        expected = _TRUTH[u].get(v, math.inf)
        assert _query(_HIERARCHY, _CITY, u, v) == expected

    def test_works_on_irregular_topology(self):
        network = random_geometric_city(num_vertices=60, seed=21)
        hierarchy = build_contraction_hierarchy(network)
        vertices = sorted(network.vertices())
        truth = single_source_distances(network, vertices[0])
        for target in vertices[::7]:
            assert _query(hierarchy, network, vertices[0], target) == truth.get(target, math.inf)
