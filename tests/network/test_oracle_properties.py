"""Property-based invariants of the distance oracle.

The insertion machinery relies on three metric facts: symmetry, the triangle
inequality (route legs never undercut shortest paths) and admissibility of the
Euclidean lower bound. These hold for every backend (Dijkstra, contraction
hierarchy, dense APSP) because they all answer exactly; the properties are
checked on the APSP oracle and cross-checked, with ``==``, against the plain
Dijkstra oracle and the contraction hierarchy.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.generators import random_geometric_city
from repro.network.oracle import DistanceOracle

_NETWORK = random_geometric_city(num_vertices=90, seed=31)
_VERTICES = sorted(_NETWORK.vertices())
_APSP = DistanceOracle(_NETWORK, backend="apsp")
_CH = DistanceOracle(_NETWORK, backend="ch")
_PLAIN = DistanceOracle(_NETWORK)

vertex_indices = st.integers(min_value=0, max_value=len(_VERTICES) - 1)

_SETTINGS = settings(max_examples=100, deadline=None)


class TestOracleProperties:
    @given(vertex_indices, vertex_indices)
    @_SETTINGS
    def test_symmetry(self, i, j):
        u, v = _VERTICES[i], _VERTICES[j]
        assert _APSP.distance(u, v) == _APSP.distance(v, u)

    @given(vertex_indices, vertex_indices, vertex_indices)
    @_SETTINGS
    def test_triangle_inequality(self, i, j, k):
        a, b, c = _VERTICES[i], _VERTICES[j], _VERTICES[k]
        assert _APSP.distance(a, c) <= _APSP.distance(a, b) + _APSP.distance(b, c) + 1e-6

    @given(vertex_indices, vertex_indices)
    @_SETTINGS
    def test_lower_bound_is_admissible(self, i, j):
        u, v = _VERTICES[i], _VERTICES[j]
        assert _APSP.lower_bound(u, v) <= _APSP.distance(u, v) + 1e-6

    @given(vertex_indices, vertex_indices)
    @_SETTINGS
    def test_accelerators_agree_with_dijkstra(self, i, j):
        u, v = _VERTICES[i], _VERTICES[j]
        assert _APSP.distance(u, v) == _PLAIN.distance(u, v)

    @given(vertex_indices, vertex_indices)
    @_SETTINGS
    def test_contraction_hierarchy_agrees_with_apsp(self, i, j):
        u, v = _VERTICES[i], _VERTICES[j]
        assert _CH.distance(u, v) == _APSP.distance(u, v)

    @given(vertex_indices, vertex_indices)
    @_SETTINGS
    def test_contraction_hierarchy_symmetry(self, i, j):
        u, v = _VERTICES[i], _VERTICES[j]
        assert _CH.distance(u, v) == _CH.distance(v, u)

    @given(vertex_indices)
    @_SETTINGS
    def test_identity(self, i):
        u = _VERTICES[i]
        assert _APSP.distance(u, u) == 0.0
        assert _APSP.lower_bound(u, u) == 0.0

    @given(vertex_indices, vertex_indices)
    @_SETTINGS
    def test_path_cost_matches_distance(self, i, j):
        u, v = _VERTICES[i], _VERTICES[j]
        path = _APSP.path(u, v)
        total = sum(_NETWORK.edge_cost(a, b) for a, b in zip(path, path[1:]))
        assert total == _APSP.distance(u, v)
