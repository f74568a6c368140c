"""Tests for the synthetic road-network generators."""

import pytest

from repro.network.generators import (
    cycle_network,
    grid_city,
    random_geometric_city,
    ring_radial_city,
)
from repro.network.graph import connected_components
from tests.network.reference import shortest_distance


class TestGridCity:
    def test_size_without_removals(self):
        network = grid_city(rows=5, columns=6, removed_block_fraction=0.0, seed=1)
        assert network.num_vertices == 30
        # 5*(6-1) horizontal + 6*(5-1) vertical edges
        assert network.num_edges == 49

    def test_is_connected(self):
        network = grid_city(rows=10, columns=10, removed_block_fraction=0.1, seed=2)
        assert connected_components(network).count == 1

    def test_deterministic_for_same_seed(self):
        first = grid_city(rows=6, columns=6, seed=4)
        second = grid_city(rows=6, columns=6, seed=4)
        assert first.num_vertices == second.num_vertices
        assert first.num_edges == second.num_edges

    def test_edge_length_not_below_euclidean(self):
        network = grid_city(rows=5, columns=5, seed=3)
        for edge in network.edges():
            assert edge.length >= network.euclidean(edge.u, edge.v) - 1e-6

    def test_contains_arterials_and_residentials(self):
        network = grid_city(rows=8, columns=8, removed_block_fraction=0.0, seed=1)
        classes = {edge.road_class for edge in network.edges()}
        assert {"arterial", "residential"} <= classes

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_city(rows=1, columns=5)


class TestRingRadialCity:
    def test_vertex_count(self):
        network = ring_radial_city(rings=4, radials=8)
        assert network.num_vertices == 1 + 4 * 8

    def test_is_connected(self):
        network = ring_radial_city(rings=5, radials=12)
        assert connected_components(network).count == 1

    def test_centre_reaches_outer_ring(self):
        network = ring_radial_city(rings=3, radials=6, ring_spacing_metres=500.0)
        outer_vertex = 1 + 2 * 6  # first vertex of the outermost ring
        assert shortest_distance(network, 0, outer_vertex) > 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ring_radial_city(rings=0, radials=8)
        with pytest.raises(ValueError):
            ring_radial_city(rings=2, radials=2)


class TestRandomGeometricCity:
    def test_is_connected_component(self):
        network = random_geometric_city(num_vertices=80, seed=5)
        assert connected_components(network).count == 1

    def test_lengths_respect_euclidean(self):
        network = random_geometric_city(num_vertices=50, seed=6)
        for edge in network.edges():
            assert edge.length >= network.euclidean(edge.u, edge.v) - 1e-6

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            random_geometric_city(num_vertices=1)


class TestCycleNetwork:
    def test_cycle_shape(self):
        network = cycle_network(10, edge_metres=100.0, speed=10.0)
        assert network.num_vertices == 10
        assert network.num_edges == 10
        for vertex in network.vertices():
            assert network.degree(vertex) == 2

    def test_antipodal_distance_is_half_cycle(self):
        network = cycle_network(12, edge_metres=100.0, speed=10.0)
        assert shortest_distance(network, 0, 6) == pytest.approx(60.0)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            cycle_network(2)
