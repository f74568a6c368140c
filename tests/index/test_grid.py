"""Tests for the uniform grid index."""

import numpy as np
import pytest

from repro.index.grid import GridIndex, bulk_load
from repro.network.generators import grid_city
from repro.simulation.route_table import RouteTable
from tests.conftest import make_worker


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=6, columns=6, block_metres=250.0, removed_block_fraction=0.0, seed=1)


@pytest.fixture()
def index(network):
    return GridIndex(network, cell_metres=500.0)


class TestGeometry:
    def test_grid_covers_network(self, index, network):
        for vertex in network.vertices():
            cell = index.cell_of_vertex(vertex)
            assert 0 <= cell[0] < index.geometry.columns
            assert 0 <= cell[1] < index.geometry.rows

    def test_cell_centre_round_trip(self, index):
        cell = (1, 1)
        x, y = index.geometry.cell_centre(cell)
        assert index.geometry.cell_of_point(x, y) == cell

    def test_cell_span_includes_own_cell(self, index):
        first_column, last_column, first_row, last_row = index.geometry.cell_span(
            600.0, 600.0, 10.0
        )
        column, row = index.geometry.cell_of_point(600.0, 600.0)
        assert first_column <= column <= last_column and first_row <= row <= last_row

    def test_cell_span_is_clamped_to_the_grid(self, index):
        geometry = index.geometry
        assert geometry.cell_span(600.0, 600.0, 1e6) == (
            0, geometry.columns - 1, 0, geometry.rows - 1
        )

    def test_negative_radius_spans_nothing(self, index):
        first_column, last_column, first_row, last_row = index.geometry.cell_span(
            0.0, 0.0, -5.0
        )
        assert first_column > last_column and first_row > last_row

    def test_invalid_cell_size_rejected(self, network):
        with pytest.raises(ValueError):
            GridIndex(network, cell_metres=0.0)


class TestMembership:
    def test_insert_and_query(self, index):
        index.insert("w1", 0)
        assert "w1" in index.members_in_cell(index.cell_of_vertex(0))
        assert len(index) == 1

    def test_move_member(self, index, network):
        vertices = sorted(network.vertices())
        index.insert("w1", vertices[0])
        index.insert("w1", vertices[-1])
        assert "w1" not in index.members_in_cell(index.cell_of_vertex(vertices[0]))
        assert "w1" in index.members_in_cell(index.cell_of_vertex(vertices[-1]))
        assert len(index) == 1

    def test_remove_member(self, index):
        index.insert("w1", 0)
        index.remove("w1")
        assert len(index) == 0
        index.remove("w1")  # removing twice is a no-op

    def test_members_near_vertex_radius(self, index, network):
        vertices = sorted(network.vertices())
        table = RouteTable([make_worker(0, vertices[0]), make_worker(1, vertices[-1])], network)
        index.align_rows(table)
        index.insert(0, vertices[0])
        index.insert(1, vertices[-1])
        assert index.members_near_vertex(vertices[0], radius_metres=100.0).tolist() == [0]

    def test_members_near_vertex_large_radius_returns_all(self, index, network):
        vertices = sorted(network.vertices())
        table = RouteTable([make_worker(worker_id, 0) for worker_id in (3, 8, 9)], network)
        index.align_rows(table)
        index.insert(9, vertices[0])
        index.insert(3, vertices[-1])
        assert index.members_near_vertex(vertices[3], radius_metres=1e6).tolist() == [0, 2]

    def test_rows_follow_moves_removals_and_new_table_rows(self, index, network):
        vertices = sorted(network.vertices())
        near, far = vertices[0], vertices[-1]
        table = RouteTable([make_worker(worker_id, 0) for worker_id in (10, 20, 30)], network)
        index.align_rows(table)
        for worker_id in (10, 20, 30):
            index.insert(worker_id, near)
        assert index.members_near_vertex(near, 100.0).tolist() == [0, 1, 2]
        index.update(20, far)
        index.remove(30)
        assert index.members_near_vertex(near, 100.0).tolist() == [0]
        assert index.members_near_vertex(far, 100.0).tolist() == [1]
        table.add_row(make_worker(15, 0))  # shifts 20 and 30 one row down
        index.insert(15, near)
        assert index.members_near_vertex(near, 100.0).tolist() == [0, 1]
        assert index.members_near_vertex(far, 100.0).tolist() == [2]
        assert index.members_near_vertex(near, 1e6).tolist() == [0, 1, 2]
        assert isinstance(index.members_near_vertex(far, 1e6), np.ndarray)

    def test_bulk_load(self, index):
        bulk_load(index, [("a", 0), ("b", 1), ("c", 2)])
        assert len(index) == 3
        assert set(index.all_members()) == {"a", "b", "c"}


class TestStatistics:
    def test_memory_estimate_grows_with_members(self, index):
        empty_estimate = index.memory_estimate_bytes()
        for member in range(25):
            index.insert(member, member)
        assert index.memory_estimate_bytes() > empty_estimate

    def test_occupancy_histogram(self, index):
        index.insert("a", 0)
        index.insert("b", 0)
        index.insert("c", 35)
        histogram = index.occupancy_histogram()
        assert sum(count * size for size, count in histogram.items()) == 3
