"""Uniform grid index over road-network vertices and workers.

Every algorithm in the paper's evaluation builds a grid index over the city
(Table 5 sweeps the grid size ``g`` from 1 km to 5 km). The index maps each
vertex to a square cell of side ``g`` and records the cell of every worker;
candidate filtering retrieves the workers in all cells intersecting a query
disk (e.g. the region reachable before a pickup deadline).

A dispatcher's index answers in rows of the fleet's route table
(:meth:`GridIndex.align_rows`): each member's cell column and row sit in two
arrays aligned with the table's rows, so a query is four vector comparisons
against the disk's cell rectangle. The arrays are written where the member
dict is — the dispatchers' grid syncs, not the table's writer (``batch`` syncs
once per flush) — and re-derived when the table gains a row.

The index also reports an estimate of its memory footprint, which the paper
compares across algorithms in Figure 5's discussion.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterable

import numpy as np

from repro.network.graph import RoadNetwork, Vertex

if TYPE_CHECKING:  # the fleet's table; imported lazily to avoid a cycle
    from repro.simulation.route_table import RouteTable

Cell = tuple[int, int]
"""Grid cell identifier (column, row)."""


@dataclass(frozen=True)
class GridGeometry:
    """Geometry of a uniform grid covering a road network."""

    min_x: float
    min_y: float
    cell_metres: float
    columns: int
    rows: int

    def cell_of_point(self, x: float, y: float) -> Cell:
        """Cell containing the point ``(x, y)`` (clamped to the grid extent)."""
        column = int((x - self.min_x) // self.cell_metres)
        row = int((y - self.min_y) // self.cell_metres)
        column = min(max(column, 0), self.columns - 1)
        row = min(max(row, 0), self.rows - 1)
        return (column, row)

    def cell_centre(self, cell: Cell) -> tuple[float, float]:
        """Centre coordinates of ``cell`` in metres."""
        column, row = cell
        return (
            self.min_x + (column + 0.5) * self.cell_metres,
            self.min_y + (row + 0.5) * self.cell_metres,
        )

    def cell_span(self, x: float, y: float, radius_metres: float) -> tuple[int, int, int, int]:
        """The cells whose bounding box intersects the disk of the given radius,
        as the inclusive rectangle ``(first column, last column, first row,
        last row)`` clamped to the grid; empty (first > last) for a negative
        radius."""
        if radius_metres < 0:
            return (0, -1, 0, -1)
        cell = self.cell_metres
        return (
            max(int((x - radius_metres - self.min_x) // cell), 0),
            min(int((x + radius_metres - self.min_x) // cell), self.columns - 1),
            max(int((y - radius_metres - self.min_y) // cell), 0),
            min(int((y + radius_metres - self.min_y) // cell), self.rows - 1),
        )


class GridIndex:
    """Grid index of movable objects (workers) positioned at network vertices.

    Args:
        network: road network providing vertex coordinates.
        cell_metres: grid cell side length in metres (``g`` in the paper,
            expressed there in kilometres).
        vertex_cells: optional precomputed ``vertex -> cell`` mapping to share
            between indexes of the *same network and cell size* (the sharded
            dispatcher builds K grids over one geometry); when given, the
            per-vertex cell pass is skipped and the dict is used as-is.
    """

    def __init__(
        self,
        network: RoadNetwork,
        cell_metres: float,
        vertex_cells: dict[Vertex, Cell] | None = None,
    ) -> None:
        if cell_metres <= 0:
            raise ValueError(f"cell_metres must be positive, got {cell_metres}")
        self.network = network
        # one vectorized pass over the CSR coordinate arrays replaces the
        # per-vertex Point arithmetic of the seed implementation
        csr = network.csr
        if csr.num_vertices == 0:
            raise ValueError("bounding_box() requires at least one point")
        xs, ys = csr.xs, csr.ys
        min_x = float(xs.min())
        min_y = float(ys.min())
        max_x = float(xs.max())
        max_y = float(ys.max())
        columns = max(1, int(math.ceil((max_x - min_x) / cell_metres)) or 1)
        rows = max(1, int(math.ceil((max_y - min_y) / cell_metres)) or 1)
        self.geometry = GridGeometry(
            min_x=min_x, min_y=min_y, cell_metres=cell_metres, columns=columns, rows=rows
        )
        # cache vertex -> cell to avoid repeated float arithmetic; the
        # floor-divide/clip pipeline mirrors GridGeometry.cell_of_point
        if vertex_cells is not None:
            self._vertex_cell = vertex_cells
        else:
            cell_columns = np.clip((xs - min_x) // cell_metres, 0, columns - 1).astype(np.int64)
            cell_rows = np.clip((ys - min_y) // cell_metres, 0, rows - 1).astype(np.int64)
            self._vertex_cell: dict[Vertex, Cell] = {
                vertex: (column, row)
                for vertex, column, row in zip(
                    csr.vertex_ids_list, cell_columns.tolist(), cell_rows.tolist()
                )
            }
        self._locations: dict[Hashable, Cell] = {}
        #: the route table whose rows queries answer in (see ``align_rows``)
        self._table: "RouteTable | None" = None
        #: the ``table.ids`` array the two cell arrays are aligned with; a new
        #: table row replaces it, which is how a stale alignment shows
        self._aligned_ids: np.ndarray | None = None
        #: per table row: the member's cell column and row, -1 for non-members
        self._cell_column = np.empty(0, dtype=np.int64)
        self._cell_row = np.empty(0, dtype=np.int64)

    def align_rows(self, table: "RouteTable") -> None:
        """Answer :meth:`members_near_vertex` in rows of ``table``, the fleet's
        route table; members are then worker ids of that table."""
        self._table = table
        self._aligned_ids = None

    # -------------------------------------------------------------- mutation

    def insert(self, member: Hashable, vertex: Vertex) -> None:
        """Insert ``member`` (e.g. a worker id) at ``vertex`` (moves it if present)."""
        cell = self.cell_of_vertex(vertex)
        if self._locations.get(member) == cell:
            return
        self._locations[member] = cell
        if self._aligned():
            row = self._table.row_of(member)
            self._cell_column[row], self._cell_row[row] = cell

    def remove(self, member: Hashable) -> None:
        """Remove ``member`` from the index (no-op if absent)."""
        if self._locations.pop(member, None) is not None and self._aligned():
            row = self._table.row_of(member)
            self._cell_column[row] = self._cell_row[row] = -1

    def update(self, member: Hashable, vertex: Vertex) -> None:
        """Alias of :meth:`insert`; provided for readability at call sites."""
        self.insert(member, vertex)

    def _aligned(self) -> bool:
        """Whether the cell arrays match the table's current rows."""
        return self._table is not None and self._aligned_ids is self._table.ids

    def _align(self) -> None:
        """Re-derive the cell arrays from the member dict for the table's rows."""
        table = self._table
        column, row = np.full((2, len(table.ids)), -1, dtype=np.int64)
        if self._locations:
            rows = table.rows_of(list(self._locations))
            cells = np.array(list(self._locations.values()), dtype=np.int64)
            column[rows] = cells[:, 0]
            row[rows] = cells[:, 1]
        self._cell_column, self._cell_row = column, row
        self._aligned_ids = table.ids

    # ----------------------------------------------------------------- query

    @property
    def vertex_cells(self) -> dict[Vertex, Cell]:
        """The ``vertex -> cell`` mapping (shareable across same-geometry indexes)."""
        return self._vertex_cell

    def cell_of_vertex(self, vertex: Vertex) -> Cell:
        """Cell containing ``vertex``."""
        cell = self._vertex_cell.get(vertex)
        if cell is None:
            point = self.network.coordinates(vertex)
            cell = self.geometry.cell_of_point(point.x, point.y)
            self._vertex_cell[vertex] = cell
        return cell

    def members_in_cell(self, cell: Cell) -> set[Hashable]:
        """Members currently registered in ``cell``."""
        return {member for member, at in self._locations.items() if at == cell}

    def members_near_vertex(self, vertex: Vertex, radius_metres: float) -> np.ndarray:
        """Ascending table rows of the members in every cell intersecting the
        disk around ``vertex`` (the index must be :meth:`align_rows`-ed).

        The disk is in Euclidean metres, so with a radius derived from a time
        budget times the maximum speed the result is a superset of the members
        actually reachable within the budget — no candidate is lost.
        """
        if not self._aligned():
            self._align()
        point = self.network.coordinates(vertex)
        geometry = self.geometry
        span = geometry.cell_span(point.x, point.y, radius_metres)
        column, row = self._cell_column, self._cell_row
        if span == (0, geometry.columns - 1, 0, geometry.rows - 1):
            return np.flatnonzero(column >= 0)  # every cell (deadline radii often do)
        first_column, last_column, first_row, last_row = span
        # non-members hold -1, below every clamped first column and row
        return np.flatnonzero(
            (column >= first_column) & (column <= last_column)
            & (row >= first_row) & (row <= last_row)
        )

    def all_members(self) -> list[Hashable]:
        """Every member currently in the index."""
        return list(self._locations)

    def __len__(self) -> int:
        return len(self._locations)

    # ------------------------------------------------------------ statistics

    def memory_estimate_bytes(self) -> int:
        """Rough memory footprint of the index payload in bytes.

        Counts occupied cells and memberships with fixed per-entry costs, which
        is the comparison the paper makes (its other algorithms store "only the
        IDs of workers in the grid").
        """
        occupied_cells = len(set(self._locations.values()))
        memberships = len(self._locations)
        bytes_per_cell = 64
        bytes_per_membership = 8
        bytes_per_location = 16
        return (
            occupied_cells * bytes_per_cell
            + memberships * bytes_per_membership
            + len(self._locations) * bytes_per_location
        )

    def occupancy_histogram(self) -> dict[int, int]:
        """Histogram ``members_per_cell -> number_of_cells`` over occupied cells."""
        return dict(Counter(Counter(self._locations.values()).values()))


def bulk_load(index: GridIndex, positions: Iterable[tuple[Hashable, Vertex]]) -> None:
    """Insert many ``(member, vertex)`` pairs into ``index``."""
    for member, vertex in positions:
        index.insert(member, vertex)
