"""T-share style grid index with per-cell sorted neighbour lists.

The ``tshare`` baseline (Ma et al., ICDE 2013) augments the uniform grid with,
for every cell, a list of all other cells sorted by the travel time between
cell centres. A new request searches outward from its origin cell in that
pre-sorted order and stops as soon as cells can no longer be reached before the
pickup deadline — a *single-side* search that is fast but may discard workers
that could still have served the request (the paper highlights exactly this
failure mode: tshare has the lowest served rate).

Storing the full sorted lists is also what makes tshare's grid index an order
of magnitude more memory hungry than the plain :class:`~repro.index.grid.GridIndex`
(Figure 5 discussion), which :meth:`TShareGridIndex.memory_estimate_bytes`
reflects.

Unlike the plain index it keeps a set of members per cell: the cell walk's
order over those sets is where ``tshare``'s ties between candidates break.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Hashable

from repro.index.grid import Cell, GridIndex
from repro.network.graph import RoadNetwork, Vertex


@dataclass(frozen=True)
class CellDistance:
    """A destination cell and the estimated travel time to reach it."""

    cell: Cell
    travel_seconds: float


class TShareGridIndex(GridIndex):
    """Grid index with pre-sorted cell-to-cell travel-time lists.

    Args:
        network: road network.
        cell_metres: grid cell side length in metres.
        average_speed: speed (m/s) used to convert centre-to-centre Euclidean
            distances into travel-time estimates for the sorted lists. T-share
            pre-computes these estimates offline; a constant average speed is
            the standard approximation.
    """

    def __init__(
        self, network: RoadNetwork, cell_metres: float, average_speed: float = 10.0
    ) -> None:
        super().__init__(network, cell_metres)
        if average_speed <= 0:
            raise ValueError(f"average_speed must be positive, got {average_speed}")
        self.average_speed = average_speed
        self._members: dict[Cell, set[Hashable]] = defaultdict(set)
        self._sorted_cells: dict[Cell, list[CellDistance]] = {}
        self._build_sorted_lists()

    def _build_sorted_lists(self) -> None:
        geometry = self.geometry
        cells = [
            (column, row)
            for column in range(geometry.columns)
            for row in range(geometry.rows)
        ]
        centres = {cell: geometry.cell_centre(cell) for cell in cells}
        for origin in cells:
            ox, oy = centres[origin]
            entries = []
            for destination in cells:
                dx, dy = centres[destination]
                distance_metres = math.hypot(ox - dx, oy - dy)
                entries.append(
                    CellDistance(cell=destination, travel_seconds=distance_metres / self.average_speed)
                )
            entries.sort(key=lambda entry: entry.travel_seconds)
            self._sorted_cells[origin] = entries

    # -------------------------------------------------------------- mutation

    def insert(self, member: Hashable, vertex: Vertex) -> None:
        previous = self._locations.get(member)
        super().insert(member, vertex)
        cell = self._locations[member]
        if cell != previous:
            if previous is not None:
                self._members[previous].discard(member)
            self._members[cell].add(member)

    def remove(self, member: Hashable) -> None:
        cell = self._locations.get(member)
        super().remove(member)
        if cell is not None:
            self._members[cell].discard(member)

    # ----------------------------------------------------------------- query

    def cells_reachable_within(self, origin_vertex: Vertex, budget_seconds: float) -> list[Cell]:
        """Cells whose centre is estimated reachable within ``budget_seconds``.

        This is T-share's single-side temporal search: it walks the origin
        cell's pre-sorted list and stops at the first cell beyond the budget.
        """
        origin_cell = self.cell_of_vertex(origin_vertex)
        reachable: list[Cell] = []
        for entry in self._sorted_cells.get(origin_cell, ()):
            if entry.travel_seconds > budget_seconds:
                break
            reachable.append(entry.cell)
        return reachable

    def candidate_workers(self, origin_vertex: Vertex, budget_seconds: float) -> list:
        """Workers located in the cells reachable within ``budget_seconds``."""
        candidates: list = []
        for cell in self.cells_reachable_within(origin_vertex, budget_seconds):
            candidates.extend(self._members.get(cell, ()))
        return candidates

    # ------------------------------------------------------------ statistics

    def memory_estimate_bytes(self) -> int:
        """Memory footprint including the per-cell sorted lists."""
        base = super().memory_estimate_bytes()
        bytes_per_list_entry = 24  # cell id pair + float
        sorted_entries = sum(len(entries) for entries in self._sorted_cells.values())
        return base + sorted_entries * bytes_per_list_entry
