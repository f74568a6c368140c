"""The fleet's route table: every worker's plan as one struct of arrays.

:class:`RouteTable` is a :class:`~repro.core.route.RouteBlock` with one row
per worker of a :class:`~repro.simulation.fleet.FleetState` (rows ordered by
worker id), extended by the columns the decision phase filters on:

* ``ids`` — the worker id of each row (ascending, so a candidate-id array
  maps to rows with one ``searchsorted``);
* ``online`` — the shift flag;
* ``first_edge_cost`` — with ``arr[0]`` and ``arr[1]`` the *no-op
  window* of the worker: the cost of the first edge of the recorded
  ``concrete_path`` towards the next stop, ``-inf`` while no such path is
  recorded. :meth:`RouteTable.due` evaluates from these three numbers, in the
  float expressions of :meth:`WorkerState.advance_to` itself, whether
  advancing the worker to a clock would do anything at all.

The table is a mirror, never a source of truth: ``WorkerState.route`` stays
authoritative and :meth:`RouteTable.write` (called by the fleet wherever a
route object is replaced or re-anchored) copies it over.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.route import Route, RouteBlock
from repro.core.types import Worker
from repro.exceptions import DispatchError
from repro.network.graph import RoadNetwork

#: the per-worker vectors, grown together with the matrices by ``add_row``
_VECTORS = ("ids", "capacity", "online", "count", "first_edge_cost")


class RouteTable(RouteBlock):
    """Route block of a whole fleet plus ``ids``, ``online`` and the window."""

    def __init__(self, workers: Sequence[Worker]) -> None:
        ordered = sorted(workers, key=lambda worker: worker.id)
        super().__init__([worker.capacity for worker in ordered])
        # every worker starts on the row of ``empty_route(worker)`` at time 0
        self.vertex[0] = [worker.initial_location for worker in ordered]
        self.slack[0] = np.inf
        self.ids = np.asarray([worker.id for worker in ordered], dtype=np.int64)
        self.online = np.ones(len(ordered), dtype=bool)
        self.first_edge_cost = np.full(len(ordered), -np.inf, dtype=np.float64)
        self._row = {worker.id: row for row, worker in enumerate(ordered)}

    # ---------------------------------------------------------------- lookup

    def row_of(self, worker_id: int) -> int:
        """Row of one worker."""
        return self._row[worker_id]

    def rows_of(self, worker_ids: "Sequence[int] | np.ndarray") -> np.ndarray:
        """Rows of many workers, aligned with ``worker_ids``."""
        wanted = np.asarray(worker_ids, dtype=np.int64)
        rows = np.minimum(np.searchsorted(self.ids, wanted), self.ids.size - 1)
        known = self.ids[rows] == wanted
        if not known.all():
            raise DispatchError(f"unknown worker {int(wanted[~known][0])}")
        return rows

    @property
    def idle(self) -> np.ndarray:
        """Mask of the rows whose route has no pending stop."""
        return self.count == 1

    # --------------------------------------------------------------- writing

    def add_row(self, worker: Worker) -> int:
        """Insert a row for a new worker, keeping rows ordered by id."""
        row = int(np.searchsorted(self.ids, worker.id))
        fresh = {"ids": worker.id, "capacity": worker.capacity, "online": True,
                 "count": 1, "first_edge_cost": -np.inf}
        for name in _VECTORS:
            setattr(self, name, np.insert(getattr(self, name), row, fresh[name]))
        for name in self.MATRICES:
            setattr(self, name, np.insert(getattr(self, name), row, 0, axis=1))
        self._row = {int(worker_id): index for index, worker_id in enumerate(self.ids)}
        return row

    def write(self, worker_id: int, route: Route, network: RoadNetwork) -> None:
        """Mirror ``route`` (fresh auxiliary arrays) into its worker's row.

        Also resets the no-op window: the first edge is priced only when the
        route records a concrete path that ``advance_to`` would accept
        (from the route's origin to its next stop).
        """
        row = self._row[worker_id]
        self.write_route(row, route)
        path = route.concrete_path
        if (
            path is not None
            and len(path) > 1
            and path[0] == route.origin
            and path[-1] == route.stops[0].vertex
        ):
            self.first_edge_cost[row] = network.edge_cost(path[0], path[1])
        else:
            self.first_edge_cost[row] = -np.inf

    def bump_idle(self, worker_id: int, clock: float) -> None:
        """An idle worker waited in place until ``clock``: move its ``arr[0]``."""
        self.arr[0, self._row[worker_id]] = clock

    # --------------------------------------------------------------- reading

    def _window(
        self, rows: "np.ndarray | slice", clock: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(anchored, busy, skippable)`` of ``rows`` — the window, evaluated once."""
        anchored = self.arr[0, rows]
        budget = clock - anchored
        skippable = (self.arr[1, rows] > clock) & (
            (budget <= 0.0) | (self.first_edge_cost[rows] > budget)
        )
        return anchored, self.count[rows] > 1, skippable

    def due(self, rows: "np.ndarray | slice", clock: float) -> np.ndarray:
        """Which of ``rows`` a *read* at ``clock`` has to bring up to date.

        A busy worker is skippable when its next stop is not reached
        (``arr[1] > clock``) and either no time has passed since its
        anchor or the first edge of its recorded path does not fit the
        elapsed budget — exactly the comparisons ``advance_to`` walks
        through before breaking without a side effect. With no recorded
        path ``advance_to`` would query (and record) one, so the row is due.
        An idle worker is due when its clock lags: nothing about it can
        change but ``arr[0] = start_time = clock``, which whoever reads the
        row (the block kernels take an idle ``arr[0]`` from the table) must
        see — so ``state_of`` / ``states_of`` ask this, while fleet
        advancement, which reads nothing, asks :meth:`busy_due`.
        """
        anchored, busy, skippable = self._window(rows, clock)
        return np.where(busy, ~skippable, anchored < clock)

    def busy_due(self, rows: "np.ndarray | slice", clock: float) -> np.ndarray:
        """The busy workers among ``rows`` an ``advance_to(clock)`` would move.

        :meth:`due` without the idle clock bump — the only rows on which
        advancing has an effect that a later advance could not reproduce
        (an idle bump is idempotent: ``start_time = clock``, no float
        accumulates, so it is left to the next touch).
        """
        _, busy, skippable = self._window(rows, clock)
        return busy & ~skippable

    def is_due(self, worker_id: int, clock: float) -> bool:
        """:meth:`due` for one worker, evaluated on Python floats."""
        row = self._row[worker_id]
        anchored = self.arr.item(0, row)
        if self.count.item(row) == 1:
            return anchored < clock
        budget = clock - anchored
        return not (
            self.arr.item(1, row) > clock
            and (budget <= 0.0 or self.first_edge_cost.item(row) > budget)
        )
