"""A restriction of one :class:`~repro.simulation.fleet.FleetState` to a shard.

The inner dispatcher of a :class:`~repro.sharding.router.Shard` is an
ordinary :class:`~repro.dispatch.base.Dispatcher` — it is ``setup()``
against a :class:`ShardFleetView` instead of the real fleet. The
view delegates every state accessor to the shared fleet (so materialisation,
clocks and assignment bookkeeping stay global and exact) while restricting
*enumeration* — iteration, length, the grid-sync drain — to the workers
currently bucketed in its shard.

Membership is owned and mutated by the shard (``Shard.move`` /
``Shard.add``): workers are re-bucketed whenever their materialised position
crosses a shard border. The view's :meth:`drain_moved` always returns an
empty list because the shard's owner maintains the inner grid index itself
(a worker leaving a shard must be *removed* from that shard's grid, which the
plain positional sync of ``Dispatcher.sync_grid`` cannot express).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from repro.simulation.fleet import FleetState, WorkerState
    from repro.simulation.route_table import RouteTable


class ShardFleetView:
    """Shard-restricted, delegation-based view of a shared fleet.

    Args:
        fleet: the real fleet shared by all shards.
        shard_id: which shard this view exposes.
        members: the worker ids currently bucketed in the shard; the set is
            owned (and mutated) by the shard.
    """

    def __init__(self, fleet: "FleetState", shard_id: int, members: set[int]) -> None:
        self._fleet = fleet
        self.shard_id = shard_id
        self.members = members

    # -------------------------------------------------- delegated properties

    @property
    def fleet(self) -> "FleetState":
        """The underlying shared fleet."""
        return self._fleet

    @property
    def clock(self) -> float:
        """The shared fleet clock."""
        return self._fleet.clock

    @property
    def table(self) -> "RouteTable":
        """The fleet-wide route table (candidate rows already shard-local)."""
        return self._fleet.table

    # ----------------------------------------------------- delegated accessors

    def state_of(self, worker_id: int) -> "WorkerState":
        """Materialised state of one worker (delegates to the shared fleet)."""
        return self._fleet.state_of(worker_id)

    def states_of(self, rows: np.ndarray) -> list["WorkerState"]:
        """Materialised states of route-table rows (delegates to the shared fleet)."""
        return self._fleet.states_of(rows)

    def peek_state(self, worker_id: int) -> "WorkerState":
        """Non-advancing state accessor (delegates to the shared fleet)."""
        return self._fleet.peek_state(worker_id)

    def idle_partition(self, rows: np.ndarray):
        """Idle/busy split of candidate rows (delegates to the shared fleet)."""
        return self._fleet.idle_partition(rows)

    def is_available(self, worker_id: int) -> bool:
        """Shift status of one worker (delegates to the shared fleet)."""
        return self._fleet.is_available(worker_id)

    def find_assignment(self, request_id: int) -> "WorkerState | None":
        """Worker holding ``request_id`` (delegates to the shared fleet)."""
        return self._fleet.find_assignment(request_id)

    def position_slack_metres(self, max_speed: float) -> float:
        """Fleet-wide staleness bound; admissible for any subset of workers."""
        return self._fleet.position_slack_metres(max_speed)

    # ----------------------------------------------------- shard restriction

    def __iter__(self) -> Iterator["WorkerState"]:
        """Iterate (materialising) over the shard's workers in fleet order."""
        members = self.members
        for worker_id in self._fleet.states:
            if worker_id in members:
                yield self._fleet.state_of(worker_id)

    def __len__(self) -> int:
        return len(self.members)

    def drain_moved(self) -> list[int]:
        """Always empty: the shard's owner syncs the inner grid itself."""
        return []
