"""The shard router and the in-process shard, shared by both sharded paths.

:class:`ShardRouter` is the part of sharded dispatching that does not care
where a shard runs: it reads the shard layout (``num_shards``,
``shard_strategy``, ``shard_escalate_k``) out of the
:class:`~repro.dispatch.base.DispatcherConfig`, cuts the city with a
:class:`~repro.sharding.partitioner.SpatialPartitioner`, buckets the fleet,
routes each request to the shard containing its origin and escalates an
unserved one to the ``shard_escalate_k`` nearest adjacent shards (ordered by
centroid distance) and then to every other shard, re-buckets workers whose
materialised position crossed a shard border, and keeps the routing counters.
Two subclasses supply how one shard answers (:meth:`ShardRouter._ask`) and
what a membership move does to the shards (:meth:`ShardRouter._relocate`):

* :class:`~repro.sharding.dispatcher.ShardedDispatcher` — every shard is an
  in-process :class:`Shard`;
* :class:`~repro.cluster.dispatcher.ClusterDispatcher` — every shard is a
  worker process behind a pipe, failing over to an in-process :class:`Shard`
  at the front door while its worker is down.

:class:`Shard` is the one in-process shard: an inner dispatcher (any registry
algorithm) over a :class:`~repro.sharding.fleet_view.ShardFleetView`. It also
runs inside every cluster worker process, over that process's fleet replica.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.types import Request
from repro.dispatch.base import Dispatcher, DispatcherConfig, DispatchOutcome
from repro.exceptions import ConfigurationError
from repro.network.oracle import OracleCounters
from repro.sharding.fleet_view import ShardFleetView
from repro.sharding.partitioner import Partition, SpatialPartitioner

if TYPE_CHECKING:
    from repro.core.instance import URPSMInstance
    from repro.simulation.fleet import FleetState


def members_of(membership: dict[int, int], shard_id: int) -> set[int]:
    """The workers ``membership`` (worker id -> shard id) buckets in ``shard_id``."""
    return {worker_id for worker_id, owner in membership.items() if owner == shard_id}


class Shard:
    """One in-process shard: an inner dispatcher over a shard fleet view.

    Args:
        shard_id: which shard this is.
        inner: registry name of the inner algorithm.
        config: dispatcher knobs of the inner algorithm.
        instance: the instance whose oracle the inner dispatcher queries.
        fleet: the fleet the view restricts (the authoritative one, or a
            worker process's replica).
        membership: worker id -> shard id; the shard's members are derived
            from it once, then kept by :meth:`move` and :meth:`add`.
        vertex_cells: a grid ``vertex -> cell`` mapping to share, if any.
    """

    def __init__(
        self,
        shard_id: int,
        inner: str,
        config: DispatcherConfig,
        instance: "URPSMInstance",
        fleet: "FleetState",
        membership: dict[int, int],
        vertex_cells: dict | None = None,
    ) -> None:
        from repro.dispatch import make_dispatcher  # lazy: avoids an import cycle

        self.shard_id = shard_id
        self.view = ShardFleetView(fleet, shard_id, members_of(membership, shard_id))
        self.dispatcher = make_dispatcher(inner, config)
        self.dispatcher.shared_vertex_cells = vertex_cells
        self.dispatcher.setup(instance, self.view)
        #: oracle work done inside this shard's dispatcher
        self.counters = OracleCounters()

    def move(self, worker_id: int, shard_id: int) -> None:
        """``worker_id`` now belongs to ``shard_id``.

        Leaving this shard drops the worker from the view and the grid;
        entering only adds it to the view — whoever moved it sets its cell.
        """
        members = self.view.members
        if shard_id == self.shard_id:
            members.add(worker_id)
        elif worker_id in members:
            members.discard(worker_id)
            self.dispatcher.grid.remove(worker_id)

    def add(self, worker_id: int, position: int) -> None:
        """Index a worker that joined the fleet inside this shard."""
        self.view.members.add(worker_id)
        self.dispatcher.grid.insert(worker_id, position)

    def flush(self, deferrals, now: float) -> list[DispatchOutcome]:
        """Replay a buffered window of ``(request, defer clock)`` pairs, then flush.

        Deferrals read no fleet state, so replaying them here is
        value-identical to having deferred them one by one.
        """
        for request, clock in deferrals:
            self.dispatcher.dispatch(request, clock)
        return self.dispatcher.flush(now)

    def pending_ids(self) -> list[int]:
        """Ids of the requests still deferred in this shard's batch window."""
        if not self.dispatcher.is_batched:
            return []
        return [request.id for request in self.dispatcher.pending_requests]


class ShardRouter(Dispatcher):
    """Routes requests to K spatial shards, escalating when a shard cannot serve.

    Args:
        config: shared dispatcher knobs; ``num_shards``, ``shard_strategy``
            and ``shard_escalate_k`` are the shard layout.
        inner: registry name of the per-shard algorithm.
    """

    #: prefix of the routing counters in :meth:`extra_metrics`
    metrics_prefix = "sharding"

    def __init__(
        self, config: DispatcherConfig | None = None, inner: str = "pruneGreedyDP"
    ) -> None:
        super().__init__(config)
        if not isinstance(inner, str):
            raise ConfigurationError("the inner dispatcher must be a registry name")
        if inner.startswith(("sharded", "cluster")):
            raise ConfigurationError(f"cannot nest {inner!r} inside {self.name!r}")
        if self.num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {self.num_shards}")
        from repro.dispatch import ALGORITHMS, BatchDispatcher  # lazy: import cycle

        self.inner = inner
        self.inner_class = ALGORITHMS.get(inner)
        self._batched = self.inner_class is not None and issubclass(
            self.inner_class, BatchDispatcher
        )
        self.name = f"{self.name}:{inner}"
        self.partition: Partition | None = None
        #: worker id -> shard id, kept by :meth:`_rebucket`
        self._membership: dict[int, int] = {}
        self.local_hits = 0
        self.escalations = 0
        self.cross_shard_assignments = 0
        self.global_fallbacks = 0
        self.rejections = 0
        self.cross_shard_moves = 0

    @property
    def num_shards(self) -> int:
        """Spatial shards ``K`` (``config.num_shards``)."""
        return self.config.num_shards

    @property
    def is_batched(self) -> bool:
        """Whether the inner algorithm defers requests to periodic flushes."""
        return self._batched

    def _partition(self, instance: "URPSMInstance", fleet: "FleetState") -> None:
        """Cut the city into the configured shards and bucket the fleet."""
        self.instance = instance
        self.fleet = fleet
        self.oracle = instance.oracle
        self.partition = SpatialPartitioner(
            self.num_shards, self.config.shard_strategy
        ).partition(instance.network)
        shard_of = self.partition.shard_of_vertex
        self._membership = {
            worker_id: shard_of(fleet.peek_state(worker_id).position)
            for worker_id in fleet.states
        }

    # ------------------------------------------------------ subclass hooks

    @abc.abstractmethod
    def _ask(self, shard_id: int, request: Request, now: float) -> DispatchOutcome | None:
        """One shard's answer to ``request`` (``None``: deferred to its window)."""

    @abc.abstractmethod
    def _relocate(self, worker_id: int, previous: int, shard_id: int, position: int) -> None:
        """A moved worker now sits at ``position`` in ``shard_id`` (was ``previous``)."""

    def _prepare(self, now: float) -> None:
        """Run at every decision point before routing: re-bucket moved workers."""
        self._rebucket()

    # ------------------------------------------------------------- routing

    def dispatch(self, request: Request, now: float) -> DispatchOutcome | None:
        self._prepare(now)
        home = self.partition.shard_of_vertex(request.origin)
        outcome = self._ask(home, request, now)
        if outcome is None or self._batched:
            # deferred into the home shard's window, or refused admission
            # there; escalation applies to immediate outcomes only
            return outcome
        if outcome.served:
            self.local_hits += 1
            return outcome
        if self.num_shards == 1:
            self.rejections += 1
            return outcome
        return self._escalate(request, now, home, outcome)

    def _escalate(
        self, request: Request, now: float, home: int, local: DispatchOutcome
    ) -> DispatchOutcome:
        """Retry the request on neighbouring shards, then globally."""
        self.escalations += 1
        neighbours, remaining = self._escalation_targets(request, home)
        candidates = local.candidates_considered
        insertions = local.insertions_evaluated
        decision_rejected = local.decision_rejected
        last = local
        for phase, shard_ids in enumerate((neighbours, remaining)):
            if phase == 1 and shard_ids:
                self.global_fallbacks += 1
            for shard_id in shard_ids:
                attempt = self._ask(shard_id, request, now)
                candidates += attempt.candidates_considered
                insertions += attempt.insertions_evaluated
                decision_rejected = decision_rejected and attempt.decision_rejected
                last = attempt
                if attempt.served:
                    self.cross_shard_assignments += 1
                    return replace(
                        attempt,
                        candidates_considered=candidates,
                        insertions_evaluated=insertions,
                    )
        self.rejections += 1
        return replace(
            last,
            candidates_considered=candidates,
            insertions_evaluated=insertions,
            decision_rejected=decision_rejected,
        )

    def _escalation_targets(self, request: Request, home: int) -> tuple[list[int], list[int]]:
        """Shard ids to try after ``home``: nearest neighbours, then the rest."""
        partition = self.partition
        csr = partition.network.csr
        origin_position = csr.position_of(request.origin)
        ordered = [
            int(shard_id)
            for shard_id in partition.shards_by_distance(
                float(csr.xs[origin_position]), float(csr.ys[origin_position])
            )
            if int(shard_id) != home
        ]
        adjacent = partition.shard_adjacency[home]
        neighbours = [s for s in ordered if s in adjacent][: self.config.shard_escalate_k]
        remaining = [s for s in ordered if s not in neighbours]
        return neighbours, remaining

    def _rebucket(self) -> None:
        """Re-bucket the workers that moved since the last decision point.

        Uses the same materialised positions an unsharded ``sync_grid`` would
        (``peek_state``); every moved worker goes to :meth:`_relocate`,
        whether it crossed a shard border or moved inside its shard.
        """
        fleet = self.fleet
        shard_of = self.partition.shard_of_vertex
        membership = self._membership
        for worker_id in fleet.drain_moved():
            position = fleet.peek_state(worker_id).position
            shard_id = shard_of(position)
            previous = membership[worker_id]
            if shard_id != previous:
                membership[worker_id] = shard_id
                self.cross_shard_moves += 1
            self._relocate(worker_id, previous, shard_id, position)

    def _tally(self, outcomes: list[DispatchOutcome]) -> list[DispatchOutcome]:
        """Count a flush's outcomes: each one was decided in its home shard."""
        for outcome in outcomes:
            if outcome.served:
                self.local_hits += 1
            else:
                self.rejections += 1
        return outcomes

    # ------------------------------------------------------------- metrics

    def extra_metrics(self) -> dict[str, float]:
        """The routing counters, keyed ``<metrics_prefix>_<counter>``."""
        counts = {
            "shards": self.num_shards,
            "local_hits": self.local_hits,
            "escalations": self.escalations,
            "cross_shard_assignments": self.cross_shard_assignments,
            "global_fallbacks": self.global_fallbacks,
            "rejections": self.rejections,
            "cross_shard_moves": self.cross_shard_moves,
            "boundary_vertices": self.partition.num_boundary_vertices(),
        }
        return {f"{self.metrics_prefix}_{key}": float(value) for key, value in counts.items()}


__all__ = ["Shard", "ShardRouter", "members_of"]
