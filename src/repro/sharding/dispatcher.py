"""Sharded dispatching: one inner dispatcher per spatial shard + escalation.

:class:`ShardedDispatcher` implements the full :class:`~repro.dispatch.base.
Dispatcher` interface (immediate dispatch, the batch flush/cancel protocol,
memory accounting) by composition:

* at :meth:`setup` it cuts the road network into K shards with a
  :class:`~repro.sharding.partitioner.SpatialPartitioner`, buckets every
  worker into the shard containing its current position, and sets up one
  *inner* dispatcher (any registry algorithm — ``pruneGreedyDP``, ``tshare``,
  ``batch``, ...) per shard over a
  :class:`~repro.sharding.fleet_view.ShardFleetView`;
* each request is dispatched to the shard containing its origin. When that
  shard finds no feasible insertion, the request **escalates** to the
  ``escalate_k`` nearest neighbouring shards (adjacent shards ordered by
  centroid distance), and finally to every remaining shard — so a request is
  only rejected once the whole fleet has been considered;
* workers are **re-bucketed** whenever their materialised position crosses a
  shard border (the dispatcher, not the views, maintains the per-shard grid
  indexes: leaving a shard removes the worker from that shard's grid).

Every shard queries the instance's oracle, so a shard sees exactly the
distances (and the oracle state) an unsharded dispatcher would. With
``num_shards=1`` the wrapper is exact: one shard covers the city, every
request is local, and the inner dispatcher observes the same fleet, grid
content and oracle state as it would unsharded — served rate, unified cost
and oracle counters reproduce the unsharded run bit for bit.

Observability: per-shard oracle-counter deltas are recorded around every
inner call and **aggregated** with :meth:`~repro.network.oracle.
OracleCounters.merge` into fleet-wide totals (rather than letting the last
shard overwrite shared keys); they surface — together with local-hit /
escalation / cross-shard-assignment counters — through
:meth:`extra_metrics` into ``SimulationResult.extra`` and the report tables.

Batch-style inner dispatchers are supported through the batch protocol
(deferred requests accumulate in their origin shard's window; flushes drain
every due shard). Escalation applies to immediate outcomes only — a batch
window's failed assignments are final, as they already saw the shard-local
fleet at flush time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.core.types import Request
from repro.dispatch.base import Dispatcher, DispatcherConfig, DispatchOutcome
from repro.exceptions import ConfigurationError
from repro.network.oracle import OracleCounters
from repro.sharding.fleet_view import ShardFleetView
from repro.sharding.partitioner import Partition, SpatialPartitioner

if TYPE_CHECKING:
    from repro.core.instance import URPSMInstance
    from repro.simulation.fleet import FleetState


@dataclass
class _Shard:
    """One shard: its inner dispatcher, fleet view and attribution counters."""

    shard_id: int
    dispatcher: Dispatcher
    view: ShardFleetView
    counters: OracleCounters = field(default_factory=OracleCounters)
    dispatch_calls: int = 0


class ShardedDispatcher(Dispatcher):
    """Routes requests to spatial shards, escalating when a shard cannot serve.

    Args:
        config: shared dispatcher knobs; ``num_shards``, ``shard_strategy``
            and ``shard_escalate_k`` parameterise the sharding (overridable
            via the keyword arguments below).
        inner: registry name of the per-shard algorithm, or a factory
            ``config -> Dispatcher``.
        num_shards: override ``config.num_shards``.
        strategy: override ``config.shard_strategy``.
        escalate_k: override ``config.shard_escalate_k``.
    """

    name = "sharded"

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        inner: str | Callable[[DispatcherConfig], Dispatcher] = "pruneGreedyDP",
        num_shards: int | None = None,
        strategy: str | None = None,
        escalate_k: int | None = None,
    ) -> None:
        super().__init__(config)
        if isinstance(inner, str) and inner.startswith("sharded"):
            raise ConfigurationError("nested sharding is not supported")
        self.inner = inner
        self.num_shards = num_shards if num_shards is not None else self.config.num_shards
        self.strategy = strategy if strategy is not None else self.config.shard_strategy
        self.escalate_k = (
            escalate_k if escalate_k is not None else self.config.shard_escalate_k
        )
        if self.num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {self.num_shards}")
        inner_label = inner if isinstance(inner, str) else getattr(inner, "__name__", "custom")
        self.name = f"sharded:{inner_label}"
        self.partition: Partition | None = None
        self._shards: list[_Shard] = []
        self._membership: dict[int, int] = {}
        # escalation / routing counters (surfaced via extra_metrics)
        self.local_hits = 0
        self.escalations = 0
        self.cross_shard_assignments = 0
        self.global_fallbacks = 0
        self.rejections = 0
        self.cross_shard_moves = 0
        self.requires_exact_positions = self._resolve_requires_exact_positions()

    # ------------------------------------------------------------- lifecycle

    def setup(self, instance: "URPSMInstance", fleet: "FleetState") -> None:
        """Partition the city, bucket the fleet, and set up one dispatcher per shard."""
        self.instance = instance
        self.fleet = fleet
        self.oracle = instance.oracle
        self.partition = SpatialPartitioner(self.num_shards, self.strategy).partition(
            instance.network
        )
        memberships: list[set[int]] = [set() for _ in range(self.num_shards)]
        self._membership = {}
        for worker_id in fleet.states:
            shard_id = self.partition.shard_of_vertex(fleet.peek_state(worker_id).position)
            self._membership[worker_id] = shard_id
            memberships[shard_id].add(worker_id)
        self._shards = []
        shared_vertex_cells = None
        for shard_id in range(self.num_shards):
            inner = self._make_inner()
            inner.shared_vertex_cells = shared_vertex_cells
            view = ShardFleetView(fleet, shard_id, memberships[shard_id])
            inner.setup(instance, view)
            if shared_vertex_cells is None:
                shared_vertex_cells = inner.grid.vertex_cells
            if self._flush_scheduler is not None:
                inner.bind_flush_scheduler(self._flush_scheduler)
            self._shards.append(_Shard(shard_id, inner, view))
        self.requires_exact_positions = self.num_shards > 1 or any(
            shard.dispatcher.requires_exact_positions for shard in self._shards
        )

    def _make_inner(self) -> Dispatcher:
        if callable(self.inner):
            return self.inner(self.config)
        from repro.dispatch import make_dispatcher  # lazy: avoids an import cycle

        return make_dispatcher(self.inner, self.config)

    def _resolve_requires_exact_positions(self) -> bool:
        # Routing by shard is position-dependent the same way tshare's cell
        # walk is: which grid a worker sits in decides which shard answers
        # first, so lazy (stale) positions would make results depend on the
        # advancement regime. K>1 therefore materialises the fleet before
        # every interaction; K=1 inherits the inner algorithm's requirement.
        if self.num_shards > 1:
            return True
        if not isinstance(self.inner, str):
            return False  # refreshed from the actual instances at setup
        from repro.dispatch import ALGORITHMS  # lazy: avoids an import cycle

        inner_class = ALGORITHMS.get(self.inner)
        return bool(inner_class is not None and inner_class.requires_exact_positions)

    def bind_flush_scheduler(self, schedule) -> None:
        """Forward the engine's flush scheduler to every shard dispatcher."""
        super().bind_flush_scheduler(schedule)
        for shard in self._shards:
            shard.dispatcher.bind_flush_scheduler(schedule)

    def notify_worker_added(self, worker_id: int) -> None:
        """Bucket a newly added worker into the shard containing its position."""
        assert self.partition is not None and self.fleet is not None
        position = self.fleet.peek_state(worker_id).position
        shard_id = self.partition.shard_of_vertex(position)
        self._membership[worker_id] = shard_id
        shard = self._shards[shard_id]
        shard.view.members.add(worker_id)
        shard.dispatcher.grid.insert(worker_id, position)

    def notify_network_changed(self) -> None:
        """Rebuild every inner dispatcher's grid.

        The spatial partition itself is coordinate-based and closures do not
        move vertices, so worker-to-shard membership stays valid; only the
        per-shard grid indexes need re-deriving. The instance's oracle, which
        every shard queries, was already refreshed by the engine.
        """
        for shard in self._shards:
            shard.dispatcher.notify_network_changed()

    # --------------------------------------------------------------- running

    def dispatch(self, request: Request, now: float) -> DispatchOutcome | None:
        assert self.partition is not None and self.fleet is not None
        self._resync()
        home = self.partition.shard_of_vertex(request.origin)
        outcome = self._dispatch_to(home, request, now)
        if outcome is None:
            return None  # deferred into the home shard's batch window
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
                attempt = self._dispatch_to(shard_id, request, now)
                assert attempt is not None  # immediate dispatchers only get here
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
        assert partition is not None
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
        neighbours = [s for s in ordered if s in adjacent][: self.escalate_k]
        remaining = [s for s in ordered if s not in neighbours]
        return neighbours, remaining

    def _dispatch_to(self, shard_id: int, request: Request, now: float) -> DispatchOutcome | None:
        shard = self._shards[shard_id]
        shard.dispatch_calls += 1
        with _CounterAttribution(self.oracle.counters, shard.counters):
            return shard.dispatcher.dispatch(request, now)

    # ------------------------------------------------------- batch protocol

    @property
    def is_batched(self) -> bool:
        """Whether the inner dispatchers defer requests to periodic flushes."""
        if self._shards:
            return self._shards[0].dispatcher.is_batched
        if isinstance(self.inner, str):
            from repro.dispatch import ALGORITHMS, BatchDispatcher  # lazy

            inner_class = ALGORITHMS.get(self.inner)
            return bool(inner_class is not None and issubclass(inner_class, BatchDispatcher))
        return False

    def next_flush_time(self) -> float | None:
        """Earliest pending flush across all shards."""
        times = [
            time
            for shard in self._shards
            if (time := shard.dispatcher.next_flush_time()) is not None
        ]
        return min(times) if times else None

    def flush(self, now: float) -> list[DispatchOutcome]:
        """Flush every shard whose batch window is due."""
        self._resync()
        outcomes: list[DispatchOutcome] = []
        for shard in self._shards:
            next_flush = shard.dispatcher.next_flush_time()
            if next_flush is not None and next_flush <= now + 1e-9:
                with _CounterAttribution(self.oracle.counters, shard.counters):
                    outcomes.extend(shard.dispatcher.flush(now))
        for outcome in outcomes:
            if outcome.served:
                self.local_hits += 1
            else:
                self.rejections += 1
        return outcomes

    def cancel(self, request: Request) -> bool:
        """Drop a deferred request from whichever shard window holds it."""
        return any(shard.dispatcher.cancel(request) for shard in self._shards)

    # --------------------------------------------------------------- helpers

    def _resync(self) -> None:
        """Re-bucket moved workers and maintain the per-shard grid indexes.

        Uses the same materialised positions an unsharded ``sync_grid`` would
        (``peek_state``): crossing a shard border moves the worker between
        views and between grids; moving inside a shard is a plain grid update.
        """
        fleet = self.fleet
        partition = self.partition
        assert fleet is not None and partition is not None
        for worker_id in fleet.drain_moved():
            position = fleet.peek_state(worker_id).position
            shard_id = partition.shard_of_vertex(position)
            previous = self._membership[worker_id]
            if shard_id != previous:
                old = self._shards[previous]
                old.view.members.discard(worker_id)
                old.dispatcher.grid.remove(worker_id)
                self._membership[worker_id] = shard_id
                self._shards[shard_id].view.members.add(worker_id)
                self.cross_shard_moves += 1
            self._shards[shard_id].dispatcher.grid.update(worker_id, position)

    # --------------------------------------------------------------- metrics

    def memory_estimate_bytes(self) -> int:
        """Sum of the per-shard grid index footprints."""
        return sum(shard.dispatcher.memory_estimate_bytes() for shard in self._shards)

    def shard_counter_totals(self) -> OracleCounters:
        """Fleet-wide oracle work done inside shard dispatchers (merged)."""
        return OracleCounters.merge(shard.counters for shard in self._shards)

    def extra_metrics(self) -> dict[str, float]:
        """Routing counters + merged per-shard oracle totals for ``extra``."""
        assert self.partition is not None
        merged = self.shard_counter_totals()
        extra = {
            "sharding_shards": float(self.num_shards),
            "sharding_local_hits": float(self.local_hits),
            "sharding_escalations": float(self.escalations),
            "sharding_cross_shard_assignments": float(self.cross_shard_assignments),
            "sharding_global_fallbacks": float(self.global_fallbacks),
            "sharding_rejections": float(self.rejections),
            "sharding_cross_shard_moves": float(self.cross_shard_moves),
            "sharding_boundary_vertices": float(self.partition.num_boundary_vertices()),
            "sharding_distance_queries": float(merged.distance_queries),
            "sharding_lower_bound_queries": float(merged.lower_bound_queries),
            "sharding_dijkstra_runs": float(merged.dijkstra_runs),
        }
        for shard in self._shards:
            extra[f"sharding_shard{shard.shard_id}_distance_queries"] = float(
                shard.counters.distance_queries
            )
        return extra


class _CounterAttribution:
    """Context manager recording the delta of the instance oracle's counters
    over one inner call into a shard's counters."""

    __slots__ = ("_live", "_target", "_before", "_before_backend")

    def __init__(self, live: OracleCounters, target: OracleCounters) -> None:
        self._live = live
        self._target = target

    def __enter__(self) -> None:
        live = self._live
        self._before = (
            live.distance_queries,
            live.path_queries,
            live.lower_bound_queries,
            live.dijkstra_runs,
        )
        self._before_backend = (
            dict(live.backend_queries),
            dict(live.backend_settled),
        )

    def __exit__(self, *exc_info) -> None:
        live, target = self._live, self._target
        distance, path, lower_bound, dijkstra = self._before
        target.distance_queries += live.distance_queries - distance
        target.path_queries += live.path_queries - path
        target.lower_bound_queries += live.lower_bound_queries - lower_bound
        target.dijkstra_runs += live.dijkstra_runs - dijkstra
        queries_before, settled_before = self._before_backend
        for name, value in live.backend_queries.items():
            delta = value - queries_before.get(name, 0)
            if delta:
                target.backend_queries[name] = target.backend_queries.get(name, 0) + delta
        for name, value in live.backend_settled.items():
            delta = value - settled_before.get(name, 0)
            if delta:
                target.backend_settled[name] = target.backend_settled.get(name, 0) + delta
