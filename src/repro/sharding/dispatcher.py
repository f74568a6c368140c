"""In-process sharded dispatching: one :class:`~repro.sharding.router.Shard` per shard.

:class:`ShardedDispatcher` is the :class:`~repro.sharding.router.ShardRouter`
whose shards all run in this process: each is an inner dispatcher (any
registry algorithm — ``pruneGreedyDP``, ``tshare``, ``batch``, ...) over a
:class:`~repro.sharding.fleet_view.ShardFleetView` of the shared fleet. The
router routes, escalates and re-buckets; this class asks a shard by calling
its inner dispatcher, and moves a worker between shards by moving it between
their views and grids.

Every shard queries the instance's oracle, so a shard sees exactly the
distances (and the oracle state) an unsharded dispatcher would. With
``num_shards=1`` the wrapper is exact: one shard covers the city, every
request is local, and served rate, unified cost and oracle counters
reproduce the unsharded run bit for bit.

Per-shard oracle-counter deltas are recorded around every inner call and
merged into fleet-wide totals for :meth:`ShardedDispatcher.extra_metrics`.
Batch-style inner dispatchers defer into their origin shard's window, and a
flush drains every due shard; a window's failed assignments are final.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.types import Request
from repro.dispatch.base import DispatcherConfig, DispatchOutcome
from repro.network.oracle import OracleCounters
from repro.sharding.router import Shard, ShardRouter

if TYPE_CHECKING:
    from repro.core.instance import URPSMInstance
    from repro.simulation.fleet import FleetState


class ShardedDispatcher(ShardRouter):
    """Routes requests to in-process spatial shards, escalating when one cannot serve.

    Args:
        config: shared dispatcher knobs; ``num_shards``, ``shard_strategy``
            and ``shard_escalate_k`` are the shard layout.
        inner: registry name of the per-shard algorithm.
    """

    name = "sharded"

    def __init__(
        self, config: DispatcherConfig | None = None, inner: str = "pruneGreedyDP"
    ) -> None:
        super().__init__(config, inner)
        self._shards: list[Shard] = []
        # Routing by shard is position-dependent the same way tshare's cell
        # walk is: which grid a worker sits in decides which shard answers
        # first, so lazy (stale) positions would make results depend on the
        # advancement regime. K>1 therefore materialises the fleet before
        # every interaction; K=1 inherits the inner algorithm's requirement.
        self.requires_exact_positions = self.num_shards > 1 or bool(
            self.inner_class is not None and self.inner_class.requires_exact_positions
        )

    # ------------------------------------------------------------- lifecycle

    def setup(self, instance: "URPSMInstance", fleet: "FleetState") -> None:
        """Partition the city, bucket the fleet, and build every shard."""
        self._partition(instance, fleet)
        self._shards = []
        vertex_cells = None
        for shard_id in range(self.num_shards):
            shard = Shard(
                shard_id, self.inner, self.config, instance, fleet, self._membership,
                vertex_cells,
            )
            vertex_cells = shard.dispatcher.grid.vertex_cells
            if self._flush_scheduler is not None:
                shard.dispatcher.bind_flush_scheduler(self._flush_scheduler)
            self._shards.append(shard)

    def bind_flush_scheduler(self, schedule) -> None:
        """Forward the engine's flush scheduler to every shard dispatcher."""
        super().bind_flush_scheduler(schedule)
        for shard in self._shards:
            shard.dispatcher.bind_flush_scheduler(schedule)

    def notify_worker_added(self, worker_id: int) -> None:
        """Bucket a newly added worker into the shard containing its position."""
        position = self.fleet.peek_state(worker_id).position
        home = self._membership[worker_id] = self.partition.shard_of_vertex(position)
        self._shards[home].add(worker_id, position)

    def notify_network_changed(self) -> None:
        """Rebuild every inner dispatcher's grid.

        The spatial partition itself is coordinate-based and closures do not
        move vertices, so worker-to-shard membership stays valid; only the
        per-shard grid indexes need re-deriving. The instance's oracle, which
        every shard queries, was already refreshed by the engine.
        """
        for shard in self._shards:
            shard.dispatcher.notify_network_changed()

    # ------------------------------------------------------------ the shards

    def _ask(self, shard_id: int, request: Request, now: float) -> DispatchOutcome | None:
        shard = self._shards[shard_id]
        with _CounterAttribution(self.oracle.counters, shard.counters):
            return shard.dispatcher.dispatch(request, now)

    def _relocate(self, worker_id: int, previous: int, shard_id: int, position: int) -> None:
        shard = self._shards[shard_id]
        if shard_id != previous:
            self._shards[previous].move(worker_id, shard_id)
            shard.move(worker_id, shard_id)
        shard.dispatcher.grid.update(worker_id, position)

    # ------------------------------------------------------- batch protocol

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
        self._prepare(now)
        outcomes: list[DispatchOutcome] = []
        for shard in self._shards:
            next_flush = shard.dispatcher.next_flush_time()
            if next_flush is not None and next_flush <= now:
                with _CounterAttribution(self.oracle.counters, shard.counters):
                    outcomes.extend(shard.flush((), now))
        return self._tally(outcomes)

    def cancel(self, request: Request) -> bool:
        """Drop a deferred request from whichever shard window holds it."""
        return any(shard.dispatcher.cancel(request) for shard in self._shards)

    # --------------------------------------------------------------- metrics

    def memory_estimate_bytes(self) -> int:
        """Sum of the per-shard grid index footprints."""
        return sum(shard.dispatcher.memory_estimate_bytes() for shard in self._shards)

    def shard_counter_totals(self) -> OracleCounters:
        """Fleet-wide oracle work done inside shard dispatchers (merged)."""
        return OracleCounters.merge(shard.counters for shard in self._shards)

    def extra_metrics(self) -> dict[str, float]:
        """Routing counters + merged per-shard oracle totals for ``extra``."""
        merged = self.shard_counter_totals()
        extra = super().extra_metrics()
        extra["sharding_distance_queries"] = float(merged.distance_queries)
        extra["sharding_lower_bound_queries"] = float(merged.lower_bound_queries)
        extra["sharding_dijkstra_runs"] = float(merged.dijkstra_runs)
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
