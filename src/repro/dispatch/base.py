"""Dispatcher interface shared by every algorithm of the evaluation.

A dispatcher receives requests one by one (in release order) from the
simulation kernel and either assigns each request to a worker — by updating
that worker's planned route — or rejects it. Batch-style algorithms defer
requests and assign them when :meth:`Dispatcher.flush` is called; the batch
protocol (:meth:`Dispatcher.next_flush_time`, :meth:`Dispatcher.flush`,
:meth:`Dispatcher.cancel`) is part of the base interface so the simulation
kernel never has to probe for optional attributes. :class:`BatchDispatcher`
implements the deferral plumbing once and additionally *schedules its own*
:class:`~repro.simulation.events.BatchFlush` events when bound to an event
engine (:meth:`Dispatcher.bind_flush_scheduler`).

Every dispatcher reports a :class:`DispatchOutcome` per request so the metrics
collector can compute the unified cost, served rate and per-request work
(candidates considered, insertions evaluated).

Candidates travel as rows of the fleet's route table: the grid answers in
rows (:meth:`Dispatcher.candidate_rows`), ``FleetState.states_of`` takes
them, and the planners that evaluate *every* candidate of a request
(``batch``, ``tshare``, ``GreedyDP``) share one planning phase,
:meth:`Dispatcher.plan_over_all`: the candidates' rows go through the
insertion operator's block entry point in one call. Whichever planner picks
the winner, ``Route.with_insertion(..., direct=L)`` builds its new route —
the only route ``L`` is seeded on.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, ClassVar

import numpy as np

from repro.core.insertion.base import InsertionOperator
from repro.core.instance import URPSMInstance
from repro.core.route import Route
from repro.core.timegrid import on_grid
from repro.core.types import Request
from repro.index.grid import GridIndex
from repro.network.oracle import DistanceOracle, OracleCounters

if TYPE_CHECKING:  # imported lazily to avoid a dispatch <-> simulation cycle
    from repro.simulation.fleet import FleetState

INFINITY = math.inf


@dataclass(frozen=True, slots=True)
class DispatchOutcome:
    """What happened to one request."""

    request: Request
    served: bool
    worker_id: int | None = None
    increased_cost: float = 0.0
    candidates_considered: int = 0
    insertions_evaluated: int = 0
    decision_rejected: bool = False
    """True when the decision phase rejected the request before planning."""
    rejection_reason: str | None = None
    """Explicit rejection code overriding the derived reason ladder — set by
    admission control (``"saturated"``) when a request is rejected without
    ever reaching a planning phase."""


@dataclass
class DispatcherConfig:
    """Knobs shared by all dispatchers (Table 5 of the paper).

    Attributes:
        grid_cell_metres: grid-index cell size ``g`` in metres.
        reject_unprofitable: after planning, reject the request anyway if
            serving it increases the unified cost more than its penalty.
        batch_interval: batching window in simulated seconds (used only by
            batch-style dispatchers).
        kinetic_node_budget: search-node budget per schedule optimisation of
            the kinetic baseline (its search is exponential by design; the
            budget mirrors a wall-clock cap).
        num_shards: number of spatial shards of the sharded dispatcher
            (``K``; 1 reproduces the unsharded inner algorithm exactly).
        shard_strategy: partitioning strategy of the sharded dispatcher
            (see :data:`repro.sharding.partitioner.STRATEGIES`).
        shard_escalate_k: how many nearest neighbouring shards a request
            tries after its origin shard, before falling back globally.
    """

    grid_cell_metres: float = 2000.0
    reject_unprofitable: bool = False
    batch_interval: float = 6.0
    kinetic_node_budget: int = 20_000
    num_shards: int = 1
    shard_strategy: str = "grid"
    shard_escalate_k: int = 2

    def __post_init__(self) -> None:
        self.batch_interval = on_grid(self.batch_interval, "batch_interval")


class Dispatcher(abc.ABC):
    """Base class of all online route-planning algorithms."""

    #: short name used in benchmark tables ("pruneGreedyDP", "tshare", ...)
    name: str = "dispatcher"

    #: dispatchers whose candidate search is *lossy* (it may discard feasible
    #: workers by design, like tshare's single-side cell walk) set this so the
    #: event kernel materialises the whole fleet before every interaction —
    #: lazy advancement is only transparent to admissible candidate filters.
    requires_exact_positions: ClassVar[bool] = False

    #: whether the dispatcher can absorb a live road-network mutation via
    #: :meth:`apply_network_update`. All built-in dispatchers can: in-process
    #: ones read the live network directly, and the cluster dispatcher
    #: broadcasts the mutations to its worker replicas.
    supports_network_updates: ClassVar[bool] = True

    #: the insertion operator of the planning phase; set by the constructors
    #: of the dispatchers that plan through one
    insertion: InsertionOperator

    def __init__(self, config: DispatcherConfig | None = None) -> None:
        self.config = config or DispatcherConfig()
        self.instance: URPSMInstance | None = None
        self.fleet: "FleetState | None" = None
        self.oracle: DistanceOracle | None = None
        self.grid: GridIndex | None = None
        self._flush_scheduler: Callable[[float], None] | None = None
        #: optional precomputed vertex -> cell mapping handed to the grid
        #: index at setup; the sharded dispatcher shares one mapping across
        #: its K per-shard grids (same network, same cell size).
        self.shared_vertex_cells: dict | None = None

    # ------------------------------------------------------------- lifecycle

    def setup(self, instance: URPSMInstance, fleet: "FleetState") -> None:
        """Bind the dispatcher to a problem instance and a fleet.

        Subclasses overriding this must call ``super().setup(...)`` first.
        Every dispatcher — a shard's inner one included — queries the
        instance's oracle.
        """
        self.instance = instance
        self.fleet = fleet
        self.oracle = instance.oracle
        self.grid = self._build_grid(instance)
        for state in fleet:
            self.grid.insert(state.worker.id, state.position)
        fleet.drain_moved()  # setup positions are now reflected in the grid

    def _build_grid(self, instance: URPSMInstance) -> GridIndex:
        """Build the worker grid index, answering in rows of the fleet's route
        table; overridden by tshare to build its variant."""
        grid = GridIndex(
            instance.network,
            self.config.grid_cell_metres,
            vertex_cells=self.shared_vertex_cells,
        )
        grid.align_rows(self.fleet.table)
        return grid

    def oracle_counter_totals(self) -> "OracleCounters | None":
        """Complete oracle-counter totals, or ``None`` when the instance's
        oracle already counted everything.

        The cluster dispatcher overrides this: its shard workers query
        their own oracle replicas, and the headline
        ``distance_queries``/``dijkstra_runs`` of the simulation result
        include that work instead of silently dropping it.
        """
        return None

    def notify_worker_added(self, worker_id: int) -> None:
        """A new worker joined the live fleet: index its position.

        Called by the engine / service facade after
        :meth:`~repro.simulation.fleet.FleetState.add_worker`. The base
        implementation inserts the worker into the grid index; the sharded
        dispatcher overrides this to bucket the worker into the shard
        containing its position.
        """
        if self.grid is not None and self.fleet is not None:
            self.grid.insert(worker_id, self.fleet.peek_state(worker_id).position)

    def notify_network_changed(self) -> None:
        """The road network was mutated mid-run (street closure/reopening).

        Called by the engine *after* the instance oracle has been refreshed
        against the new topology. The base implementation rebuilds the grid
        index (cell geometry and vertex bucketing can shift with the CSR
        layout) and re-inserts every worker at its current position; the
        sharded dispatcher forwards the notification to each inner
        dispatcher.

        The pending moved-set is deliberately left untouched: a later
        ``sync_grid`` re-updating a position that is already correct is
        harmless, while draining it here could swallow a move another grid
        still needs to see.
        """
        if self.instance is None or self.fleet is None:
            return
        self.grid = self._build_grid(self.instance)
        for state in self.fleet:
            self.grid.insert(state.worker.id, state.position)

    def apply_network_update(self, mutations, now: float) -> None:
        """Absorb a live network mutation batch applied at simulated ``now``.

        ``mutations`` is the :class:`~repro.network.graph.EdgeMutation`
        sequence recorded while the engine mutated the authoritative
        network; the engine calls this *after* refreshing the instance
        oracle and rebuilding routes. In-process dispatchers share the live
        network object, so the base implementation ignores the mutation
        records and just runs :meth:`notify_network_changed`. The cluster
        dispatcher overrides this to broadcast the mutations to its worker
        replicas under a barrier acknowledgement.
        """
        del mutations, now
        self.notify_network_changed()

    def bind_flush_scheduler(self, schedule: Callable[[float], None] | None) -> None:
        """Attach the event engine's flush scheduler (``None`` detaches).

        When bound, batch dispatchers push a
        :class:`~repro.simulation.events.BatchFlush` event the moment a new
        accumulation window opens instead of relying on the driver polling
        :meth:`next_flush_time`.
        """
        self._flush_scheduler = schedule

    # --------------------------------------------------------------- running

    @abc.abstractmethod
    def dispatch(self, request: Request, now: float) -> DispatchOutcome | None:
        """Handle one released request at simulation time ``now``.

        Returns the outcome, or ``None`` if the request was deferred (batch
        dispatchers); deferred requests must eventually be resolved by
        :meth:`flush`.
        """

    def flush(self, now: float) -> list[DispatchOutcome]:
        """Resolve any deferred requests (no-op for immediate dispatchers)."""
        return []

    def next_flush_time(self) -> float | None:
        """Absolute time of the next scheduled batch flush.

        ``None`` means nothing is pending — immediate dispatchers always
        return ``None``. Part of the base interface so simulation drivers never
        need ``getattr`` probing.
        """
        return None

    def cancel(self, request: Request) -> bool:
        """Forget a deferred request (rider cancellation before the flush).

        Returns ``True`` when the request was pending inside this dispatcher
        and has been dropped; immediate dispatchers hold no deferred requests
        and return ``False``.
        """
        return False

    # --------------------------------------------------------------- helpers

    def sync_grid(self) -> None:
        """Refresh the grid index with the fleet's materialised positions.

        Only the workers that moved since the last sync are touched (the
        others' grid entries are already current).
        """
        assert self.grid is not None and self.fleet is not None
        for worker_id in self.fleet.drain_moved():
            self.grid.update(worker_id, self.fleet.peek_state(worker_id).position)

    def candidate_worker_ids(self, request: Request, now: float) -> list[int]:
        """Workers that could possibly reach the request's origin in time.

        Uses the grid index with a Euclidean reachability radius derived from
        the remaining time budget and the maximum network speed, so no feasible
        worker is ever filtered out (the filter of Algorithm 5, line 3). Under
        lazy fleet advancement the radius is widened by the fleet's position
        staleness bound plus one grid cell, keeping the filter admissible when
        grid entries lag behind workers' true progress. Off-shift workers are
        excluded; the result is sorted by worker id so ties between equally
        good candidates break deterministically regardless of grid iteration
        order.
        """
        assert self.fleet is not None
        return self.fleet.table.ids[self.candidate_rows(request, now)].tolist()

    def candidate_rows(self, request: Request, now: float) -> np.ndarray:
        """:meth:`candidate_worker_ids` as ascending rows of the fleet's route
        table — what the grid answers in, with no id in between."""
        assert self.grid is not None and self.oracle is not None and self.fleet is not None
        table = self.fleet.table
        budget_seconds = request.deadline - now
        if budget_seconds <= 0:
            return np.empty(0, dtype=np.int64)
        network = self.oracle.network
        radius_metres = budget_seconds * network.max_speed
        slack_metres = self.fleet.position_slack_metres(network.max_speed)
        if slack_metres > 0.0:
            radius_metres += slack_metres + self.grid.geometry.cell_metres
        rows = self.grid.members_near_vertex(request.origin, radius_metres)
        rows = rows[table.online[rows]]
        if not rows.size:
            # degenerate grids (single cell) or stale entries: fall back to all
            rows = table.rows_of([state.worker.id for state in self.fleet])
            rows = rows[table.online[rows]]
            rows.sort()  # fleet order is not id order once workers join
        return rows

    def plan_over_all(
        self, request: Request, rows: np.ndarray, direct: float
    ) -> tuple[float, int | None, Route | None]:
        """Planning over *every* candidate: the cheapest feasible insertion.

        Algorithm 5 without the Lemma 8 cut, in one pass: the candidates
        (ascending ``rows`` of the fleet's route table, so in worker-id order)
        are brought up to the clock (:meth:`FleetState.states_of`), their rows
        taken from the table and handed to the insertion operator's block
        entry point
        (:meth:`~repro.core.insertion.base.InsertionOperator.best_insertions`)
        in one call. The winner is the first minimum of the exact deltas —
        the smallest ``(delta, worker id)`` — and the new route is built for
        it alone. ``direct`` is ``L = dis(o_r, d_r)``; it is seeded on that
        new route only, so the direct-distance memo every successor route
        inherits grows with the requests a worker *serves*, not with those it
        was evaluated for.

        Returns ``(increased cost, worker id, new route)``, or
        ``(inf, None, None)`` when no candidate admits a feasible insertion —
        at once, without gathering a block, when there is no candidate.
        """
        assert self.fleet is not None and self.oracle is not None
        if not rows.size:
            return INFINITY, None, None
        routes = [state.route for state in self.fleet.states_of(rows)]
        found = self.insertion.best_insertions(
            routes, request, self.oracle, direct, block=self.fleet.table.take(rows)
        )
        if not (found.delta < INFINITY).any():
            return INFINITY, None, None
        winner = int(found.delta.argmin())
        best_delta = found.delta.item(winner)
        route = routes[winner].with_insertion(
            request,
            found.pickup_index.item(winner),
            found.dropoff_index.item(winner),
            self.oracle,
            direct=direct,
        )
        return best_delta, route.worker.id, route

    def memory_estimate_bytes(self) -> int:
        """Memory footprint of the dispatcher's index structures."""
        return self.grid.memory_estimate_bytes() if self.grid is not None else 0

    def extra_metrics(self) -> dict[str, float]:
        """Dispatcher-specific metrics merged into ``SimulationResult.extra``.

        The simulation backends call this once at the end of a run; the
        sharded dispatcher reports its routing and per-shard counters here.
        """
        return {}

    @property
    def is_batched(self) -> bool:
        """Whether the dispatcher defers requests to periodic flushes."""
        return False


class BatchDispatcher(Dispatcher):
    """Base class of batch-style dispatchers.

    Implements the deferral protocol once: :meth:`dispatch` appends the
    request to the pending batch and opens an accumulation window of
    ``config.batch_interval`` seconds when none is open; :meth:`flush` hands
    the accumulated batch to :meth:`assign_batch`. When an event engine is
    bound via :meth:`Dispatcher.bind_flush_scheduler`, opening a window
    immediately schedules the matching
    :class:`~repro.simulation.events.BatchFlush` event.
    """

    def __init__(self, config: DispatcherConfig | None = None) -> None:
        super().__init__(config)
        self._pending: list[Request] = []
        self._next_flush: float | None = None

    # ------------------------------------------------------------ interface

    @property
    def is_batched(self) -> bool:
        return True

    def next_flush_time(self) -> float | None:
        """Time of the next scheduled flush, or ``None`` when nothing is pending."""
        return self._next_flush

    @property
    def pending_requests(self) -> list[Request]:
        """Requests deferred into the currently open batch window."""
        return list(self._pending)

    def dispatch(self, request: Request, now: float) -> DispatchOutcome | None:
        """Defer the request to the current batch; returns ``None``."""
        self.defer(request, now)
        return None

    def defer(self, request: Request, now: float) -> None:
        """Append ``request`` to the pending batch, opening a window if needed."""
        if self._next_flush is None:
            self._next_flush = now + self.config.batch_interval
            if self._flush_scheduler is not None:
                self._flush_scheduler(self._next_flush)
        self._pending.append(request)

    def cancel(self, request: Request) -> bool:
        """Drop a deferred request from the pending batch."""
        for index, pending in enumerate(self._pending):
            if pending.id == request.id:
                del self._pending[index]
                return True
        return False

    def flush(self, now: float) -> list[DispatchOutcome]:
        """Assign the accumulated batch via :meth:`assign_batch`.

        Subclasses that want to carry a request over into the next window must
        re-defer it through :meth:`defer` from inside :meth:`assign_batch` —
        the window is closed before the batch is handed over, so ``defer``
        opens (and schedules) the next one.
        """
        self._next_flush = None
        if not self._pending:
            return []
        batch, self._pending = self._pending, []
        return self.assign_batch(batch, now)

    # ----------------------------------------------------------- subclasses

    @abc.abstractmethod
    def assign_batch(self, batch: list[Request], now: float) -> list[DispatchOutcome]:
        """Resolve one accumulated batch; one outcome per request."""
