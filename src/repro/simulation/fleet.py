"""Fleet state: per-worker position, planned route and execution progress.

The simulator advances workers along their planned routes between dispatch
events ("when a worker is serving a request, he/she follows the planned route
and moves to the destination", Section 6.1). A worker's position is always
snapped to the last road-network vertex it passed on the concrete shortest
path towards its next stop, so insertion operators always work with graph
vertices and exact distances.

Advancement is lazy. The fleet keeps a global ``clock`` (moved forward by the
event kernel) and materialises a worker's progress only when that worker is
*touched* — read through :meth:`FleetState.state_of` /
:meth:`FleetState.states_of` or iterated. Untouched workers keep an older
materialisation; since a planned route fixes arrival times in absolute terms,
late materialisation yields the exact same stop times and travel costs.
Deliveries completed during lazy advances are buffered and drained by the
engine (:meth:`FleetState.drain_completions`). Dispatchers that need exact
positions (sharded, cluster, ``tshare``) still call ``advance_all`` before
every decision; that is :meth:`FleetState.advance_rows` over every
route-table row — **advance only what moves**: the busy workers the table's
window reports as due are walked, every other busy worker is provably
untouched by ``advance_to(clock)``, and an idle worker gets *no eager clock
at all*: it waits in place, and its ``start_time`` moves when something reads
it. A shard replica runs the same routine over its member rows, once per
clock the front door ships.

The route table
---------------

Beside the ``WorkerState`` objects the fleet keeps one struct-of-arrays mirror
of every planned route, :attr:`FleetState.table`
(:class:`~repro.simulation.route_table.RouteTable`): per worker row the stop
count, the padded ``vertex`` / ``arr`` / ``slack`` / ``picked`` arrays, the
capacity, the shift flag and the *no-op window* of the recorded concrete path.
The decision phase reads it instead of walking Python routes: candidate
filtering by the ``online`` column, the idle/busy split by ``count == 1``,
the position-staleness bound by the busy rows' ``arr[0]``, the relaxed DP by
one fancy index per array, and :meth:`FleetState.states_of` /
:meth:`FleetState.advance_rows` by the window.

* **Single writer.** ``WorkerState.route`` stays authoritative; a row is
  rewritten by :meth:`FleetState._mirror` only, which ``replace_route`` (every
  re-planning: insertion, cancellation, re-optimisation, network re-timing,
  replica plan sync), ``advance_to`` (whenever it replaced the route or
  recorded a path on it) and ``add_worker`` call. The one in-place edit that
  is not a rewrite — an idle worker's clock bump — updates ``arr[0]`` through
  :meth:`RouteTable.bump_idle`. ``online`` is written by
  :meth:`FleetState.set_online` only.
* **Re-anchors live on the route.** ``advance_to`` edits no array: a stop
  completion installs :meth:`Route.after_next_stop` (every array shifted one
  entry, no query) and a partial move installs :meth:`Route.moved_to`, which
  sets ``arr[0]`` to the new clock and keeps every later arrival, also
  without a query: the worker stands on the recorded shortest path to
  ``l_1``, so ``dis(position, l_1)`` is exactly ``arr[1]`` minus the new
  clock. Every time is on the 2⁻¹⁰ s grid and every backend answers a pair
  with the same grid value, so both re-anchors equal a fresh ``refresh`` bit
  for bit (``refresh`` would ask ``n`` queries).
  Every re-planning — including :meth:`FleetState.replan_busy` after a live
  network update — installs a fresh ``Route`` that ``refresh`` times again.
* **Window invariant.** For every busy row, ``first_edge_cost`` is the live
  cost of the first edge of ``route.concrete_path`` or ``-inf`` when no usable
  path is recorded, and ``arr[0]``/``arr[1]`` equal the route's. Whenever
  :meth:`RouteTable.due` reports a row as not due, ``advance_to(clock)`` on
  that worker returns without any side effect (no movement, no completion, no
  oracle query, no path recorded) — so lazy materialisation skips the call.
  Edge costs only change under a live network update, which re-plans every
  busy route onto a fresh ``Route`` without a recorded path. For an *idle*
  row, ``arr[0]`` (equal to the route's ``start_time``) is a **lower bound**
  on the worker's clock until it is touched: ``arr[0] <= clock`` always, and
  a touch sets both to the clock — an idempotent write that accumulates no
  float, which is why nothing has to replay it. Readers that take an idle
  ``arr[0]`` from the table (the block kernels) go through ``states_of``,
  whose :meth:`RouteTable.due` still reports a lagging idle row; advancement
  reads nothing and asks :meth:`RouteTable.busy_due`.

The fleet also tracks, for the event kernel:

* **plan versions** — :attr:`WorkerState.plan_version` increments on every
  re-planning, invalidating previously scheduled
  :class:`~repro.simulation.events.StopCompletion` events;
* **dirty plans** — which workers were re-planned since the engine last
  looked (:meth:`FleetState.drain_dirty_plans`);
* **moved positions** — which workers' materialised vertex changed (or whose
  plan was replaced) since the dispatcher's grid was last synced
  (:meth:`FleetState.drain_moved`); a worker that merely waits never shows up;
* **re-stamped plans** — whose ``(plan_version, online)`` changed since the
  cluster front door last shipped plans (:meth:`FleetState.drain_restamped`);
* **position staleness** — an upper bound on how far a moving worker may have
  travelled past its materialised position
  (:meth:`FleetState.position_slack_metres`), which the candidate filter adds
  to its search radius so lazy advancement never hides a feasible worker.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from repro.core.route import Route, empty_route
from repro.core.types import Request, StopKind, Worker
from repro.exceptions import DispatchError
from repro.network.graph import Vertex
from repro.network.oracle import DistanceOracle
from repro.simulation.route_table import RouteTable

INFINITY = math.inf


@dataclass
class ServiceRecord:
    """Completion record of one served request."""

    request: Request
    worker_id: int
    pickup_time: float | None = None
    dropoff_time: float | None = None

    @property
    def completed(self) -> bool:
        """Whether the request has been delivered."""
        return self.dropoff_time is not None

    @property
    def on_time(self) -> bool:
        """Whether the delivery met the deadline (False while still in progress)."""
        return self.dropoff_time is not None and self.dropoff_time <= self.request.deadline

    @property
    def picked_up(self) -> bool:
        """Whether the pickup already happened (cancellation is then too late)."""
        return self.pickup_time is not None


class WorkerState:
    """Execution state of one worker."""

    def __init__(
        self, worker: Worker, oracle: DistanceOracle, fleet: "FleetState | None" = None
    ) -> None:
        self.worker = worker
        self._oracle = oracle
        self._fleet = fleet
        self.route: Route = empty_route(worker, start_time=0.0)
        self.route.refresh(oracle)
        self.travelled_cost: float = 0.0
        self.assigned_requests: dict[int, ServiceRecord] = {}
        self.online: bool = True
        #: bumped on every re-planning; snapshotted by StopCompletion events.
        self.plan_version: int = 0

    # ------------------------------------------------------------ properties

    @property
    def position(self) -> Vertex:
        """Vertex the worker currently occupies (last vertex passed)."""
        return self.route.origin

    @property
    def position_time(self) -> float:
        """Time at which the worker was at :attr:`position`."""
        return self.route.start_time

    @property
    def is_idle(self) -> bool:
        """Whether the worker has no pending stop."""
        return self.route.is_empty

    @property
    def next_stop_arrival(self) -> float | None:
        """Planned arrival time at the next stop, or ``None`` when idle."""
        if self.route.is_empty:
            return None
        if len(self.route.arr) != self.route.num_stops + 1:
            self.route.refresh(self._oracle)
        return self.route.arr[1]

    # -------------------------------------------------------------- planning

    def adopt_route(self, route: Route, request: Request | None = None) -> None:
        """Replace the planned route (after a successful insertion).

        Args:
            route: the new route; must belong to the same worker.
            request: the newly inserted request, if any, so a service record is
                opened for it.
        """
        if route.worker.id != self.worker.id:
            raise DispatchError(
                f"route of worker {route.worker.id} assigned to worker {self.worker.id}"
            )
        if request is not None:
            if request.id in self.assigned_requests:
                raise DispatchError(f"request {request.id} assigned twice to worker {self.worker.id}")
            self.assigned_requests[request.id] = ServiceRecord(
                request=request, worker_id=self.worker.id
            )
            if self._fleet is not None:
                self._fleet._assignment_hint[request.id] = self.worker.id
        self.replace_route(route)

    def replace_route(self, route: Route) -> None:
        """Install ``route`` as the new plan, invalidating scheduled stop events."""
        self.route = route
        if len(route.arr) != route.num_stops + 1:
            route.refresh(self._oracle)
        self.plan_version += 1
        if self._fleet is not None:
            self._fleet._note_plan_change(self)

    def drop_request(self, request_id: int) -> bool:
        """Remove a not-yet-picked-up request from the plan (rider cancellation).

        Returns ``True`` when the request was pending on this worker and its
        stops were removed; ``False`` when it is unknown here or the pickup
        already happened (the trip then completes normally).
        """
        record = self.assigned_requests.get(request_id)
        if record is None or record.picked_up:
            return False
        del self.assigned_requests[request_id]
        if self._fleet is not None:
            self._fleet._assignment_hint.pop(request_id, None)
        self.replace_route(self.route.without(request_id))
        return True

    # ------------------------------------------------------------- execution

    def advance_to(self, now: float) -> list[ServiceRecord]:
        """Move the worker along its planned route until time ``now``.

        Completed stops update pickup/drop-off times of the corresponding
        service records; the travelled cost is accumulated exactly. Returns the
        service records completed (delivered) during this advance.
        """
        completed: list[ServiceRecord] = []
        oracle = self._oracle
        entered_with = self.route
        bumped = recorded = False  # in-place edits of a surviving route object
        while True:
            route = self.route
            if route.is_empty:
                # idle workers wait in place; their clock still moves forward
                if now > route.start_time:
                    route.start_time = now
                    route.refresh(oracle)
                    bumped = True
                break
            if len(route.arr) != route.num_stops + 1:
                route.refresh(oracle)
            next_arrival = route.arr[1]
            if next_arrival <= now:
                # the worker reaches the next stop
                stop = route.stops[0]
                self.travelled_cost += next_arrival - route.arr[0]
                record = self.assigned_requests.get(stop.request.id)
                if record is not None:
                    # Clamp the *recorded* service times to their physical
                    # bounds: a rider cannot be picked up before appearing,
                    # nor dropped off before the pickup. A re-plan from a
                    # vertex-snapped position (whose start_time lags the
                    # clock by up to one edge traversal) can schedule model
                    # arrivals slightly earlier than that; cost accounting
                    # keeps the exact model times, the service record does
                    # not time-travel.
                    if stop.kind is StopKind.PICKUP:
                        record.pickup_time = max(next_arrival, stop.request.release_time)
                    else:
                        record.dropoff_time = (
                            next_arrival
                            if record.pickup_time is None
                            else max(next_arrival, record.pickup_time)
                        )
                        completed.append(record)
                self.route = route.after_next_stop()
                continue
            # partially advance along the concrete shortest path to the next
            # stop, continuing the path chosen at the previous advance when
            # one is recorded (re-planning always builds fresh Route objects,
            # so a recorded path is never stale)
            budget = now - route.arr[0]
            if budget <= 0.0:
                break
            next_stop = route.stops[0].vertex
            cached_path = route.concrete_path
            if (
                cached_path is not None
                and cached_path[0] == route.origin
                and cached_path[-1] == next_stop
            ):
                path = cached_path
            else:
                path = oracle.path(route.origin, next_stop)
            moved_cost = 0.0
            position = route.origin
            passed = 0
            for u, v in zip(path, path[1:]):
                edge_cost = oracle.network.edge_cost(u, v)
                if moved_cost + edge_cost > budget:
                    break
                moved_cost += edge_cost
                position = v
                passed += 1
            if position != route.origin:
                self.travelled_cost += moved_cost
                self.route = route.moved_to(
                    position, route.arr[0] + moved_cost, tuple(path[passed:])
                )
            elif cached_path is None:
                # remember the freshly derived path even when the budget was
                # too small to pass a vertex
                route.concrete_path = tuple(path)
                recorded = True
            break
        if self._fleet is not None:
            if recorded or self.route is not entered_with:
                self._fleet._mirror(self)
            elif bumped:
                self._fleet.table.bump_idle(self.worker.id, now)
        return completed

    def finish_route(self) -> list[ServiceRecord]:
        """Complete every pending stop (used at the end of the simulation)."""
        return self.advance_to(INFINITY)

    # -------------------------------------------------------------- metrics

    def total_cost(self) -> float:
        """Travelled cost so far plus the remaining planned cost ``D(S_w)``."""
        return self.travelled_cost + self.route.planned_cost(self._oracle)


class FleetState:
    """The collection of all worker states plus convenience accessors.

    Workers materialise their progress up to :attr:`clock` when accessed
    through :meth:`state_of`, :meth:`states_of` or iteration; completions
    observed during those advances are buffered for :meth:`drain_completions`.

    Args:
        workers: the fleet.
        oracle: shared distance oracle.
    """

    def __init__(self, workers: list[Worker], oracle: DistanceOracle) -> None:
        if not workers:
            raise DispatchError("a fleet needs at least one worker")
        self.oracle = oracle
        #: current simulated time; advanced by the engine / ``advance_all``.
        self.clock: float = 0.0
        #: wall-clock seconds spent materialising lazy progress; the event
        #: engine subtracts this from its dispatch timer, so the paper's
        #: response-time metric measures dispatcher work, not fleet movement.
        self.materialisation_seconds: float = 0.0
        self._completions: list[ServiceRecord] = []
        self._dirty_plans: set[int] = set()
        self._moved: set[int] = set()
        self._restamped: set[int] = set()
        #: request id -> worker id of the (probable) current assignee; kept as
        #: a hint — re-optimisation passes may move requests between workers
        #: behind the fleet's back, so :meth:`find_assignment` verifies and
        #: self-heals via a scan on a miss.
        self._assignment_hint: dict[int, int] = {}
        self.states: dict[int, WorkerState] = {
            worker.id: WorkerState(worker, oracle, fleet=self) for worker in workers
        }
        #: worker id -> place in fleet (insertion) order: table rows are
        #: ordered by id, completions are reported in fleet order.
        self._order: dict[int, int] = {
            worker_id: place for place, worker_id in enumerate(self.states)
        }
        #: struct-of-arrays mirror of every route (see the module docstring).
        self.table = RouteTable(workers)

    def __iter__(self):
        for state in self.states.values():
            self._materialise(state)
        return iter(self.states.values())

    def __len__(self) -> int:
        return len(self.states)

    # ---------------------------------------------------------------- access

    def state_of(self, worker_id: int) -> WorkerState:
        """State of the worker with identifier ``worker_id``.

        The worker is first advanced to :attr:`clock`, so callers always
        observe positions and arrival arrays as of "now".
        """
        try:
            state = self.states[worker_id]
        except KeyError as exc:
            raise DispatchError(f"unknown worker {worker_id}") from exc
        self._materialise(state)
        return state

    def states_of(self, rows: np.ndarray) -> list[WorkerState]:
        """Materialised states of the workers on route-table ``rows`` (the
        decision phase's accessor), aligned with ``rows``.

        Equivalent to ``[state_of(w) for w in table.ids[rows]]``, but asks the
        route table which of the workers an ``advance_to(clock)`` would
        change and materialises only those: candidate sets touch hundreds of
        workers per event, nearly all of them mid-edge.
        """
        states = self.states
        result = [states[worker_id] for worker_id in self.table.ids[rows].tolist()]
        for index in np.flatnonzero(self.table.due(rows, self.clock)).tolist():
            self._materialise(result[index])
        return result

    def idle_partition(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split candidate table rows into idle and busy workers.

        Returns ``(idle_mask, idle_origins, busy_rows)`` with ``idle_mask``
        aligned to ``rows``. Valid at the current clock without touching any
        state: an idle worker waits in place and can only gain stops through
        a re-planning, which rewrites its row. Workers busy at their last
        touch count as busy even if their route has since completed — callers
        materialise those through :meth:`states_of`.
        """
        table = self.table
        mask = table.count[rows] == 1
        return mask, table.vertex[0, rows[mask]], rows[~mask]

    def in_fleet_order(self, worker_ids) -> list[int]:
        """``worker_ids`` sorted by fleet (insertion) order, the order of iteration."""
        return sorted(worker_ids, key=self._order.__getitem__)

    def peek_state(self, worker_id: int) -> WorkerState:
        """State accessor that never advances (event-engine bookkeeping)."""
        try:
            return self.states[worker_id]
        except KeyError as exc:
            raise DispatchError(f"unknown worker {worker_id}") from exc

    # --------------------------------------------------------- fleet growth

    def add_worker(self, worker: Worker, at_time: float | None = None) -> WorkerState:
        """Add a new worker to the live fleet (online fleet growth).

        The worker appears idle at its initial location at ``at_time``
        (default: the fleet clock) and gets its own route-table row. The
        caller (engine / service) is responsible for indexing the worker in
        the dispatcher's grid.
        """
        if worker.id in self.states:
            raise DispatchError(f"worker {worker.id} is already in the fleet")
        if at_time is None:
            at_time = self.clock
        state = WorkerState(worker, self.oracle, fleet=self)
        if at_time > 0.0:
            state.route.start_time = at_time
            state.route.arr[0] = at_time
        self.states[worker.id] = state
        self._order[worker.id] = len(self._order)
        self.table.add_row(worker)
        self._mirror(state)
        return state

    # ---------------------------------------------------------- availability

    def is_available(self, worker_id: int) -> bool:
        """Whether the worker is on shift and may receive new assignments."""
        return self.states[worker_id].online

    def set_online(self, worker_id: int, online: bool) -> None:
        """Toggle a worker's shift status (event-kernel worker dynamics)."""
        self.peek_state(worker_id).online = online
        self.table.online[self.table.row_of(worker_id)] = online
        self._restamped.add(worker_id)

    # ------------------------------------------------------------- execution

    def set_clock(self, now: float) -> None:
        """Move the fleet's lazy clock forward (monotone; engine only)."""
        if now > self.clock:
            self.clock = now

    def advance_all(self, now: float) -> list[ServiceRecord]:
        """Advance the fleet to time ``now``; returns completed deliveries.

        Advances what the route table's window reports as moving
        (:meth:`advance_rows` over every row).
        """
        return self.advance_rows(slice(None), now)

    def advance_rows(self, rows: "np.ndarray | slice", now: float) -> list[ServiceRecord]:
        """Advance the busy, due workers among table ``rows`` to time ``now``.

        The fleet's one table-driven advancement routine: the front door runs
        it over every row (:meth:`advance_all`), a shard replica over its
        member rows once per shipped clock. Only rows
        :meth:`RouteTable.busy_due` reports are walked — for every other busy
        row ``advance_to(now)`` has no side effect (the window invariant) and
        an idle row's clock is left to the next touch. Deliveries come back in
        fleet order, and only workers whose vertex changed are marked moved.
        """
        self.set_clock(now)
        table = self.table
        due = table.ids[rows][table.busy_due(rows, now)]
        completed: list[ServiceRecord] = []
        for worker_id in self.in_fleet_order(due.tolist()):
            completed.extend(self._advance(self.states[worker_id], now))
        return completed

    def _advance(self, state: WorkerState, now: float) -> list[ServiceRecord]:
        """``advance_to(now)``, marking the worker moved when its vertex changed."""
        position_before = state.route.origin
        completed = state.advance_to(now)
        if state.route.origin != position_before:
            self._moved.add(state.worker.id)
        return completed

    def replan_busy(self) -> None:
        """Rebuild every busy route from its stops after a live network update.

        The fresh routes carry no leg costs, recorded path or direct
        distances, so ``replace_route`` re-times them on the new topology.
        """
        for worker_id in sorted(self.states):
            state = self.states[worker_id]
            route = state.route
            if route.stops:
                state.replace_route(
                    Route(
                        worker=route.worker,
                        origin=route.origin,
                        start_time=route.start_time,
                        stops=list(route.stops),
                    )
                )

    def finish_all(self) -> list[ServiceRecord]:
        """Complete every pending route at the end of the simulation."""
        completed: list[ServiceRecord] = []
        for state in self.states.values():
            completed.extend(state.finish_route())
            self._moved.add(state.worker.id)
        return completed

    def _materialise(self, state: WorkerState) -> None:
        """Advance ``state`` to the fleet clock, buffering completions."""
        route = state.route
        clock = self.clock
        if not route.stops:
            # idle clock bump: the worker waits in place, so advancing is
            # just arr[0] = start_time = clock — no movement, no resync
            if route.start_time < clock:
                route.start_time = clock
                if len(route.arr) == 1:
                    route.arr[0] = clock
                else:
                    route.refresh(self.oracle)
                self.table.bump_idle(state.worker.id, clock)
            return
        # the hot decision phase touches every candidate once per event and
        # most sit mid-edge: when the route table's window shows an
        # advance_to(clock) would be a no-op walk, skip it
        if not self.table.is_due(state.worker.id, clock):
            return
        started = _time.perf_counter()
        completed = self._advance(state, clock)
        self.materialisation_seconds += _time.perf_counter() - started
        if completed:
            self._completions.extend(completed)

    # ------------------------------------------------------- change tracking

    def _note_plan_change(self, state: WorkerState) -> None:
        worker_id = state.worker.id
        self._dirty_plans.add(worker_id)
        self._moved.add(worker_id)
        self._restamped.add(worker_id)
        self._mirror(state)

    def _mirror(self, state: WorkerState) -> None:
        """Rewrite the worker's route-table row from ``state.route``."""
        self.table.write(state.worker.id, state.route, self.oracle.network)

    def drain_dirty_plans(self) -> list[int]:
        """Workers re-planned since the last drain (engine event scheduling)."""
        drained = sorted(self._dirty_plans)
        self._dirty_plans.clear()
        return drained

    def drain_restamped(self) -> set[int]:
        """Workers whose ``(plan_version, online)`` changed since the last drain
        (the cluster front door ships exactly those plans to the replicas)."""
        drained = self._restamped
        self._restamped = set()
        return drained

    def drain_completions(self) -> list[ServiceRecord]:
        """Deliveries completed during lazy advances since the last drain."""
        drained = self._completions
        self._completions = []
        return drained

    def drain_moved(self) -> list[int]:
        """Workers whose materialised position changed since the last drain."""
        drained = sorted(self._moved)
        self._moved.clear()
        return drained

    def position_slack_metres(self, max_speed: float) -> float:
        """Upper bound (metres) on any worker's drift past its materialised position.

        Idle workers do not move, and a moving worker materialised at
        ``position_time`` can have travelled at most
        ``(clock - position_time) * max_speed`` metres since. The candidate
        filter adds this slack to its reachability radius so that lazy
        advancement can only *widen* (never narrow) the candidate superset.
        """
        table = self.table
        busy = table.count > 1
        if not busy.any():
            return 0.0
        oldest = float(table.arr[0, busy].min())
        return max(self.clock - oldest, 0.0) * max_speed

    # -------------------------------------------------------------- metrics

    def total_travel_cost(self) -> float:
        """Sum of travelled + planned costs over the fleet (``sum_w D(S_w)``)."""
        return sum(state.total_cost() for state in self.states.values())

    def positions(self) -> dict[int, int]:
        """Current vertex of every worker, keyed by worker id."""
        return {state.worker.id: state.position for state in self}

    def find_assignment(self, request_id: int) -> WorkerState | None:
        """Worker currently holding ``request_id``, if any (cancellation path).

        O(1) via the assignment hint in the common case; falls back to a scan
        (and heals the hint) when a re-optimisation pass moved the request
        between workers since it was assigned.
        """
        hinted = self._assignment_hint.get(request_id)
        if hinted is not None:
            state = self.states.get(hinted)
            if state is not None and request_id in state.assigned_requests:
                return state
        for state in self.states.values():
            if request_id in state.assigned_requests:
                self._assignment_hint[request_id] = state.worker.id
                return state
        self._assignment_hint.pop(request_id, None)
        return None
