"""Event-driven simulation kernel for the online URPSM setting.

The kernel implements the online protocol of Section 6.1 of the paper:
requests become known only at their release time; between two events every
worker moves along its planned route; the dispatcher either assigns a new
request (updating one worker's route) or rejects it, and rejections are
irrevocable; batch-style dispatchers may defer requests until their next
flush; at the end of the stream all pending stops are completed and the
unified cost is evaluated over the full executed plan. Wall-clock dispatcher
time is measured per request to reproduce the paper's *response time*
metric. The kernel is heap-ordered:

* every moment of interest is a typed :mod:`~repro.simulation.events` event —
  request arrivals, batch-window expiries, workers reaching stops, workers
  going on/off shift, rider cancellations;
* events are processed in the documented deterministic order
  ``(time, priority, scheduling sequence)``;
* fleet advancement is **lazy**: only workers actually touched by an event
  materialise their progress (the fleet clock plus per-worker
  materialisation replaces ``advance_all`` over the full fleet), and
  :class:`~repro.simulation.events.StopCompletion` events generated from the
  planned routes replace polling;
* batch dispatchers schedule their own
  :class:`~repro.simulation.events.BatchFlush` events through
  :meth:`~repro.dispatch.base.Dispatcher.bind_flush_scheduler`; a
  productivity guard bounds the final drain so a misbehaving dispatcher
  raises instead of hanging the simulation.

The public entry point is the service facade
(:class:`~repro.service.facade.MatchingService`), which drives this kernel.

Incremental protocol
--------------------

Batch replay (:meth:`EventEngine.run`) seeds every arrival up front and drains
the heap in one loop. The online service facade
(:class:`~repro.service.facade.MatchingService`) instead drives the engine
*incrementally* through :meth:`EventEngine.start` /
:meth:`EventEngine.submit` / :meth:`EventEngine.advance_until` /
:meth:`EventEngine.finish`: each submission schedules its own
:class:`~repro.simulation.events.RequestArrival` and pumps the heap exactly up
to (and through) that arrival. Because event types are totally ordered by
``(time, priority, seq)`` and priorities disambiguate all cross-type ties, the
incremental drive processes events in the *same order* as the batch replay —
which is what makes service-driven runs metric-identical to
:meth:`EventEngine.run`.
"""

from __future__ import annotations

import heapq
import time as _time
from typing import Callable

from repro.core.instance import URPSMInstance
from repro.core.types import Request, Worker
from repro.dispatch.base import Dispatcher, DispatchOutcome
from repro.exceptions import ConfigurationError, DispatchError
from repro.simulation.events import (
    BatchFlush,
    Event,
    RequestArrival,
    RequestCancellation,
    StopCompletion,
    WorkerOffline,
    WorkerOnline,
)
from repro.simulation.fleet import FleetState, ServiceRecord
from repro.simulation.metrics import MetricsCollector, SimulationResult

#: Consecutive flushes yielding no outcome before the kernel declares the
#: batch drain non-terminating. A well-behaved dispatcher produces at most one
#: empty flush per window before reporting ``next_flush_time() is None``.
MAX_UNPRODUCTIVE_FLUSHES = 64


class EventEngine:
    """Heap-ordered event kernel running one dispatcher over one instance.

    Args:
        instance: the problem instance (validated before the run).
        dispatcher: the algorithm under test.
        collect_completions: also track waiting times / detour ratios of
            completed requests (slightly more bookkeeping).
    """

    def __init__(
        self,
        instance: URPSMInstance,
        dispatcher: Dispatcher,
        collect_completions: bool = True,
    ) -> None:
        instance.validate()
        self.instance = instance
        self.dispatcher = dispatcher
        self.collect_completions = collect_completions
        self.fleet = FleetState(instance.workers, instance.oracle)
        self.metrics = MetricsCollector(
            algorithm=dispatcher.name,
            instance_name=instance.name,
            alpha=instance.objective.alpha,
        )
        self.clock: float = 0.0
        #: total events popped off the queue (benchmark observability).
        self.events_processed: int = 0
        self._heap: list[tuple[tuple[float, int, int], Event]] = []
        self._seq = 0
        self._requests_by_id = {request.id: request for request in instance.requests}
        #: ids whose arrival has been fed into the stream (seeded by run() or
        #: submitted online); guards double submission and distinguishes
        #: "never submitted" from "already resolved" on cancellation.
        self._submitted_ids: set[int] = set()
        self._scheduled_flush_times: set[float] = set()
        self._unproductive_flushes = 0
        self._started = False
        self._finished = False
        #: outcome of the most recent RequestArrival (``None`` = deferred);
        #: read by :meth:`submit` right after pumping through the arrival.
        self.last_outcome: DispatchOutcome | None = None
        #: observer called as ``on_outcome(outcome, now)`` for every recorded
        #: dispatch outcome — the service facade turns these into decisions.
        self.on_outcome: Callable[[DispatchOutcome, float], None] | None = None
        #: observer called as ``on_cancellation(request, status, now)`` for
        #: every processed cancellation (client- or dynamics-initiated) so the
        #: facade can resolve still-open deferred decisions.
        self.on_cancellation: Callable[[Request, str, float], None] | None = None
        #: observer called as ``on_completion(record, now)`` for every
        #: delivered service record, independent of metric collection — the
        #: stress harness checks invariants (waits, deadlines) on raw records.
        self.on_completion: Callable[[ServiceRecord, float], None] | None = None
        self._last_cancel_status = "unknown_request"
        self._handlers = {
            RequestArrival: self._handle_arrival,
            BatchFlush: self._handle_flush,
            StopCompletion: self._handle_stop_completion,
            WorkerOnline: self._handle_worker_online,
            WorkerOffline: self._handle_worker_offline,
            RequestCancellation: self._handle_cancellation,
        }

    # ------------------------------------------------------------ scheduling

    def schedule(self, event: Event) -> None:
        """Push ``event`` onto the queue (events in the past fire "now")."""
        self._seq += 1
        heapq.heappush(self._heap, (event.sort_key(self._seq), event))

    def _schedule_flush(self, when: float) -> None:
        """Flush scheduler handed to the dispatcher (deduplicated per time)."""
        when = max(when, self.clock)
        if when in self._scheduled_flush_times:
            return
        self._scheduled_flush_times.add(when)
        self.schedule(BatchFlush(time=when))

    def _seed_dynamics(self) -> None:
        dynamics = self.instance.dynamics
        if dynamics is None:
            return
        for cancellation in dynamics.cancellations:
            self.schedule(
                RequestCancellation(time=cancellation.time, request_id=cancellation.request_id)
            )
        for shift in dynamics.shifts:
            if shift.start > 0.0:
                self.fleet.set_online(shift.worker_id, False)
                self.schedule(WorkerOnline(time=shift.start, worker_id=shift.worker_id))
            if shift.end is not None:
                self.schedule(WorkerOffline(time=shift.end, worker_id=shift.worker_id))

    # ----------------------------------------------------------------- main

    def start(self) -> None:
        """Bind the dispatcher and seed the dynamics events (idempotent).

        Called implicitly by :meth:`run` and by every incremental entry point,
        so drivers never need to sequence it themselves.
        """
        if self._started:
            return
        self._started = True
        self.instance.oracle.reset_counters()
        self.dispatcher.setup(self.instance, self.fleet)
        self.dispatcher.bind_flush_scheduler(self._schedule_flush)
        self._seed_dynamics()

    def run(self) -> SimulationResult:
        """Batch replay: seed every arrival, process every event, finalise."""
        self.start()
        for request in self.instance.requests:
            self._submitted_ids.add(request.id)
            self.schedule(RequestArrival(time=request.release_time, request=request))
        return self.finish()

    def finish(self) -> SimulationResult:
        """Drain the remaining events and return the aggregated metrics."""
        if self._finished:
            raise DispatchError("the engine has already been drained")
        self.start()
        while self._heap:
            self._step()
        # all events drained: let every worker finish its remaining route
        self._record_completions(self.fleet.finish_all())
        self._record_completions(self.fleet.drain_completions())
        self._finished = True
        # dispatchers owning extra oracles (sharded, local backends) fold
        # their counters into the headline totals; None = everything already
        # lives on the instance's oracle
        totals = self.dispatcher.oracle_counter_totals()
        return self.metrics.finalise(
            total_travel_cost=self.fleet.total_travel_cost(),
            oracle_counters=totals if totals is not None else self.instance.oracle.counters,
            index_memory_bytes=self.dispatcher.memory_estimate_bytes(),
            dispatcher_extra=self.dispatcher.extra_metrics(),
        )

    def _step(self) -> Event:
        """Pop and handle the next event; returns the handled event."""
        _, event = heapq.heappop(self._heap)
        self.clock = event.time
        self.fleet.set_clock(event.time)
        self.events_processed += 1
        self._handlers[type(event)](event)
        return event

    # ------------------------------------------------------- online interface

    def submit(self, request: Request) -> DispatchOutcome | None:
        """Feed one request into the stream and process it immediately.

        Schedules the request's :class:`~repro.simulation.events.
        RequestArrival` and pumps the heap *through* that arrival, so every
        event ordered before it (stop completions, batch flushes, shift
        changes) is processed first — exactly the order the batch replay
        would use. Returns the dispatch outcome, or ``None`` when a batch
        dispatcher deferred the request.
        """
        self.start()
        if self._finished:
            raise DispatchError("cannot submit to a drained engine")
        if request.release_time < self.clock:
            raise DispatchError(
                f"request {request.id} released at t={request.release_time:.3f} but "
                f"the engine clock is already at t={self.clock:.3f}; submissions "
                "must be time-ordered"
            )
        known = self._requests_by_id.get(request.id)
        if request.id in self._submitted_ids or (known is not None and known is not request):
            raise DispatchError(f"duplicate request id {request.id}")
        self._requests_by_id[request.id] = request
        self._submitted_ids.add(request.id)
        arrival = RequestArrival(time=max(request.release_time, self.clock), request=request)
        self.schedule(arrival)
        self._pump_through(arrival)
        return self.last_outcome

    def advance_until(self, now: float) -> None:
        """Process every event due up to ``now`` and move the clock there."""
        self.start()
        if self._finished:
            raise DispatchError("cannot advance a drained engine")
        while self._heap and self._heap[0][0][0] <= now:
            self._step()
        if now > self.clock:
            self.clock = now
            self.fleet.set_clock(now)

    def cancel_request(self, request_id: int) -> str:
        """Cancel a request "now"; returns the documented cancellation status.

        The cancellation is scheduled as a regular
        :class:`~repro.simulation.events.RequestCancellation` at the current
        clock (so pending same-time events keep their documented order) and
        processed immediately. Status values: ``"unknown_request"``,
        ``"removed_from_batch"``, ``"removed_from_route"``, ``"too_late"``.
        """
        self.start()
        if self._finished:
            raise DispatchError("cannot cancel on a drained engine")
        event = RequestCancellation(time=self.clock, request_id=request_id)
        self.schedule(event)
        self._pump_through(event)
        return self._last_cancel_status

    def add_worker(self, worker: Worker) -> None:
        """Add a new worker to the live fleet (online fleet growth).

        The worker materialises at its initial location at the current clock
        and is indexed by the dispatcher (the sharded dispatcher buckets it
        into the shard containing its position).
        """
        self.start()
        if self._finished:
            raise DispatchError("cannot add workers to a drained engine")
        self.fleet.add_worker(worker, at_time=self.clock)
        self.dispatcher.notify_worker_added(worker.id)

    def apply_network_update(self, mutate: Callable[[object], None]) -> None:
        """Mutate the road network mid-run (street closure / reopening).

        ``mutate`` is called with the live :class:`~repro.network.graph.
        RoadNetwork` and may add/remove edges or vertices. The engine then
        re-derives every piece of distance-dependent state, in order:

        1. the whole fleet is materialised to the current clock, so every
           worker sits on a concrete vertex and no cached concrete path is
           walked across the mutation boundary;
        2. the instance oracle brings its backend up to date
           (:meth:`~repro.network.oracle.DistanceOracle.refresh_topology`):
           an APSP table is repaired in place (only the cells the closed or
           reopened streets can change; milliseconds), a contraction
           hierarchy is rebuilt in full;
        3. every non-idle route is rebuilt from its surviving stops
           (:meth:`~repro.simulation.fleet.FleetState.replan_busy`) — fresh
           :class:`~repro.core.route.Route` objects drop cached concrete
           paths, leg costs and per-request direct distances, and
           ``replace_route`` re-times the plan and bumps the plan version so
           stale :class:`~repro.simulation.events.StopCompletion` events are
           ignored;
        4. the dispatcher absorbs the update
           (:meth:`~repro.dispatch.base.Dispatcher.apply_network_update`) —
           in-process dispatchers re-derive their spatial index; the cluster
           dispatcher additionally broadcasts the recorded
           :class:`~repro.network.graph.EdgeMutation` batch to its worker
           replicas under a barrier acknowledgement.

        Existing commitments are kept: closures can make planned arrivals
        slip past deadlines, which is reported as deadline violations — the
        honest outcome of a street closing under committed trips.

        Raises:
            ConfigurationError: for dispatchers that declare themselves
                unable to absorb live network updates.
            DispatchError: on a drained engine.
        """
        self.start()
        if self._finished:
            raise DispatchError("cannot mutate the network of a drained engine")
        if not self.dispatcher.supports_network_updates:
            raise ConfigurationError(
                f"dispatcher {self.dispatcher.name!r} cannot apply live network "
                "updates; use a dispatcher that supports disruption scenarios"
            )
        self._record_completions(self.fleet.advance_all(self.clock))
        network = self.instance.network
        network.begin_mutation_capture()
        try:
            mutate(network)
        finally:
            mutations = network.end_mutation_capture()
        self.instance.oracle.refresh_topology()
        self.fleet.replan_busy()
        self.dispatcher.apply_network_update(mutations, self.clock)
        self._post_dispatcher()

    def set_worker_online(self, worker_id: int, online: bool) -> None:
        """Toggle a worker's availability (online retire / reinstate)."""
        self.start()
        if self._finished:
            raise DispatchError("cannot toggle workers on a drained engine")
        self.fleet.set_online(worker_id, online)
        if online:
            # materialise so the idle clock starts now, not at the retire time
            self.fleet.state_of(worker_id)
            self._record_completions(self.fleet.drain_completions())

    def _pump_through(self, target: Event) -> None:
        """Process heap events in order until ``target`` has been handled."""
        while self._heap:
            if self._step() is target:
                return
        raise DispatchError("scheduled event disappeared from the queue")

    # -------------------------------------------------------------- handlers

    def _handle_arrival(self, event: RequestArrival) -> None:
        self._materialise_for_dispatcher()
        outcome, elapsed = self._timed_call(
            lambda: self.dispatcher.dispatch(event.request, self.clock)
        )
        self.metrics.record_dispatch_time(elapsed)
        self.last_outcome = outcome
        if outcome is None:
            # deferred: a BatchDispatcher scheduled its own flush through the
            # bound scheduler; cover dispatchers that only expose the polling
            # protocol as well.
            self._ensure_flush_scheduled()
        else:
            self._record_outcome(outcome)
        self._unproductive_flushes = 0
        self._post_dispatcher()

    def _handle_flush(self, event: BatchFlush) -> None:
        self._scheduled_flush_times.discard(event.time)
        dispatcher = self.dispatcher
        if not dispatcher.is_batched:
            return
        next_flush = dispatcher.next_flush_time()
        if next_flush is None or next_flush != event.time:
            return  # superseded: the window moved or was already drained
        self._materialise_for_dispatcher()
        outcomes, elapsed = self._timed_call(lambda: dispatcher.flush(event.time))
        self.metrics.record_dispatch_time(elapsed)
        for outcome in outcomes:
            self._record_outcome(outcome)
        if outcomes:
            self._unproductive_flushes = 0
        else:
            self._unproductive_flushes += 1
            if self._unproductive_flushes > MAX_UNPRODUCTIVE_FLUSHES:
                raise DispatchError(
                    f"{dispatcher.name}: {self._unproductive_flushes} consecutive batch "
                    "flushes produced no outcome while next_flush_time() kept returning "
                    "a deadline — the batch drain does not terminate"
                )
        self._post_dispatcher()
        self._ensure_flush_scheduled()

    def _handle_stop_completion(self, event: StopCompletion) -> None:
        state = self.fleet.peek_state(event.worker_id)
        if state.plan_version != event.plan_version:
            return  # the route was re-planned; a fresher event exists
        state = self.fleet.state_of(event.worker_id)  # materialise through the stop
        self._record_completions(self.fleet.drain_completions())
        self._schedule_next_stop(event.worker_id)

    def _handle_worker_online(self, event: WorkerOnline) -> None:
        self.fleet.set_online(event.worker_id, True)
        # materialise so the idle clock starts at the shift start, not at 0
        self.fleet.state_of(event.worker_id)

    def _handle_worker_offline(self, event: WorkerOffline) -> None:
        self.fleet.set_online(event.worker_id, False)

    def _handle_cancellation(self, event: RequestCancellation) -> None:
        request = self._requests_by_id.get(event.request_id)
        if request is None or event.request_id not in self._submitted_ids:
            # never fed into the stream (instance requests are known up front
            # for replay, but cancelling one before submission is still a
            # cancellation of an unknown request)
            self._last_cancel_status = "unknown_request"
            return
        if self.dispatcher.cancel(request):
            # still deferred in a batch window: it never produced an outcome
            self._last_cancel_status = "removed_from_batch"
            self.metrics.record_cancellation(request, was_assigned=False)
        else:
            holder = self.fleet.find_assignment(event.request_id)
            if holder is None:
                # already rejected (irrevocable) or already delivered
                self._last_cancel_status = "too_late"
            else:
                # materialise first: the pickup may have happened before "now"
                # without having been observed yet
                state = self.fleet.state_of(holder.worker.id)
                self._record_completions(self.fleet.drain_completions())
                if state.drop_request(event.request_id):
                    self._last_cancel_status = "removed_from_route"
                    self.metrics.record_cancellation(request, was_assigned=True)
                    self._post_dispatcher()
                else:
                    self._last_cancel_status = "too_late"
        if self.on_cancellation is not None:
            self.on_cancellation(request, self._last_cancel_status, self.clock)

    # --------------------------------------------------------------- helpers

    def _record_outcome(self, outcome: DispatchOutcome) -> None:
        """Record an outcome, notifying the service observer when bound."""
        self.metrics.record_outcome(outcome)
        if self.on_outcome is not None:
            self.on_outcome(outcome, self.clock)

    def _timed_call(self, call):
        """Run ``call`` measuring dispatcher time net of lazy materialisation.

        Lazy advancement happens *inside* dispatcher calls (``state_of``
        materialises candidates on access) but is fleet-execution work, not
        matching work — exclude it, because the paper's response time is the
        dispatcher's time per request, not the time workers take to move.
        """
        fleet = self.fleet
        materialisation_before = fleet.materialisation_seconds
        started = _time.perf_counter()
        result = call()
        elapsed = _time.perf_counter() - started
        elapsed -= fleet.materialisation_seconds - materialisation_before
        return result, max(elapsed, 0.0)

    def _materialise_for_dispatcher(self) -> None:
        """Advance the whole fleet for dispatchers with lossy candidate search."""
        if self.dispatcher.requires_exact_positions:
            self._record_completions(self.fleet.advance_all(self.clock))

    def _post_dispatcher(self) -> None:
        """Bookkeeping after any dispatcher interaction or re-planning."""
        self._record_completions(self.fleet.drain_completions())
        for worker_id in self.fleet.drain_dirty_plans():
            self._schedule_next_stop(worker_id)

    def _schedule_next_stop(self, worker_id: int) -> None:
        state = self.fleet.peek_state(worker_id)
        arrival = state.next_stop_arrival
        if arrival is None:
            return
        self.schedule(
            StopCompletion(
                time=max(arrival, self.clock),
                worker_id=worker_id,
                plan_version=state.plan_version,
            )
        )

    def _ensure_flush_scheduled(self) -> None:
        next_flush = self.dispatcher.next_flush_time()
        if next_flush is not None:
            self._schedule_flush(next_flush)

    def _record_completions(self, completions: list[ServiceRecord]) -> None:
        if self.on_completion is not None:
            for record in completions:
                self.on_completion(record, self.clock)
        if not self.collect_completions:
            return
        oracle = self.instance.oracle
        for record in completions:
            direct = oracle.distance(record.request.origin, record.request.destination)
            self.metrics.record_completion(record, direct)
