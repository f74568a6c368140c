"""The ``kinetic`` baseline (Huang, Bastani, Jin, Wang — VLDB 2014).

The kinetic-tree approach maintains, for every worker, *all* feasible orderings
of its pending stops and answers an insertion by extending those orderings with
the new request's pickup and drop-off, keeping the cheapest feasible schedule.
Unlike insertion, the relative order of existing stops may change, which makes
the search exponential in the number of pending stops — the paper observes that
kinetic fails to terminate on large instances and degrades sharply with large
worker capacities.

This implementation realises the same semantics with a branch-and-bound search
over stop orderings (precedence, deadline and capacity pruning plus a running
upper bound). A configurable node budget bounds pathological cases: when the
budget is exhausted the best schedule found so far is used, mirroring the
practical behaviour of a time-limited kinetic tree.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.core.route import Route
from repro.core.types import Request, Stop, StopKind, dropoff_stop, pickup_stop
from repro.dispatch.base import Dispatcher, DispatcherConfig, DispatchOutcome
from repro.network.oracle import DistanceOracle

if TYPE_CHECKING:  # avoid a dispatch <-> simulation import cycle
    from repro.simulation.fleet import WorkerState

INFINITY = math.inf


class _ScheduleSearch:
    """Branch-and-bound search for the cheapest feasible ordering of stops."""

    def __init__(
        self,
        oracle: DistanceOracle,
        origin: int,
        start_time: float,
        initial_load: int,
        capacity: int,
        stops: list[Stop],
        onboard_ids: set[int],
        node_budget: int,
    ) -> None:
        self.oracle = oracle
        self.origin = origin
        self.start_time = start_time
        self.initial_load = initial_load
        self.capacity = capacity
        self.stops = stops
        self.onboard_ids = onboard_ids
        self.node_budget = node_budget
        self.nodes_expanded = 0
        self.best_cost = INFINITY
        self.best_order: list[int] | None = None

    def run(self) -> tuple[float, list[Stop] | None]:
        """Return ``(cost, ordering)`` of the cheapest feasible schedule."""
        if not self.stops:
            return 0.0, []
        self._search(order=[], used=0, vertex=self.origin, time=self.start_time,
                     load=self.initial_load, cost=0.0)
        if self.best_order is None:
            return INFINITY, None
        return self.best_cost, [self.stops[index] for index in self.best_order]

    def _search(
        self, order: list[int], used: int, vertex: int, time: float, load: int, cost: float
    ) -> None:
        if self.nodes_expanded > self.node_budget:
            return
        if len(order) == len(self.stops):
            if cost < self.best_cost:
                self.best_cost = cost
                self.best_order = list(order)
            return
        for index, stop in enumerate(self.stops):
            mask = 1 << index
            if used & mask:
                continue
            if stop.kind is StopKind.DROPOFF and stop.request.id not in self.onboard_ids:
                # the pickup of this request must come first
                pickup_seen = any(
                    (used >> other) & 1
                    for other, candidate in enumerate(self.stops)
                    if candidate.kind is StopKind.PICKUP
                    and candidate.request.id == stop.request.id
                )
                if not pickup_seen:
                    continue
            leg = self.oracle.distance(vertex, stop.vertex)
            arrival = time + leg
            new_cost = cost + leg
            if new_cost >= self.best_cost:
                continue
            if stop.kind is StopKind.PICKUP:
                latest = stop.request.deadline - self.oracle.distance(
                    stop.request.origin, stop.request.destination
                )
                new_load = load + stop.request.capacity
            else:
                latest = stop.request.deadline
                new_load = load - stop.request.capacity
            if arrival > latest + 1e-9 or new_load > self.capacity:
                continue
            self.nodes_expanded += 1
            order.append(index)
            self._search(order, used | mask, stop.vertex, arrival, new_load, new_cost)
            order.pop()


class Kinetic(Dispatcher):
    """Kinetic-tree style dispatcher with full schedule re-optimisation.

    Args:
        config: shared dispatcher configuration.
        node_budget: maximum number of search nodes expanded per schedule
            optimisation; generous by default so small instances are solved
            exactly.
    """

    name = "kinetic"

    def __init__(
        self, config: DispatcherConfig | None = None, node_budget: int | None = None
    ) -> None:
        super().__init__(config)
        self.node_budget = node_budget if node_budget is not None else self.config.kinetic_node_budget

    # ------------------------------------------------------------- dispatch

    def dispatch(self, request: Request, now: float) -> DispatchOutcome:
        assert self.fleet is not None and self.oracle is not None
        self.sync_grid()
        candidate_ids = self.candidate_worker_ids(request, now)

        direct = self.oracle.distance(request.origin, request.destination)
        best_delta = INFINITY
        best_worker_id: int | None = None
        best_schedule: list[Stop] | None = None
        insertions = 0

        for worker_id in candidate_ids:
            state = self.fleet.state_of(worker_id)
            if request.capacity > state.worker.capacity:
                continue
            # no L is seeded: the search queries every pickup's L itself
            delta, schedule = self._best_schedule_delta(state, request)
            insertions += 1
            if schedule is not None and delta < best_delta - 1e-9:
                best_delta = delta
                best_worker_id = worker_id
                best_schedule = schedule

        if best_worker_id is None or best_schedule is None:
            return DispatchOutcome(
                request=request,
                served=False,
                candidates_considered=len(candidate_ids),
                insertions_evaluated=insertions,
            )

        state = self.fleet.state_of(best_worker_id)
        new_route = Route(
            worker=state.worker,
            origin=state.position,
            start_time=state.position_time,
            stops=best_schedule,
        )
        new_route.remember_direct_distance(request, direct)
        new_route.refresh(self.oracle)
        state.adopt_route(new_route, request=request)
        self.grid.update(best_worker_id, state.position)
        return DispatchOutcome(
            request=request,
            served=True,
            worker_id=best_worker_id,
            increased_cost=best_delta,
            candidates_considered=len(candidate_ids),
            insertions_evaluated=insertions,
        )

    # --------------------------------------------------------------- helpers

    def _best_schedule_delta(
        self, state: "WorkerState", request: Request
    ) -> tuple[float, list[Stop] | None]:
        """Cheapest feasible schedule including ``request``, and its extra cost."""
        oracle = self.oracle
        assert oracle is not None
        route = state.route
        current_cost = route.planned_cost(oracle)
        onboard_ids = {req.id for req in route.onboard_requests()}
        extended_stops = list(route.stops) + [pickup_stop(request), dropoff_stop(request)]
        search = _ScheduleSearch(
            oracle=oracle,
            origin=route.origin,
            start_time=route.start_time,
            initial_load=route.initial_load(),
            capacity=state.worker.capacity,
            stops=extended_stops,
            onboard_ids=onboard_ids,
            node_budget=self.node_budget,
        )
        new_cost, schedule = search.run()
        if schedule is None:
            return INFINITY, None
        return new_cost - current_cost, schedule
