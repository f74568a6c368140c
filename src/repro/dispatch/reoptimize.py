"""Periodic re-insertion improvement — an extension beyond the paper.

The paper's solutions are *insertion-only*: once a request is attached to a
worker it never moves, even if a later-arriving worker could serve it much
more cheaply. Its conclusion points at exactly this kind of follow-up
("opens up new opportunities ... to design efficient solutions"). This module
adds the natural next step: a **relocate local search** that periodically
revisits pending (not yet picked up) requests, removes them from their current
route and re-inserts them wherever the linear DP insertion finds the globally
cheapest feasible position, keeping the move only when it strictly reduces the
fleet's total planned cost.

Two entry points:

* :func:`reinsertion_improvement` — one improvement pass over a fleet; usable
  from any dispatcher or script;
* :class:`PruneGreedyDPReopt` — ``pruneGreedyDP`` plus an improvement pass
  every ``reoptimize_every`` dispatched requests (registered as
  ``"pruneGreedyDP+reopt"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.route import Route
from repro.core.types import Request, StopKind
from repro.dispatch.base import DispatcherConfig, DispatchOutcome
from repro.dispatch.greedy_dp import PruneGreedyDP
from repro.network.oracle import DistanceOracle
from repro.simulation.fleet import FleetState


@dataclass
class ImprovementReport:
    """Outcome of one :func:`reinsertion_improvement` pass."""

    moves: int = 0
    cost_reduction: float = 0.0
    requests_examined: int = 0


def remove_request(route: Route, request_id: int, oracle: DistanceOracle) -> Route | None:
    """Return a copy of ``route`` without the stops of ``request_id``.

    Returns ``None`` when the request is not fully pending on this route (the
    pickup already happened, or the request is not present at all) — only fully
    pending requests may be relocated.
    """
    pickup_present = any(
        stop.request.id == request_id and stop.kind is StopKind.PICKUP for stop in route.stops
    )
    dropoff_present = any(
        stop.request.id == request_id and stop.kind is StopKind.DROPOFF for stop in route.stops
    )
    if not (pickup_present and dropoff_present):
        return None
    stripped = route.without(request_id)
    stripped.refresh(oracle)
    return stripped


def reinsertion_improvement(
    fleet: FleetState,
    oracle: DistanceOracle,
    insertion: InsertionOperator | None = None,
    max_moves: int = 50,
) -> ImprovementReport:
    """One relocate pass: move pending requests to strictly cheaper positions.

    Args:
        fleet: the fleet whose planned routes are improved in place.
        oracle: shared distance oracle.
        insertion: insertion operator used for the re-insertions (linear DP by
            default).
        max_moves: stop after this many applied moves (keeps the pass bounded).

    Returns:
        An :class:`ImprovementReport` with the number of applied moves and the
        total planned-cost reduction.
    """
    operator = insertion or LinearDPInsertion()
    report = ImprovementReport()

    for state in list(fleet):
        route = state.route
        pending: list[Request] = [
            stop.request for stop in route.stops if stop.kind is StopKind.PICKUP
        ]
        for request in pending:
            if report.moves >= max_moves:
                return report
            report.requests_examined += 1
            current_route = state.route
            current_cost = current_route.planned_cost(oracle)
            stripped = remove_request(current_route, request.id, oracle)
            if stripped is None:
                continue
            stripped_cost = stripped.planned_cost(oracle)
            removal_gain = current_cost - stripped_cost

            # the smallest (delta, worker id) re-insertion across the whole
            # fleet (including the origin worker); L goes to each walk, not
            # to the evaluated routes' memos
            direct = current_route.direct_distance(request, oracle)
            best_key = (math.inf, 0)
            best_state = best_route = None
            for candidate in fleet:
                if candidate is not state and not candidate.online:
                    continue  # off-shift workers take no new requests
                base_route = stripped if candidate is state else candidate.route
                result = operator.best_insertion(base_route, request, oracle, direct)
                if result.feasible and (result.delta, candidate.worker.id) < best_key:
                    best_key = (result.delta, candidate.worker.id)
                    best_state = candidate
                    best_route = base_route.with_insertion(
                        request, result.pickup_index, result.dropoff_index, oracle,
                        direct=direct,
                    )
            if best_state is None or best_route is None:
                continue
            improvement = removal_gain - best_key[0]
            if improvement <= 0.0:
                continue

            # apply the move: strip from the origin worker, adopt on the target
            # (replace_route keeps plan versions / scheduled stop events honest)
            if best_state is state:
                state.replace_route(best_route)
            else:
                state.replace_route(stripped)
                record = state.assigned_requests.pop(request.id, None)
                best_state.replace_route(best_route)
                if record is not None:
                    best_state.assigned_requests[request.id] = record
                    record.worker_id = best_state.worker.id
            report.moves += 1
            report.cost_reduction += improvement
    return report


class PruneGreedyDPReopt(PruneGreedyDP):
    """pruneGreedyDP followed by a periodic relocate improvement pass.

    Args:
        config: shared dispatcher configuration.
        reoptimize_every: run one improvement pass after every this many
            dispatched requests (0 disables re-optimisation).
        max_moves: cap on applied moves per pass.
    """

    name = "pruneGreedyDP+reopt"

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        insertion: InsertionOperator | None = None,
        reoptimize_every: int = 20,
        max_moves: int = 25,
    ) -> None:
        super().__init__(config, insertion)
        self.reoptimize_every = reoptimize_every
        self.max_moves = max_moves
        self.total_improvement = 0.0
        self.total_moves = 0
        self._since_last_pass = 0

    def dispatch(self, request: Request, now: float) -> DispatchOutcome:
        outcome = super().dispatch(request, now)
        self._since_last_pass += 1
        if self.reoptimize_every and self._since_last_pass >= self.reoptimize_every:
            self._since_last_pass = 0
            assert self.fleet is not None and self.oracle is not None
            report = reinsertion_improvement(
                self.fleet, self.oracle, insertion=self.insertion, max_moves=self.max_moves
            )
            self.total_improvement += report.cost_reduction
            self.total_moves += report.moves
        return outcome
