"""A simple nearest-worker baseline (not part of the paper's evaluation).

Assigns each request to the closest worker (by Euclidean distance to the
request's origin) whose route can absorb it feasibly, without comparing
increased costs across workers. Useful as a sanity baseline in examples and
tests: every algorithm of the paper should beat it on unified cost.
"""

from __future__ import annotations

from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.types import Request
from repro.dispatch.base import Dispatcher, DispatcherConfig, DispatchOutcome


class NearestWorker(Dispatcher):
    """First-feasible assignment in order of Euclidean proximity."""

    name = "nearest"

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        insertion: InsertionOperator | None = None,
    ) -> None:
        super().__init__(config)
        self.insertion = insertion or LinearDPInsertion()

    def dispatch(self, request: Request, now: float) -> DispatchOutcome:
        assert self.fleet is not None and self.oracle is not None
        self.sync_grid()
        candidate_ids = self.candidate_worker_ids(request, now)
        network = self.oracle.network
        ordered = sorted(
            candidate_ids,
            key=lambda worker_id: network.euclidean(
                self.fleet.state_of(worker_id).position, request.origin
            ),
        )
        direct = self.oracle.distance(request.origin, request.destination)
        insertions = 0
        for worker_id in ordered:
            state = self.fleet.state_of(worker_id)
            # L is lent for the walk only: every successor route inherits the memo
            route = state.route
            route.remember_direct_distance(request, direct)
            result = self.insertion.best_insertion(route, request, self.oracle)
            route.forget_direct_distance(request)
            insertions += 1
            if not result.feasible:
                continue
            new_route = self._inserted(
                route, request, result.pickup_index, result.dropoff_index, direct
            )
            state.adopt_route(new_route, request=request)
            self.grid.update(worker_id, state.position)
            return DispatchOutcome(
                request=request,
                served=True,
                worker_id=worker_id,
                increased_cost=result.delta,
                candidates_considered=len(candidate_ids),
                insertions_evaluated=insertions,
            )
        return DispatchOutcome(
            request=request,
            served=False,
            candidates_considered=len(candidate_ids),
            insertions_evaluated=insertions,
        )
