"""The ``tshare`` baseline (Ma, Zheng, Wolfson — ICDE 2013).

T-Share answers each request in two steps:

1. **Searching**: starting from the request's origin cell, walk the pre-sorted
   cell list of the T-share grid index and collect the workers in every cell
   whose estimated travel time fits within the pickup time window
   (``e_r - dis(o_r, d_r) - now``). This single-side search is fast but
   *lossy*: workers just outside the scanned cells are discarded even when
   they could still serve the request, which is why the paper observes the
   lowest served rate for tshare.
2. **Scheduling**: for every surviving candidate, run the basic (exhaustive)
   insertion and pick the worker with the minimal increased distance.

Scheduling evaluates all survivors, so it is one call of
:meth:`~repro.dispatch.base.Dispatcher.plan_over_all` (rows in id order, so
ties go to the smallest worker id). With the default
``BasicInsertion`` (no block kernel) that is the scalar loop behind
:meth:`~repro.core.insertion.base.InsertionOperator.best_insertions`; handed a
``LinearDPInsertion`` the survivors are evaluated by its array kernel.
"""

from __future__ import annotations

from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.basic import BasicInsertion
from repro.core.instance import URPSMInstance
from repro.core.types import Request
from repro.dispatch.base import Dispatcher, DispatcherConfig, DispatchOutcome
from repro.index.tshare_grid import TShareGridIndex


class TShare(Dispatcher):
    """Grid-search candidate filtering followed by basic insertion."""

    name = "tshare"

    # The single-side cell walk is lossy by design: which workers it finds
    # depends on their exact grid cells, so the event kernel must materialise
    # the whole fleet before every dispatch (lazy advancement would change
    # which cells the walk visits, changing results — not just performance).
    requires_exact_positions = True

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        insertion: InsertionOperator | None = None,
        average_speed: float | None = None,
    ) -> None:
        super().__init__(config)
        self.insertion = insertion or BasicInsertion()
        self._average_speed = average_speed

    def _build_grid(self, instance: URPSMInstance) -> TShareGridIndex:
        # T-share converts cell-centre distances into time with an average
        # speed; we use half the maximum network speed as a representative
        # urban average unless overridden.
        average_speed = self._average_speed or instance.network.max_speed * 0.5
        return TShareGridIndex(
            instance.network, self.config.grid_cell_metres, average_speed=average_speed
        )

    def dispatch(self, request: Request, now: float) -> DispatchOutcome:
        assert self.fleet is not None and self.oracle is not None
        self.sync_grid()

        direct = self.oracle.distance(request.origin, request.destination)
        pickup_budget = (request.deadline - direct) - now
        if pickup_budget <= 0:
            return DispatchOutcome(request=request, served=False)

        grid = self.grid
        assert isinstance(grid, TShareGridIndex)
        candidate_ids = [
            int(worker_id)
            for worker_id in grid.candidate_workers(request.origin, pickup_budget)
            if self.fleet.is_available(int(worker_id))
        ]

        candidates = len(candidate_ids)
        best_delta, best_worker_id, best_route = self.plan_over_all(
            request, self.fleet.table.rows_of(sorted(candidate_ids)), direct
        )
        if best_worker_id is None or best_route is None:
            return DispatchOutcome(
                request=request,
                served=False,
                candidates_considered=candidates,
                insertions_evaluated=candidates,
            )
        state = self.fleet.state_of(best_worker_id)
        state.adopt_route(best_route, request=request)
        self.grid.update(best_worker_id, state.position)
        return DispatchOutcome(
            request=request,
            served=True,
            worker_id=best_worker_id,
            increased_cost=best_delta,
            candidates_considered=candidates,
            insertions_evaluated=candidates,
        )
