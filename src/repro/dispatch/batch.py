"""The ``batch`` baseline (Alonso-Mora et al., PNAS 2017, adapted).

Instead of processing each request immediately, the platform accumulates the
requests released within a short batching window (6 seconds in the paper's
description), groups them by proximity, sorts the groups, and then greedily
assigns every request of every group to the worker whose route absorbs it with
the minimal increased distance.

Batching helps pack compatible requests together but delays the assignment,
which hurts requests with tight deadlines — exactly the trade-off visible in
the paper's evaluation, where ``batch`` serves noticeably fewer requests than
``pruneGreedyDP`` while being slower per request.

The deferral/window plumbing lives in
:class:`~repro.dispatch.base.BatchDispatcher`; this module only implements the
grouping and greedy per-request assignment.

``batch`` prunes nothing: every grid candidate is evaluated exactly (~160 per
request on the ``closures_batch`` workload, 3 % of them feasible). The
per-request planning is therefore one call of
:meth:`~repro.dispatch.base.Dispatcher.plan_over_all` — the candidates' rows
of the fleet route table through the insertion operator's block entry point
(one array kernel for the default ``LinearDPInsertion``, the scalar loop for
the ablation operators) — not a Python loop over candidates.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.types import Request
from repro.dispatch.base import BatchDispatcher, DispatcherConfig, DispatchOutcome


class Batch(BatchDispatcher):
    """Batched group assignment with greedy per-request insertion."""

    name = "batch"

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        insertion: InsertionOperator | None = None,
    ) -> None:
        super().__init__(config)
        self.insertion = insertion or LinearDPInsertion()

    # ------------------------------------------------------------ interface

    def assign_batch(self, batch: list[Request], now: float) -> list[DispatchOutcome]:
        """Assign every deferred request, in proximity groups."""
        assert self.fleet is not None and self.oracle is not None
        self.sync_grid()
        outcomes: list[DispatchOutcome] = []
        for group in self._grouped_requests(batch):
            for request in sorted(group, key=lambda item: item.deadline):
                outcomes.append(self._assign(request, now))
        return outcomes

    # --------------------------------------------------------------- helpers

    def _grouped_requests(self, batch: list[Request]) -> list[list[Request]]:
        """Group the batch by origin grid cell; larger groups first."""
        assert self.grid is not None
        groups: dict[tuple[int, int], list[Request]] = defaultdict(list)
        for request in batch:
            groups[self.grid.cell_of_vertex(request.origin)].append(request)
        return sorted(groups.values(), key=len, reverse=True)

    def _assign(self, request: Request, now: float) -> DispatchOutcome:
        assert self.fleet is not None and self.oracle is not None
        if now > request.deadline:
            return DispatchOutcome(request=request, served=False)
        candidate_rows = self.candidate_rows(request, now)
        candidates = int(candidate_rows.size)
        direct = self.oracle.distance(request.origin, request.destination)
        best_delta, best_worker_id, best_route = self.plan_over_all(
            request, candidate_rows, direct
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
