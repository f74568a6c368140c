"""GreedyDP and pruneGreedyDP (Section 5, Algorithms 4-5 of the paper).

Both algorithms process each request in two phases:

1. **Decision phase** (Algorithm 4): compute, for every candidate worker, the
   Euclidean lower bound ``LB_{Δ*}`` of the minimal insertion cost using a
   single exact distance query (``L = dis(o_r, d_r)``). If even
   ``alpha * min LB`` exceeds the request's penalty, serving cannot pay off and
   the request is rejected outright.
2. **Planning phase** (Algorithm 5): insert the request into the route of the
   worker with the minimal actual increased cost, found with the linear DP
   insertion.

``pruneGreedyDP`` additionally sorts the candidates by their lower bound and
stops scanning as soon as the best actual increase found so far is below the
next candidate's lower bound (Lemma 8, *pre-ordered pruning*) — this is what
saves the billions of shortest-distance queries reported in Section 6.
``GreedyDP`` is the ablation without the pruning rule: it evaluates the exact
insertion for every candidate — in one pass, through
:meth:`~repro.dispatch.base.Dispatcher.plan_over_all` and the linear DP's
block kernel.

Both phases work in rows of the fleet's route table: the decision phase
hands the planning phase the finite bounds, their rows and which of them are
idle, in scan order, as three arrays. ``pruneGreedyDP``'s Lemma 8 scan stops
after a handful of candidates by design, so it keeps the scalar operator and
reads the arrays one entry at a time.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.linear_dp import LinearDPInsertion
# all three bound functions stay importable from this module, where the
# serving benchmark's tracer patches them (the scalar one is not called here)
from repro.core.insertion.lower_bound import (
    euclidean_idle_lower_bounds,
    euclidean_insertion_lower_bound,  # noqa: F401
    euclidean_insertion_lower_bounds,
)
from repro.core.route import Route
from repro.core.types import Request
from repro.dispatch.base import Dispatcher, DispatcherConfig, DispatchOutcome

INFINITY = math.inf


class _GreedyDPBase(Dispatcher):
    """Shared decision + planning machinery of GreedyDP / pruneGreedyDP."""

    #: whether Lemma 8 pre-ordered pruning is applied in the planning phase
    use_pruning: bool = False

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        insertion: InsertionOperator | None = None,
    ) -> None:
        super().__init__(config)
        self.insertion = insertion or LinearDPInsertion()
        #: smallest worker capacity in the fleet (set at setup); requests at
        #: or below it can skip the per-candidate capacity mask
        self._min_capacity: int | None = None

    def setup(self, instance, fleet) -> None:  # noqa: D102 - documented on base
        super().setup(instance, fleet)
        self._min_capacity = min(
            (worker.capacity for worker in instance.workers), default=None
        )

    # ------------------------------------------------------------- dispatch

    def dispatch(self, request: Request, now: float) -> DispatchOutcome:
        assert self.fleet is not None and self.oracle is not None and self.instance is not None
        self.sync_grid()
        alpha = self.instance.objective.alpha

        candidate_rows = self.candidate_rows(request, now)
        candidates = int(candidate_rows.size)
        if not candidates:
            return DispatchOutcome(request=request, served=False, decision_rejected=True)

        # ---------------- decision phase (Algorithm 4)
        direct = self.oracle.distance(request.origin, request.destination)
        bounds, rows, idle = self._decision_bounds(request, candidate_rows, direct)

        # under Lemma 8 the bounds arrive pre-ordered: the first is the minimum
        if not bounds.size or request.penalty < alpha * (
            bounds.item(0) if self.use_pruning else bounds.min().item()
        ):
            return DispatchOutcome(
                request=request,
                served=False,
                candidates_considered=candidates,
                decision_rejected=True,
            )

        # ---------------- planning phase (Algorithm 5, lines 5-11)
        if self.use_pruning:
            best_delta, best_worker_id, best_route, insertions = self._plan_pruned(
                request, bounds, rows, idle, direct
            )
        else:
            # no cut to respect: every finite-bound candidate in one pass
            insertions = int(rows.size)
            best_delta, best_worker_id, best_route = self.plan_over_all(request, rows, direct)

        if best_worker_id is None or best_route is None:
            return DispatchOutcome(
                request=request,
                served=False,
                candidates_considered=candidates,
                insertions_evaluated=insertions,
            )

        if self.config.reject_unprofitable and alpha * best_delta > request.penalty:
            return DispatchOutcome(
                request=request,
                served=False,
                candidates_considered=candidates,
                insertions_evaluated=insertions,
                decision_rejected=True,
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
            insertions_evaluated=insertions,
        )

    def _plan_pruned(
        self,
        request: Request,
        bounds: np.ndarray,
        rows: np.ndarray,
        idle: np.ndarray,
        direct: float,
    ) -> tuple[float, int | None, Route | None, int]:
        """The Lemma 8 scan: candidates in bound order, one scalar insertion
        each, until the best found beats the next bound — a block past the cut
        would issue exactly the queries the cut saves. A candidate whose bound
        ties the best is still evaluated, and the winner is the smallest
        ``(delta, worker id)``: the same worker GreedyDP picks.

        The scan reads each busy candidate's route as it stands: the decision
        phase's ``states_of`` brought those rows to the clock. An idle
        candidate goes through ``state_of``, which only bumps its clock.
        ``L`` goes to each walk as ``direct``, so no evaluated route's memo is
        read or written, and the winner's new route alone is built, ``L``
        seeded on it."""
        assert self.fleet is not None and self.oracle is not None
        fleet, oracle, insertion = self.fleet, self.oracle, self.insertion
        state_of, peek_state, ids = fleet.state_of, fleet.peek_state, fleet.table.ids
        best_key = (INFINITY, 0)
        best = None
        insertions = 0
        for index in range(bounds.size):
            if best_key[0] < bounds.item(index):
                break  # Lemma 8: later candidates cannot beat the current best
            worker_id = ids.item(rows.item(index))
            route = (state_of if idle.item(index) else peek_state)(worker_id).route
            result = insertion.best_insertion(route, request, oracle, direct)
            insertions += 1
            if result.feasible and (result.delta, worker_id) < best_key:
                best_key = (result.delta, worker_id)
                best = (route, result)
        if best is None:
            return INFINITY, None, None, insertions
        route, result = best
        winner = route.with_insertion(
            request, result.pickup_index, result.dropoff_index, oracle, direct=direct
        )
        return best_key[0], route.worker.id, winner, insertions

    # ------------------------------------------------------- decision phase

    def _decision_bounds(
        self, request: Request, candidate_rows: np.ndarray, direct: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All candidate lower bounds as one numpy reduction (Algorithm 4).

        Reads the fleet's route table, not its ``Route`` objects. Idle
        candidates are answered straight from their rows (an idle worker
        waits in place — its materialisation is a pure clock bump, so the
        closed-form empty-route bound needs no state touch at all); busy
        candidates are materialised — only those whose advance would change
        anything, see :meth:`FleetState.states_of` — and their rows fed
        through the padded-matrix DP. One batched oracle pass per group
        answers every bound. Values equal the scalar
        ``euclidean_insertion_lower_bound`` bit for bit.

        Returns the finite bounds, their rows and whether each row was idle
        (the others are at the clock now), in scan order: under Lemma 8 one
        stable argsort (ascending bound, ties in candidate order), otherwise
        candidate order. No route's direct-distance memo is touched here or
        in the planning phase.
        """
        fleet = self.fleet
        assert fleet is not None and self.oracle is not None
        table = fleet.table
        bounds = np.full(candidate_rows.size, INFINITY, dtype=np.float64)
        idle_mask, idle_origins, busy_rows = fleet.idle_partition(candidate_rows)
        if idle_origins.size:
            # an idle worker's materialisation would set arr[0] to the fleet
            # clock, which is exactly ``now`` during a dispatch; the capacity
            # mask is skipped when every fleet capacity fits the request
            capacities = None
            if not (self._min_capacity is not None and request.capacity <= self._min_capacity):
                capacities = table.capacity[candidate_rows[idle_mask]]
            bounds[idle_mask] = euclidean_idle_lower_bounds(
                idle_origins, fleet.clock, request, self.oracle, direct,
                capacities=capacities,
            )
        if busy_rows.size:
            fleet.states_of(busy_rows)  # brings their rows up to the clock
            bounds[~idle_mask] = euclidean_insertion_lower_bounds(
                table.take(busy_rows), request, self.oracle, direct
            )
        finite = np.flatnonzero(bounds < INFINITY)
        if self.use_pruning and finite.size:
            finite = finite[np.argsort(bounds[finite], kind="stable")]
        return bounds[finite], candidate_rows[finite], idle_mask[finite]


class GreedyDP(_GreedyDPBase):
    """GreedyDP: linear DP insertion over *all* candidates (no Lemma 8 pruning)."""

    name = "GreedyDP"
    use_pruning = False


class PruneGreedyDP(_GreedyDPBase):
    """pruneGreedyDP: decision phase + pre-ordered pruning + linear DP insertion."""

    name = "pruneGreedyDP"
    use_pruning = True
