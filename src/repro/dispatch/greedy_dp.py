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
block kernel. ``pruneGreedyDP``'s scan stops after a handful of candidates by
design and keeps the scalar operator.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.insertion.lower_bound import (
    euclidean_idle_lower_bounds,
    euclidean_insertion_lower_bound,
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
        vectorized: bool = True,
    ) -> None:
        """``vectorized`` selects the array-native decision phase (one batched
        lower-bound reduction over all candidates, argsorted for the Lemma 8
        scan); ``False`` keeps the scalar per-candidate walk — both produce
        identical outcomes and exact-query counters, so the scalar path serves
        as the equivalence baseline of ``benchmarks/bench_hot_path.py``."""
        super().__init__(config)
        self.insertion = insertion or LinearDPInsertion()
        self.vectorized = vectorized
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
        if self.vectorized:
            bounds, worker_ids = self._decision_bounds_batched(request, candidate_rows, direct)
        else:
            bounds, worker_ids = self._decision_bounds_scalar(
                request, self.fleet.table.ids[candidate_rows].tolist(), direct
            )

        # under Lemma 8 the bounds arrive pre-ordered: the first is the minimum
        if not bounds or request.penalty < alpha * (
            bounds[0] if self.use_pruning else min(bounds)
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
                request, bounds, worker_ids, direct
            )
        else:
            # no cut to respect: every finite-bound candidate in one pass
            insertions = len(worker_ids)
            best_delta, best_worker_id, best_route = self.plan_over_all(
                request, self.fleet.table.rows_of(worker_ids), direct
            )

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
        self, request: Request, bounds: list[float], worker_ids: list[int], direct: float
    ) -> tuple[float, int | None, Route | None, int]:
        """The Lemma 8 scan: candidates in bound order, one scalar insertion
        each, until the best found beats the next bound. It stops after a
        handful of candidates by design, so it keeps the scalar operator — a
        block past the cut would issue exactly the queries the cut saves."""
        assert self.fleet is not None and self.oracle is not None
        best_delta = INFINITY
        best_worker_id: int | None = None
        best_route = None
        insertions = 0
        for bound, worker_id in zip(bounds, worker_ids):
            if best_delta < bound:
                break  # Lemma 8: later candidates cannot beat the current best
            state = self.fleet.state_of(worker_id)
            # the batched decision phase defers seeding L = dis(o_r, d_r) to
            # the candidates actually evaluated (idempotent for the scalar
            # walk, which seeded every candidate already)
            state.route.remember_direct_distance(request, direct)
            result = self.insertion.best_insertion(state.route, request, self.oracle)
            insertions += 1
            if result.feasible and result.delta < best_delta - 1e-9:
                best_delta = result.delta
                best_worker_id = worker_id
                best_route = state.route.with_insertion(
                    request, result.pickup_index, result.dropoff_index, self.oracle
                )
        return best_delta, best_worker_id, best_route, insertions

    # ------------------------------------------------------- decision phase

    def _decision_bounds_batched(
        self, request: Request, candidate_rows: np.ndarray, direct: float
    ) -> tuple[list[float], list[int]]:
        """All candidate lower bounds as one numpy reduction (Algorithm 4).

        Reads the fleet's route table, not its ``Route`` objects. Idle
        candidates are answered straight from their rows (an idle worker
        waits in place — its materialisation is a pure clock bump, so the
        closed-form empty-route bound needs no state touch at all); busy
        candidates are materialised — only those whose advance would change
        anything, see :meth:`FleetState.states_of` — and their rows fed
        through the padded-matrix DP. One batched oracle pass per group
        answers every bound; under Lemma 8 a single stable argsort pre-orders
        the finite bounds for the pruning scan. Values, ordering and
        tie-breaks match the scalar walk exactly.

        The batched path also needs no per-route L seeding (the planning loop
        seeds the few candidates it actually evaluates), which keeps every
        route's direct-distance memo — copied on each advance — proportional
        to served work, not to candidate-set size.
        """
        fleet = self.fleet
        assert fleet is not None and self.oracle is not None
        table = fleet.table
        candidate_ids = table.ids[candidate_rows]
        if not (fleet.lazy and fleet.materialise_fast_path):
            # eager fleets may hold idle routes materialised at times other
            # than ``now``; take the uniform route-based path
            routes = [state.route for state in fleet.states_of(candidate_ids)]
            bounds = euclidean_insertion_lower_bounds(routes, request, self.oracle, direct)
            return self._order_bounds(bounds, candidate_ids)

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
            fleet.states_of(table.ids[busy_rows])  # brings their rows up to the clock
            bounds[~idle_mask] = euclidean_insertion_lower_bounds(
                table.take(busy_rows), request, self.oracle, direct
            )
        return self._order_bounds(bounds, candidate_ids)

    def _order_bounds(
        self, bounds: np.ndarray, candidate_ids: np.ndarray
    ) -> tuple[list[float], list[int]]:
        """Filter the finite bounds and argsort them for the Lemma 8 scan."""
        finite = np.flatnonzero(bounds < INFINITY)
        if self.use_pruning and finite.size:
            finite = finite[np.argsort(bounds[finite], kind="stable")]
        return bounds[finite].tolist(), candidate_ids[finite].tolist()

    def _decision_bounds_scalar(
        self, request: Request, candidate_ids: list[int], direct: float
    ) -> tuple[list[float], list[int]]:
        """The per-candidate scalar walk (equivalence baseline)."""
        assert self.fleet is not None and self.oracle is not None
        lower_bounds: list[tuple[float, int]] = []
        for worker_id in candidate_ids:
            state = self.fleet.state_of(worker_id)
            state.route.remember_direct_distance(request, direct)
            bound = euclidean_insertion_lower_bound(state.route, request, self.oracle, direct)
            if bound < INFINITY:
                lower_bounds.append((bound, worker_id))
        if self.use_pruning:
            # the batched path pre-orders via argsort; the scalar walk sorts here
            lower_bounds.sort(key=lambda item: item[0])
        return [bound for bound, _ in lower_bounds], [worker for _, worker in lower_bounds]


class GreedyDP(_GreedyDPBase):
    """GreedyDP: linear DP insertion over *all* candidates (no Lemma 8 pruning)."""

    name = "GreedyDP"
    use_pruning = False


class PruneGreedyDP(_GreedyDPBase):
    """pruneGreedyDP: decision phase + pre-ordered pruning + linear DP insertion."""

    name = "pruneGreedyDP"
    use_pruning = True
