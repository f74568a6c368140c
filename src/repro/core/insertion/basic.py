"""Basic insertion (Algorithm 1 of the paper): exhaustive O(n^3) search.

This is the reference operator: it enumerates every pair of insertion
positions, materialises the candidate route, and validates it with a full
feasibility re-computation. It is deliberately unoptimised — the DP operators
are property-tested against it — and it mirrors the insertion used by the
earlier systems the paper compares against.

Among equal detours it picks the position the linear DP's scan reaches first,
the smallest ``(Δ, j, i ≠ j, i)``, so all three operators return the same
``(i, j)``.
"""

from __future__ import annotations

from repro.core.insertion.base import INFINITY, InsertionOperator, InsertionResult
from repro.core.route import Route
from repro.core.types import Request
from repro.network.oracle import DistanceOracle


class BasicInsertion(InsertionOperator):
    """Exhaustive best-insertion search with full per-candidate validation."""

    name = "basic"

    def best_insertion(
        self,
        route: Route,
        request: Request,
        oracle: DistanceOracle,
        direct: float | None = None,
    ) -> InsertionResult:
        if request.capacity > route.worker.capacity:
            return InsertionResult.infeasible()

        queries_before = oracle.counters.distance_queries
        if len(route.arr) != route.num_stops + 1:
            route.refresh(oracle)
        base_cost = route.planned_cost(oracle)

        best = (INFINITY, 0, False, 0)  # (Δ, j, i ≠ j, i); an infinite Δ never wins
        n = route.num_stops
        for pickup_index in range(n + 1):
            for dropoff_index in range(pickup_index, n + 1):
                candidate = route.with_insertion(
                    request, pickup_index, dropoff_index, oracle, direct=direct
                )
                if not candidate.is_feasible(oracle, refresh=False):
                    continue
                delta = candidate.planned_cost(oracle) - base_cost
                key = (delta, dropoff_index, pickup_index != dropoff_index, pickup_index)
                if key < best:
                    best = key

        queries = oracle.counters.distance_queries - queries_before
        delta, dropoff_index, _, pickup_index = best
        if delta == INFINITY:
            return InsertionResult.infeasible(distance_queries=queries)
        return InsertionResult(
            feasible=True,
            delta=delta,
            pickup_index=pickup_index,
            dropoff_index=dropoff_index,
            distance_queries=queries,
        )
