"""Naive DP insertion (Algorithm 2 of the paper): O(n^2) time, O(n) memory.

The operator still enumerates every pair of insertion positions ``(i, j)`` but
evaluates each pair in O(1) using the auxiliary arrays of the route
(Eq. 6-9), the closed-form increased cost of Eq. (5), and the feasibility
conditions of Lemma 4 (deadlines) and Lemma 5 (capacity).

One deliberate deviation from the paper's pseudo-code: Algorithm 2 *breaks*
out of the inner loop when condition (3) or (4) of Lemma 4 fails, but those
conditions are not monotone in ``j`` on general road networks, so we
*continue* instead. The asymptotic complexity is unchanged and the operator
stays exactly equivalent to :class:`~repro.core.insertion.basic.BasicInsertion`
(property-tested), down to the position it picks among equal detours: the
smallest ``(Δ, j, i ≠ j, i)``, the order of the linear DP's scan.
"""

from __future__ import annotations

from repro.core.insertion.base import (
    INFINITY,
    InsertionOperator,
    InsertionResult,
    _PairwiseDistances,
)
from repro.core.route import Route
from repro.core.types import Request
from repro.network.oracle import DistanceOracle


class NaiveDPInsertion(InsertionOperator):
    """Quadratic-time best-insertion using the paper's O(1) pair evaluation."""

    name = "naive-dp"

    def best_insertion(
        self,
        route: Route,
        request: Request,
        oracle: DistanceOracle,
        direct: float | None = None,
    ) -> InsertionResult:
        worker = route.worker
        if request.capacity > worker.capacity:
            return InsertionResult.infeasible()
        if len(route.arr) != route.num_stops + 1:
            route.refresh(oracle)

        n = route.num_stops
        arr, slack, picked = route.arr, route.slack, route.picked
        free_capacity = worker.capacity - request.capacity
        deadline = request.deadline

        distances = _PairwiseDistances(route, request, oracle, direct)
        direct = distances.direct

        best = (INFINITY, 0, False, 0)  # (Δ, j, i ≠ j, i); an infinite Δ never wins

        for i in range(n + 1):
            dist_i_origin = distances.to_origin(i)
            # Lemma 4 (1): the pickup itself must be reachable before the
            # deadline; monotone in i by the triangle inequality, so break.
            if arr[i] + dist_i_origin > deadline:
                break
            # Lemma 5 (1): capacity right after the pickup.
            if picked[i] > free_capacity:
                continue
            detour_origin = 0.0
            if i < n:
                detour_origin = dist_i_origin + distances.to_origin(i + 1) - distances.leg(i)
                # Lemma 4 (2): the pickup detour must respect every later deadline.
                if detour_origin > slack[i]:
                    continue

            for j in range(i, n + 1):
                # Lemma 5 (2): capacity along (i, j]; monotone in j, so break.
                if j > i and picked[j] > free_capacity:
                    break
                delta = _delta(distances, direct, i, j, n)
                if j == i:
                    # Lemma 4 (3), special cases of Fig. 2a / 2b.
                    if arr[i] + dist_i_origin + direct > deadline:
                        continue
                else:
                    # Lemma 4 (3), general case of Fig. 2c.
                    if arr[j] + detour_origin + distances.to_destination(j) > deadline:
                        continue
                # Lemma 4 (4): the total detour must respect deadlines after j.
                if delta > slack[j]:
                    continue
                key = (delta, j, i != j, i)
                if key < best:
                    best = key

        delta, j, _, i = best
        if delta == INFINITY:
            return InsertionResult.infeasible(distance_queries=distances.queries)
        return InsertionResult(
            feasible=True,
            delta=delta,
            pickup_index=i,
            dropoff_index=j,
            distance_queries=distances.queries,
        )


def _delta(distances: _PairwiseDistances, direct: float, i: int, j: int, n: int) -> float:
    """Increased travel cost of inserting at ``(i, j)`` (Eq. 5)."""
    if i == j == n:
        return distances.to_origin(n) + direct
    if i == j:
        return (
            distances.to_origin(i)
            + direct
            + distances.to_destination(i + 1)
            - distances.leg(i)
        )
    detour_origin = distances.to_origin(i) + distances.to_origin(i + 1) - distances.leg(i)
    if j == n:
        detour_destination = distances.to_destination(n)
    else:
        detour_destination = (
            distances.to_destination(j) + distances.to_destination(j + 1) - distances.leg(j)
        )
    return detour_origin + detour_destination
