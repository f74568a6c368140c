"""Euclidean lower bound on the minimal insertion cost (Section 5.1, Lemma 7).

The decision phase of ``pruneGreedyDP`` must estimate, for every candidate
worker, how much the best feasible insertion would increase the route cost —
*without* spending exact shortest-distance queries. The paper derives a lower
bound ``LB_{Δ*}`` by re-running the linear DP insertion with three changes:

* every unknown shortest distance is replaced by the admissible Euclidean
  bound (here: straight-line metres divided by the maximum network speed, so
  the bound stays valid in travel-time units);
* distances between consecutive route stops are recovered from the ``arr``
  array, costing no query at all;
* the only exact query is ``L = dis(o_r, d_r)``, computed once per request and
  shared by all workers (Algorithm 4, line 1).

Because the bound relaxes both the costs and the feasibility checks, it never
exceeds the true minimal increased cost of a feasible insertion; if even the
relaxed problem admits no insertion, ``inf`` is returned and the worker can be
skipped outright.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.insertion.block import BlockScan, fitting_rows
from repro.core.route import Route, RouteBlock
from repro.core.types import Request
from repro.network.oracle import DistanceOracle

INFINITY = math.inf


def euclidean_insertion_lower_bound(
    route: Route,
    request: Request,
    oracle: DistanceOracle,
    direct_distance: float,
) -> float:
    """Lower bound on the minimal increased cost of inserting ``request``.

    Args:
        route: the worker's current route with fresh auxiliary arrays.
        request: the new request.
        oracle: distance oracle; only its (query-free) Euclidean lower bounds
            are used here.
        direct_distance: the exact ``L = dis(o_r, d_r)`` computed once by the
            caller (Algorithm 4, line 1).

    Returns:
        ``LB_{Δ*}`` in seconds, or ``inf`` when even the relaxed insertion is
        impossible (e.g. the request does not fit the worker's capacity).
    """
    worker = route.worker
    if request.capacity > worker.capacity:
        return INFINITY
    if len(route.arr) != route.num_stops + 1:
        route.refresh(oracle)

    n = route.num_stops
    arr, slack, picked = route.arr, route.slack, route.picked
    free_capacity = worker.capacity - request.capacity
    deadline = request.deadline

    def euclid_to_origin(index: int) -> float:
        return oracle.lower_bound(route.vertex_at(index), request.origin)

    def euclid_to_destination(index: int) -> float:
        return oracle.lower_bound(route.vertex_at(index), request.destination)

    def leg(index: int) -> float:
        return arr[index + 1] - arr[index]

    best = INFINITY
    # Dio^euc of Eq. (16): cheapest relaxed pickup detour among i < j.
    dio = INFINITY

    for j in range(n + 1):
        lb_j_origin = euclid_to_origin(j)
        lb_j_destination = euclid_to_destination(j)

        # special cases i = j (Eq. 15, first two branches)
        if picked[j] <= free_capacity and arr[j] + lb_j_origin + direct_distance <= deadline:
            if j == n:
                candidate = lb_j_origin + direct_distance
            else:
                candidate = (
                    lb_j_origin + direct_distance + euclid_to_destination(j + 1) - leg(j)
                )
            candidate = max(candidate, 0.0)
            if candidate <= slack[j] and candidate < best:
                best = candidate

        # general case i < j (Eq. 17, third branch)
        if j > 0 and dio < INFINITY:
            if j == n:
                detour_destination = lb_j_destination
            else:
                detour_destination = (
                    lb_j_destination + euclid_to_destination(j + 1) - leg(j)
                )
            detour_destination = max(detour_destination, 0.0)
            capacity_ok = picked[j] <= free_capacity
            deadline_ok = arr[j] + dio + lb_j_destination <= deadline
            slack_ok = dio + detour_destination <= slack[j]
            if capacity_ok and deadline_ok and slack_ok:
                candidate = detour_destination + dio
                if candidate < best:
                    best = candidate

        # conservative early exit: any later drop-off happens after l_j
        if arr[j] > deadline:
            break

        # extend Dio^euc to j + 1 (Eq. 16)
        if j < n:
            if picked[j] > free_capacity:
                dio = INFINITY
            else:
                detour_origin = max(
                    lb_j_origin + euclid_to_origin(j + 1) - leg(j), 0.0
                )
                if detour_origin <= slack[j] and detour_origin < dio:
                    dio = detour_origin

    return best


def euclidean_idle_lower_bounds(
    origins: Sequence[int],
    start_times: float | np.ndarray,
    request: Request,
    oracle: DistanceOracle,
    direct_distance: float,
    capacities: Sequence[int] | None = None,
) -> np.ndarray:
    """Closed-form ``LB_{Δ*}`` for idle workers (empty routes), vectorized.

    An empty route admits only the ``i = j = 0`` branch of Eq. (15) with
    ``picked[0] = 0`` and ``slack[0] = inf``, so the relaxed DP collapses to
    ``max(lb(origin, o_r) + L, 0)`` gated by the deadline check — the same
    IEEE operations the scalar walk performs, element for element.

    Args:
        origins: current vertex of each idle worker.
        start_times: ``arr[0]`` per worker, or one scalar when all idle
            workers share the decision clock.
        request: the request under decision.
        oracle: supplies the batched Euclidean bounds.
        direct_distance: ``L = dis(o_r, d_r)``.
        capacities: per-worker capacities; workers that cannot fit the
            request get ``inf``. ``None`` means the caller pre-filtered.
    """
    to_origin = oracle.euclidean_lower_bounds_to(origins, request.origin)
    candidate = np.maximum(to_origin + direct_distance, 0.0)
    feasible = start_times + to_origin + direct_distance <= request.deadline
    if capacities is not None:
        feasible &= np.asarray(capacities, dtype=np.int64) >= request.capacity
    return np.where(feasible, candidate, INFINITY)


def euclidean_insertion_lower_bounds(
    routes: "Sequence[Route] | RouteBlock",
    request: Request,
    oracle: DistanceOracle,
    direct_distance: float,
) -> np.ndarray:
    """Vectorized :func:`euclidean_insertion_lower_bound` over a candidate set.

    Computes ``LB_{Δ*}`` for every candidate in one pass: a single batched
    :meth:`~repro.network.oracle.DistanceOracle.euclidean_lower_bounds` call
    answers all stop-to-endpoint bounds, and the relaxed DP of Eq. (15)-(17)
    runs column-by-column over padded ``(candidates, stops)`` matrices — the
    loop is over route *positions* (short), not candidates (wide).

    ``routes`` is either a :class:`~repro.core.route.RouteBlock` — the
    decision phase passes rows gathered from the fleet's route table — or a
    plain sequence of routes, which is copied into a block first. Stale
    routes of such a sequence are refreshed in order, exactly as the scalar
    loop would, so exact-query counters are unaffected by batching.

    Returns a float64 array aligned with ``routes``; every element equals the
    scalar function's result bit for bit (same IEEE operations in the same
    order), with ``inf`` marking candidates without a relaxed insertion.
    """
    block, fits = fitting_rows(routes, request, oracle)
    bounds = np.full(len(routes), INFINITY, dtype=np.float64)
    if fits.size:
        bounds[fits] = _relaxed_dp(block, request, oracle, direct_distance)
    return bounds


def _relaxed_dp(
    block: RouteBlock, request: Request, oracle: DistanceOracle, direct_distance: float
) -> np.ndarray:
    """The relaxed DP over a non-empty block whose workers all fit the request.

    The static ``(j, candidate)`` matrices come from :class:`BlockScan` (shared
    with the exact kernel of the planning phase); the one sequential
    recurrence (``Dio``) walks ``j`` with one vector operation over all
    candidates per stop. An empty route reduces to the closed form of
    :func:`euclidean_idle_lower_bounds`.
    """
    scan = BlockScan(block, request, break_margin=0.0)  # conservative early exit
    width = scan.width
    # one batched lower-bound pass answers both endpoints for every stop; the
    # padding stays 0 and the spare stop keeps every j+1 read in range
    valid = scan.valid
    flat_origin, flat_destination = oracle.euclidean_lower_bounds(
        block.vertex[: width + 1][valid], request.origin, request.destination
    )
    lb_origin = scan.scatter(valid, flat_origin)
    lb_destination = scan.scatter(valid, flat_destination)
    deadline = request.deadline
    direct = direct_distance

    lb_o = lb_origin[:width]
    lb_d = lb_destination[:width]
    lb_d_next = lb_destination[1:]
    arr_j, leg, slack = scan.arr, scan.leg, scan.slack
    is_last, open_j = scan.is_last, scan.open

    # Dio^euc of Eq. (16): prefix-min over the pickup detours, restarted where
    # the load leaves no room (the scalar walk sets it back to inf there);
    # dio[j] is the value *entering* iteration j (i < j)
    detour_origin = np.maximum(lb_o + lb_origin[1:] - leg, 0.0)
    pickup = np.where(
        scan.extendable & scan.capacity_ok & (detour_origin <= slack),
        detour_origin,
        INFINITY,
    )
    resets = scan.resets
    dio = np.empty((width, len(block)), dtype=np.float64)
    running = dio[0]
    running.fill(INFINITY)
    for j in range(width - 1):
        running = np.minimum(running, pickup[j], out=dio[j + 1])
        running[resets[j]] = INFINITY

    # special cases i = j (Eq. 15, first two branches)
    candidate_same = np.maximum(
        np.where(is_last, lb_o + direct, lb_o + direct + lb_d_next - leg), 0.0
    )
    feasible_same = (
        open_j
        & (arr_j + lb_o + direct <= deadline)
        & (candidate_same <= slack)
    )
    best_same = np.where(feasible_same, candidate_same, INFINITY).min(axis=0)

    # general case i < j (Eq. 17, third branch); dio[0] = inf rules out j = 0,
    # and an infinite dio fails the deadline test or yields an infinite bound
    detour_destination = np.maximum(
        np.where(is_last, lb_d, lb_d + lb_d_next - leg), 0.0
    )
    feasible_split = (
        open_j
        & (arr_j + dio + lb_d <= deadline)
        & (dio + detour_destination <= slack)
    )
    best_split = np.where(feasible_split, detour_destination + dio, INFINITY).min(axis=0)

    return np.minimum(best_same, best_split)
