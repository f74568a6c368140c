"""Linear DP insertion (Algorithm 3 of the paper): O(n) time and memory.

The operator never enumerates pickup/drop-off pairs. For every drop-off
position ``j`` it combines

* the drop-off detour ``det(l_j, d_r, l_{j+1})`` (constant for a fixed ``j``),
* with ``Dio[j] = min_{i < j} det(l_i, o_r, l_{i+1})``, the cheapest feasible
  pickup detour before ``j``, maintained incrementally by the dynamic program
  of Eq. (11)-(12),

and checks feasibility through Corollary 1. The special cases ``i = j``
(Fig. 2a / 2b) are evaluated directly, as in Algorithm 2. Lemma 6 guarantees
that whenever the recorded best pickup ``Plc[j]`` violates a constraint, no
other pickup position can help, so a single candidate per ``j`` suffices.

Deviation from the paper's pseudo-code: the early-exit of line 8
(``arr[j] + dis(o_r, d_r) > e_r``) is not provably safe for the general
``i < j`` case on road networks, so the default uses the provably safe
``arr[j] > e_r`` (any later drop-off happens after visiting ``l_j``). The
paper's more aggressive break is available via ``aggressive_break=True`` and is
exercised by the ablation benchmarks.

Two entry points, one algorithm
-------------------------------

:meth:`LinearDPInsertion.best_insertion` is the scalar walk over one route. It
serves the planners that stop early by design — pruneGreedyDP's Lemma 8 scan,
``nearest``'s first-feasible walk and the re-optimiser — for which evaluating
candidates past the cut would issue exactly the queries the cut saves. Those
planners pass the ``L`` they queried once (``direct``), so the walk reads no
route memo. The early exit is known from ``arr`` alone, so the walk reads the
endpoint distances of the stops it will scan with one
``oracle.endpoint_distances`` call, whatever the route's length, as two lists
of plain floats, and ``dis(l_{k+1}, d_r)`` of the stop after
them only when a branch is open at the break — exactly the values and queries
of reading each distance on demand (property-tested on both backends in
``tests/core/test_linear_dp_walk.py``).

:meth:`LinearDPInsertion.best_insertions` evaluates Algorithm 3 for all rows of
a :class:`~repro.core.route.RouteBlock` at once and serves the planners that
evaluate every candidate anyway (``batch``, ``tshare``, ``GreedyDP``, through
:meth:`repro.dispatch.base.Dispatcher.plan_over_all`). The static
``(j, row)`` matrices come from :class:`~repro.core.insertion.block.BlockScan`
— the preparation the relaxed DP of Lemma 7 runs on as well. ``Dio``/``Plc``
are running minima along the short stop axis under the walk's strict ``<``
(the first of equal detours keeps the pickup), and the best ``(i, j)`` is one
``argmin`` over the candidate deltas in the walk's own order (the ``i = j``
branch before the ``i < j`` branch at each ``j``): every time is on the grid
of :mod:`repro.core.timegrid`, so the deltas are exact, and ``delta``,
``pickup_index`` and ``dropoff_index`` equal the scalar walk's bit for bit
(property-tested in ``tests/core/test_block_linear_dp.py``).

Query count of the block kernel: one ``oracle.endpoint_distances`` gather over
the stops the scans *reach* — every scanned stop and the stop after it — so
``2 * popcount(reached)`` exact queries per request, and none for rows whose
worker cannot carry the request — per route at most two queries more than
the scalar walk (the successor of the last scanned stop) and never fewer.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.insertion.base import (
    INFINITY,
    BlockInsertions,
    InsertionOperator,
    InsertionResult,
)
from repro.core.insertion.block import BlockScan, fitting_rows
from repro.core.route import Route, RouteBlock
from repro.core.types import Request
from repro.network.oracle import DistanceOracle


class LinearDPInsertion(InsertionOperator):
    """Linear-time best-insertion via the pickup-detour dynamic program.

    Args:
        aggressive_break: use the paper's stronger (but potentially lossy)
            early-exit condition instead of the conservative one.
    """

    name = "linear-dp"

    def __init__(self, aggressive_break: bool = False) -> None:
        self.aggressive_break = aggressive_break

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
        stops = route.stops
        n = len(stops)
        if len(route.arr) != n + 1:
            route.refresh(oracle)
        arr, slack, picked = route.arr, route.slack, route.picked
        free_capacity = worker.capacity - request.capacity
        deadline = request.deadline
        destination = request.destination
        if direct is None:
            direct = route.direct_distance(request, oracle)

        # the scan visits l_0..l_last and reads both endpoint distances of
        # each: read them up front in one grouped call, as plain floats
        last = self._scan_stop_index(arr, n, deadline, direct)
        vertices = [route.origin, *[stop.vertex for stop in stops[:last]]]
        to_origin, to_destination = oracle.endpoint_distances(
            vertices, request.origin, destination
        )
        queries = 1 + 2 * len(vertices)  # L counts as one, as in Lemma 9

        best_delta = INFINITY
        best_pair: tuple[int, int] | None = None

        # Dio[j] / Plc[j] of Eq. (11)-(12), maintained incrementally: at the
        # start of iteration ``j`` they describe the cheapest feasible pickup
        # detour among i < j.
        dio = INFINITY
        plc = -1

        for j in range(last + 1):
            dist_j_origin = to_origin[j]
            dist_j_destination = to_destination[j]
            same_open = (
                picked[j] <= free_capacity
                and arr[j] + dist_j_origin + direct <= deadline
            )
            split_open = j > 0 and dio < INFINITY
            if j < n and (same_open or split_open):
                leg = arr[j + 1] - arr[j]
                if j < last:
                    next_destination = to_destination[j + 1]
                else:
                    # past the scanned prefix: read only when a branch needs it
                    next_destination = oracle.distance(stops[j].vertex, destination)
                    queries += 1

            # ---- special cases i = j (Fig. 2a when j = n, Fig. 2b otherwise)
            if same_open:
                if j == n:
                    delta_same = dist_j_origin + direct
                else:
                    delta_same = dist_j_origin + direct + next_destination - leg
                if delta_same <= slack[j] and delta_same < best_delta:
                    best_delta = delta_same
                    best_pair = (j, j)

            # ---- general case i < j via the DP state (Corollary 1)
            if split_open:
                if j == n:
                    detour_destination = dist_j_destination
                else:
                    detour_destination = dist_j_destination + next_destination - leg
                capacity_ok = picked[j] <= free_capacity
                deadline_ok = arr[j] + dio + dist_j_destination <= deadline
                slack_ok = dio + detour_destination <= slack[j]
                if capacity_ok and deadline_ok and slack_ok:
                    delta_split = detour_destination + dio
                    if delta_split < best_delta:
                        best_delta = delta_split
                        best_pair = (plc, j)

            # ---- extend the DP state to j + 1 (Eq. 11-12); the scan ends at
            # ``last`` (line 8 of Algorithm 3 fires there, or it is l_n)
            if j < last:
                if picked[j] > free_capacity:
                    dio = INFINITY
                    plc = -1
                else:
                    detour_origin = dist_j_origin + to_origin[j + 1] - (arr[j + 1] - arr[j])
                    if detour_origin <= slack[j] and detour_origin < dio:
                        dio = detour_origin
                        plc = j

        if best_pair is None:
            return InsertionResult.infeasible(distance_queries=queries)
        return InsertionResult(
            feasible=True,
            delta=best_delta,
            pickup_index=best_pair[0],
            dropoff_index=best_pair[1],
            distance_queries=queries,
        )

    # ---------------------------------------------------------- block kernel

    def best_insertions(
        self,
        routes: Sequence[Route],
        request: Request,
        oracle: DistanceOracle,
        direct: float,
        block: RouteBlock | None = None,
    ) -> BlockInsertions:
        """Algorithm 3 for every route at once (see the module docstring)."""
        found = BlockInsertions.infeasible(len(routes))
        fitting, fits = fitting_rows(routes if block is None else block, request, oracle)
        if fits.size:
            found.delta[fits], found.pickup_index[fits], found.dropoff_index[fits] = (
                self._block_dp(fitting, request, oracle, direct)
            )
        return found

    def _block_dp(
        self, block: RouteBlock, request: Request, oracle: DistanceOracle, direct: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The exact DP over a non-empty block whose workers all fit the request."""
        scan = BlockScan(
            block, request, break_margin=direct if self.aggressive_break else 0.0
        )
        width = scan.width
        rows = len(block)
        # the scan reads both endpoint distances of every stop it evaluates
        # and of the stop after it; the rest stays 0 and is masked out below
        reached = scan.in_route.copy()
        reached[1:] &= scan.scanned[:-1]
        flat_origin, flat_destination = oracle.endpoint_distances(
            block.vertex[:width][reached], request.origin, request.destination
        )
        to_origin = scan.scatter(reached, flat_origin)
        to_destination = scan.scatter(reached, flat_destination)
        dist_origin = to_origin[:width]
        dist_destination = to_destination[:width]
        next_destination = to_destination[1:]
        arr_j, leg, slack = scan.arr, scan.leg, scan.slack
        is_last, open_j = scan.is_last, scan.open
        deadline = request.deadline

        # Dio[j] / Plc[j] of Eq. (11)-(12) *entering* iteration j: a running
        # minimum under the walk's strict ``<`` (the first of equal detours
        # keeps the pickup), back to inf where the vehicle is full. Plc is
        # only read beside a finite Dio, which always brings its own.
        detour_origin = dist_origin + to_origin[1:] - leg
        pickup = np.where(
            scan.extendable & scan.capacity_ok & (detour_origin <= slack),
            detour_origin,
            INFINITY,
        )
        resets = scan.resets
        dio = np.empty((width, rows), dtype=np.float64)
        plc = np.empty((width, rows), dtype=np.int64)
        dio[0] = INFINITY
        plc[0] = -1
        for j in range(width - 1):
            plc[j + 1] = np.where(pickup[j] < dio[j], j, plc[j])
            np.minimum(dio[j], pickup[j], out=dio[j + 1])
            dio[j + 1][resets[j]] = INFINITY

        # special cases i = j (Fig. 2a when j = n, Fig. 2b otherwise)
        origin_direct = dist_origin + direct
        delta_same = np.where(is_last, origin_direct, origin_direct + next_destination - leg)
        feasible_same = (
            open_j
            & (arr_j + dist_origin + direct <= deadline)
            & (delta_same <= slack)
        )

        # general case i < j (Corollary 1); dio[0] = inf rules out j = 0, and
        # an infinite dio fails the deadline test or yields an infinite delta
        detour_destination = np.where(
            is_last, dist_destination, dist_destination + next_destination - leg
        )
        delta_split = detour_destination + dio
        feasible_split = (
            open_j
            & (arr_j + dio + dist_destination <= deadline)
            & (dio + detour_destination <= slack)
        )

        # the walk keeps the first minimum in its own order: along j, the
        # i = j branch before the i < j branch (row 2j, then row 2j + 1)
        deltas = np.empty((2 * width, rows), dtype=np.float64)
        deltas[0::2] = np.where(feasible_same, delta_same, INFINITY)
        deltas[1::2] = np.where(feasible_split, delta_split, INFINITY)
        chosen = deltas.argmin(axis=0)
        best = deltas[chosen, np.arange(rows)]
        chosen[best == INFINITY] = -1

        dropoff_index = chosen >> 1  # -1 stays -1
        pickup_index = dropoff_index.copy()
        split = np.flatnonzero((chosen >= 0) & ((chosen & 1) == 1))
        pickup_index[split] = plc[dropoff_index[split], split]
        return best, pickup_index, dropoff_index

    # ----------------------------------------------------- scalar walk's scan

    def _scan_stop_index(
        self, arr: list[float], n: int, deadline: float, direct: float
    ) -> int:
        """Last stop index the DP scan visits: where its early exit fires
        (line 8 of Algorithm 3, or the conservative variant), else ``n``.

        Uses only the ``arr`` array — no oracle query — so the walk can read
        exactly the distances the scan needs before it starts.
        """
        margin = direct if self.aggressive_break else 0.0
        for j in range(n + 1):
            if arr[j] + margin > deadline:
                return j
        return n
