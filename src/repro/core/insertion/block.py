"""Block preparation shared by the two DP kernels that run over a ``RouteBlock``.

The relaxed DP of the decision phase (Lemma 7,
:func:`repro.core.insertion.lower_bound.euclidean_insertion_lower_bounds`) and
the exact linear DP of the planning phase (Algorithm 3,
:meth:`repro.core.insertion.linear_dp.LinearDPInsertion.best_insertions`)
walk the same recurrence over the same padded stop-major matrices; they differ
only in where the stop-to-endpoint distances come from (Euclidean bounds for
every stop vs. exact queries for the stops the scan reaches) and in what they
keep (a bound vs. the best ``(i, j)``). Everything that depends on neither —
which rows fit the request, and per ``(j, row)`` the leg, the slack, the
capacity test, which stops the early exit lets the scan visit,
where ``Dio`` may be extended and where a full vehicle resets it — is prepared
here, once, by :func:`fitting_rows` and :class:`BlockScan`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.route import Route, RouteBlock
from repro.core.types import Request
from repro.network.oracle import DistanceOracle


def fitting_rows(
    routes: "Sequence[Route] | RouteBlock", request: Request, oracle: DistanceOracle
) -> tuple[RouteBlock, np.ndarray]:
    """The routes whose worker can carry ``request``, as a block.

    Returns ``(block, fits)``: ``fits`` are the positions in ``routes`` of the
    block's rows, ascending. Rows of a :class:`RouteBlock` are gathered (the
    block itself is returned when every row fits); a plain route sequence is
    copied into a block, refreshing stale routes in order exactly as a scalar
    loop over the fitting routes would.
    """
    if isinstance(routes, RouteBlock):
        fits = np.flatnonzero(routes.capacity >= request.capacity)
        return (routes if fits.size == len(routes) else routes.take(fits)), fits
    fitting: list[int] = []
    for index, route in enumerate(routes):
        if request.capacity > route.worker.capacity:
            continue
        if len(route.arr) != route.num_stops + 1:
            route.refresh(oracle)
        fitting.append(index)
    block = RouteBlock.from_routes([routes[index] for index in fitting])
    return block, np.asarray(fitting, dtype=np.int64)


class BlockScan:
    """Static per-``(j, row)`` quantities of one DP scan over a block.

    Every matrix is stop-major like the block, ``(j, row)`` with
    ``j < width`` (the longest route's ``n + 1``): the DP's ``j`` and
    ``j + 1`` views are contiguous row slices. An empty route
    (``count == 1``) needs no special case — only ``j = 0 = n`` is in it.

    The scan of a row evaluates its branches at ``j``, then breaks at the
    first ``j`` with ``arr[j] + break_margin > deadline`` (margin 0 is the
    conservative early exit, ``dis(o_r, d_r)`` the paper's line 8). Arrivals
    are non-decreasing along a route, so ``j`` is scanned exactly when
    ``j - 1`` did not break.

    Attributes:
        width: number of ``j`` positions.
        valid: ``(width + 1, rows)`` mask of the stops that exist — the
            ``j + 1`` views read one past the last ``j``, into the block's
            spare stop.
        in_route / is_last: ``j <= n`` / ``j == n``.
        arr: ``arr[j]``.
        leg: ``arr[j + 1] - arr[j]`` (padding past ``n``).
        slack: ``slack[j]``.
        capacity_ok: ``picked[j] <= capacity - request.capacity``.
        scanned: the scan evaluates its branches at ``j``.
        open: ``scanned & capacity_ok`` — a branch ending at ``j`` may hold.
        extendable: the scan goes on past ``j`` (``j < n``, no break).
        resets: ``extendable`` and the vehicle is full after ``l_j``: the
            pickup-detour state ``Dio`` falls back to ``inf`` there.
    """

    __slots__ = (
        "width", "valid", "in_route", "is_last", "arr", "leg", "slack",
        "capacity_ok", "scanned", "open", "extendable", "resets",
    )

    def __init__(self, block: RouteBlock, request: Request, break_margin: float) -> None:
        ns = block.count - 1
        width = int(ns.max()) + 1
        self.width = width
        self.valid = valid = np.arange(width + 1)[:, None] <= ns
        self.in_route = in_route = valid[:width]
        has_next = valid[1:]
        self.is_last = in_route & ~has_next
        self.arr = arr = block.arr[:width]
        self.leg = block.arr[1 : width + 1] - arr
        self.slack = block.slack[:width]
        self.capacity_ok = capacity_ok = (
            block.picked[:width] <= block.capacity - request.capacity
        )
        not_exceeded = arr + break_margin <= request.deadline
        self.scanned = scanned = in_route.copy()
        scanned[1:] &= not_exceeded[:-1]
        self.open = scanned & capacity_ok
        self.extendable = extendable = scanned & not_exceeded & has_next
        self.resets = extendable & ~capacity_ok

    def scatter(self, stops: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``values`` (one per set cell of ``stops``, row-major) as a
        ``(width + 1, rows)`` matrix, zero elsewhere."""
        matrix = np.zeros(self.valid.shape, dtype=np.float64)
        matrix[: stops.shape[0]][stops] = values
        return matrix
