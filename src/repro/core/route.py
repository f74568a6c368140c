"""Routes and their auxiliary arrays (Definition 4 and Section 4.3.2).

A route of a worker is ``S_w = <l_0, l_1, ..., l_n>`` where ``l_0`` is the
worker's *current* position and ``l_1..l_n`` are pending pickup / drop-off
stops. A route is feasible iff

1. for every served request, the pickup precedes the drop-off (or the request
   is already on board, in which case only the drop-off remains);
2. every drop-off is reached no later than the request's deadline;
3. the on-board load never exceeds the worker capacity.

To support the DP insertions, the route maintains the four auxiliary arrays of
the paper (Eq. 6-9):

* ``arr[k]``   — arrival time at ``l_k`` (``arr[0]`` is the current time);
* ``ddl[k]``   — latest tolerable arrival at ``l_k``;
* ``slack[k]`` — maximal tolerable detour between ``l_k`` and ``l_{k+1}``;
* ``picked[k]`` — on-board load right after serving ``l_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.types import Request, Stop, StopKind, Worker, dropoff_stop, pickup_stop
from repro.exceptions import InfeasibleRouteError
from repro.network.graph import Vertex
from repro.network.oracle import DistanceOracle

INFINITY = math.inf


@dataclass
class Route:
    """Planned route of one worker.

    Attributes:
        worker: the worker executing the route.
        origin: current position ``l_0`` of the worker (a vertex).
        start_time: time at which the worker is (or was last known to be) at
            ``origin``; this is ``arr[0]``.
        stops: the pending stops ``l_1..l_n`` in visiting order.
    """

    worker: Worker
    origin: Vertex
    start_time: float
    stops: list[Stop] = field(default_factory=list)

    # Auxiliary arrays, each of length ``len(stops) + 1`` (index 0 = l_0).
    arr: list[float] = field(default_factory=list, repr=False)
    ddl: list[float] = field(default_factory=list, repr=False)
    slack: list[float] = field(default_factory=list, repr=False)
    picked: list[int] = field(default_factory=list, repr=False)

    # Cached direct origin->destination distances (the ``L`` of Lemma 7),
    # keyed by ``(request id, origin, destination)`` so that a reused id with
    # other endpoints never reads a stale ``L``; filled lazily so ddl[] can be
    # recomputed without re-querying. ``refresh`` reads ``L`` only for a
    # pickup stop, so a key leaves with its request's pickup (served or
    # dropped): the memo holds the pending pickups and nothing else.
    _direct_distances: dict[tuple[int, Vertex, Vertex], float] = field(
        default_factory=dict, repr=False
    )

    # Remaining concrete shortest path ``origin -> stops[0]`` as computed at
    # the last advance; lets partial advancement continue along the already
    # chosen path instead of re-deriving it (and its tie-breaks) every event.
    # Never survives a re-planning: route mutations build new Route objects.
    concrete_path: tuple[Vertex, ...] | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------ properties

    @property
    def num_stops(self) -> int:
        """Number of pending stops ``n``."""
        return len(self.stops)

    @property
    def is_empty(self) -> bool:
        """Whether the route has no pending stop."""
        return not self.stops

    def vertex_at(self, index: int) -> Vertex:
        """Vertex of ``l_index`` (``index`` 0 means the worker's current position)."""
        if index == 0:
            return self.origin
        return self.stops[index - 1].vertex

    def onboard_requests(self) -> list[Request]:
        """Requests already picked up (their drop-off is pending, pickup is not)."""
        pending_pickups = {
            stop.request.id for stop in self.stops if stop.kind is StopKind.PICKUP
        }
        return [
            stop.request
            for stop in self.stops
            if stop.kind is StopKind.DROPOFF and stop.request.id not in pending_pickups
        ]

    def initial_load(self) -> int:
        """On-board load at ``l_0`` (sum of capacities of on-board requests).

        Single pass over the stops (no intermediate request lists) — this is
        called once per :meth:`refresh`, which sits on the simulator's hot
        advancement path.
        """
        stops = self.stops
        if not stops:
            return 0
        pending_pickups = {
            stop.request.id for stop in stops if stop.kind is StopKind.PICKUP
        }
        load = 0
        for stop in stops:
            if stop.kind is StopKind.DROPOFF and stop.request.id not in pending_pickups:
                load += stop.request.capacity
        return load

    def request_ids(self) -> set[int]:
        """Identifiers of every request appearing in the route."""
        return {stop.request.id for stop in self.stops}

    def direct_distance(self, request: Request, oracle: DistanceOracle) -> float:
        """Shortest distance ``dis(o_r, d_r)`` of ``request``, cached on the route."""
        key = (request.id, request.origin, request.destination)
        cached = self._direct_distances.get(key)
        if cached is None:
            cached = oracle.distance(request.origin, request.destination)
            self._direct_distances[key] = cached
        return cached

    def remember_direct_distance(self, request: Request, distance: float) -> None:
        """Seed the direct-distance cache (used when the caller already knows ``L``)."""
        self._direct_distances[(request.id, request.origin, request.destination)] = distance

    # -------------------------------------------------------------- refresh

    def refresh(self, oracle: DistanceOracle) -> None:
        """Recompute ``arr``, ``ddl``, ``slack`` and ``picked`` (Eq. 6-9)."""
        n = self.num_stops
        if n == 0:
            # idle workers are refreshed on every clock bump; skip the
            # general machinery for the trivial single-entry arrays
            self.arr = [self.start_time]
            self.ddl = [INFINITY]
            self.slack = [INFINITY]
            self.picked = [self.initial_load()]
            return
        arr = [0.0] * (n + 1)
        ddl = [INFINITY] * (n + 1)
        picked = [0] * (n + 1)

        arr[0] = self.start_time
        picked[0] = self.initial_load()

        if n >= 4:
            # one grouped oracle call for all consecutive legs (identical
            # values and query counting to the scalar walk below); unboxed to
            # plain floats so the accumulation below stays on fast scalars
            vertices = [self.origin] + [stop.vertex for stop in self.stops]
            legs = oracle.distance_pairs(vertices[:-1], vertices[1:]).tolist()
        else:
            legs = []
        previous_vertex = self.origin
        for index, stop in enumerate(self.stops, start=1):
            if n < 4:
                legs.append(oracle.distance(previous_vertex, stop.vertex))
                previous_vertex = stop.vertex
            arr[index] = arr[index - 1] + legs[index - 1]
            if stop.kind is StopKind.PICKUP:
                ddl[index] = stop.request.deadline - self.direct_distance(stop.request, oracle)
                picked[index] = picked[index - 1] + stop.request.capacity
            else:
                ddl[index] = stop.request.deadline
                picked[index] = picked[index - 1] - stop.request.capacity

        self.arr = arr
        self.ddl = ddl
        self.slack = _slack(arr, ddl)
        self.picked = picked

    # ------------------------------------------------------------ re-anchors

    def after_next_stop(self) -> "Route":
        """The route once its worker has served ``l_1`` (at ``arr[1]``).

        Every array is this route's shifted by one entry — the arrivals are
        exact grid sums, the deadlines are absolute and the served stop's
        load delta is what ``initial_load`` would report — so
        the result equals a fresh :meth:`refresh` without a single query
        (the served stop's deadline leaves with it: ``l_0`` has none).
        """
        served = self.stops[0]
        route = Route(
            worker=self.worker,
            origin=served.vertex,
            start_time=self.arr[1],
            stops=self.stops[1:],
            _direct_distances=self._memo_without(served.request.id),
        )
        route.arr = self.arr[1:]
        route.ddl = [INFINITY, *self.ddl[2:]]
        route.slack = self.slack[1:]
        route.picked = self.picked[1:]
        return route

    def moved_to(
        self, position: Vertex, start_time: float, concrete_path: tuple[Vertex, ...]
    ) -> "Route":
        """The route once its worker has moved part of the way to ``l_1``.

        The worker stands at ``position`` at ``start_time`` and still follows
        ``concrete_path``, the rest of the shortest path it has walked from
        ``l_0``. A part of a shortest path is a shortest path, so
        ``dis(position, l_1) = arr[1] - start_time``: every time is on the
        grid of :mod:`repro.core.timegrid`, so the shift of the later arrivals
        ``start_time + dis(position, l_1) - arr[1]`` is exactly 0. The route
        therefore issues no query and keeps ``arr[1:]``, ``ddl``, ``slack``
        (``slack[0]`` does not read ``arr[0]``) and ``picked``; it equals a
        fresh :meth:`refresh` bit for bit.
        """
        route = Route(
            worker=self.worker,
            origin=position,
            start_time=start_time,
            stops=list(self.stops),
            _direct_distances=dict(self._direct_distances),
            concrete_path=concrete_path,
        )
        route.arr = [start_time, *self.arr[1:]]
        route.ddl = list(self.ddl)
        route.slack = list(self.slack)
        route.picked = list(self.picked)
        return route

    # ---------------------------------------------------------- feasibility

    def is_feasible(self, oracle: DistanceOracle, refresh: bool = True) -> bool:
        """Whether the route satisfies precedence, deadline and capacity constraints."""
        try:
            self.validate(oracle, refresh=refresh)
        except InfeasibleRouteError:
            return False
        return True

    def validate(self, oracle: DistanceOracle, refresh: bool = True) -> None:
        """Raise :class:`InfeasibleRouteError` describing the first violated constraint."""
        if refresh or len(self.arr) != self.num_stops + 1:
            self.refresh(oracle)

        seen_pickups: set[int] = set()
        onboard_ids = {request.id for request in self.onboard_requests()}
        for index, stop in enumerate(self.stops, start=1):
            request = stop.request
            if stop.kind is StopKind.PICKUP:
                if request.id in seen_pickups:
                    raise InfeasibleRouteError(
                        f"request {request.id} is picked up twice in route of worker {self.worker.id}"
                    )
                seen_pickups.add(request.id)
            else:
                if request.id not in seen_pickups and request.id not in onboard_ids:
                    raise InfeasibleRouteError(
                        f"request {request.id} is dropped off before being picked up"
                    )
                # delivery deadline (constraint (ii) of Definition 4)
                if self.arr[index] > request.deadline:
                    raise InfeasibleRouteError(
                        f"request {request.id} delivered at {self.arr[index]:.1f} after "
                        f"deadline {request.deadline:.1f}"
                    )
            if self.picked[index] > self.worker.capacity:
                raise InfeasibleRouteError(
                    f"load {self.picked[index]} exceeds capacity {self.worker.capacity} "
                    f"at stop {index} of worker {self.worker.id}"
                )
            if self.picked[index] < 0:
                raise InfeasibleRouteError(
                    f"negative load {self.picked[index]} at stop {index} of worker {self.worker.id}"
                )

        # every pickup must have a matching later drop-off
        dropped = {
            stop.request.id for stop in self.stops if stop.kind is StopKind.DROPOFF
        }
        missing = seen_pickups - dropped
        if missing:
            raise InfeasibleRouteError(
                f"requests {sorted(missing)} are picked up but never dropped off"
            )

    # -------------------------------------------------------------- metrics

    def planned_cost(self, oracle: DistanceOracle, refresh: bool = False) -> float:
        """Remaining planned travel cost ``D(S_w)`` from ``l_0`` to ``l_n`` (seconds)."""
        if refresh or len(self.arr) != self.num_stops + 1:
            self.refresh(oracle)
        if not self.stops:
            return 0.0
        return self.arr[-1] - self.arr[0]

    # ------------------------------------------------------------ insertion

    def with_insertion(
        self,
        request: Request,
        pickup_index: int,
        dropoff_index: int,
        oracle: DistanceOracle,
        direct: float | None = None,
    ) -> "Route":
        """Return a new route with ``request`` inserted at positions ``(i, j)``.

        ``pickup_index`` = ``i`` places the pickup between ``l_i`` and
        ``l_{i+1}``; ``dropoff_index`` = ``j`` (with ``j >= i``) places the
        drop-off between ``l_j`` and ``l_{j+1}`` of the *original* route,
        matching Figure 2 of the paper. A caller that knows ``direct``, the
        request's ``L = dis(o_r, d_r)``, seeds it on the new route, which then
        re-times without querying it; this route's memo is not written.
        """
        n = self.num_stops
        i, j = pickup_index, dropoff_index
        if not 0 <= i <= j <= n:
            raise ValueError(f"invalid insertion positions ({i}, {j}) for a route of {n} stops")
        pickup = pickup_stop(request)
        dropoff = dropoff_stop(request)
        if i == j:
            new_stops = self.stops[:i] + [pickup, dropoff] + self.stops[i:]
        else:
            new_stops = (
                self.stops[:i] + [pickup] + self.stops[i:j] + [dropoff] + self.stops[j:]
            )
        route = Route(
            worker=self.worker,
            origin=self.origin,
            start_time=self.start_time,
            stops=new_stops,
            _direct_distances=dict(self._direct_distances),
        )
        if direct is not None:
            route.remember_direct_distance(request, direct)
        route.refresh(oracle)
        return route

    def without(self, request_id: int) -> "Route":
        """A new route without any stop of request ``request_id`` and without
        its ``L``; its auxiliary arrays are left unfilled."""
        return Route(
            worker=self.worker,
            origin=self.origin,
            start_time=self.start_time,
            stops=[stop for stop in self.stops if stop.request.id != request_id],
            _direct_distances=self._memo_without(request_id),
        )

    def _memo_without(self, request_id: int) -> dict[tuple[int, Vertex, Vertex], float]:
        return {
            key: direct for key, direct in self._direct_distances.items() if key[0] != request_id
        }

    def copy(self) -> "Route":
        """Shallow copy with fresh (unfilled) auxiliary arrays."""
        return Route(
            worker=self.worker,
            origin=self.origin,
            start_time=self.start_time,
            stops=list(self.stops),
            _direct_distances=dict(self._direct_distances),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        description = ", ".join(
            f"{'+' if stop.is_pickup else '-'}r{stop.request.id}@{stop.vertex}"
            for stop in self.stops
        )
        return (
            f"Route(worker={self.worker.id}, origin={self.origin}, "
            f"t0={self.start_time:.1f}, [{description}])"
        )


def _slack(arr: list[float], ddl: list[float]) -> list[float]:
    """``slack[k] = min_{k' > k} (ddl[k'] - arr[k'])`` (Eq. 8)."""
    n = len(arr) - 1
    slack = [INFINITY] * (n + 1)
    for index in range(n - 1, -1, -1):
        slack[index] = min(slack[index + 1], ddl[index + 1] - arr[index + 1])
    return slack


def empty_route(worker: Worker, start_time: float = 0.0) -> Route:
    """A route with no pending stop for ``worker`` at its initial location."""
    return Route(worker=worker, origin=worker.initial_location, start_time=start_time)


class RouteBlock:
    """Padded struct-of-arrays copy of many routes, one *row* (record) each.

    Row ``r`` holds a route's ``l_0..l_n``: ``count[r] = n + 1``, the
    worker's ``capacity[r]``, and in the stop-major matrices ``vertex``
    (``l_0`` is the worker's position), ``arr``, ``slack`` and ``picked`` the
    values ``matrix[0..n, r]`` exactly as on the :class:`Route`. Stop-major
    means ``matrix[j]`` is contiguous over the rows — the axis the relaxed DP
    of the decision phase vectorises over. Entries at and past ``count[r]``
    are padding: finite leftovers no reader may interpret. The block always
    keeps one spare stop past the longest route, so ``j + 1`` reads stay in
    range.

    The array-native decision phase reads routes through blocks instead of
    walking ``Route`` objects; :meth:`write_route` is the only place that
    knows how a route maps onto a row.
    """

    #: the per-stop matrices, in the order :meth:`write_route` fills them
    MATRICES = ("vertex", "arr", "slack", "picked")

    def __init__(self, capacities: Sequence[int], depth: int = 8) -> None:
        rows = len(capacities)
        self.capacity = np.asarray(capacities, dtype=np.int64)
        self.count = np.ones(rows, dtype=np.int64)
        self.vertex = np.zeros((depth, rows), dtype=np.int64)
        self.arr = np.zeros((depth, rows), dtype=np.float64)
        self.slack = np.zeros((depth, rows), dtype=np.float64)
        self.picked = np.zeros((depth, rows), dtype=np.int64)

    @classmethod
    def from_routes(cls, routes: Sequence[Route]) -> "RouteBlock":
        """A block holding ``routes`` (with fresh auxiliary arrays) in order."""
        depth = max((len(route.arr) for route in routes), default=1) + 1
        block = cls([route.worker.capacity for route in routes], depth)
        for row, route in enumerate(routes):
            block.write_route(row, route)
        return block

    def __len__(self) -> int:
        return self.count.size

    @property
    def depth(self) -> int:
        """Stops the matrices can hold (longest route plus at least one spare)."""
        return self.arr.shape[0]

    def write_route(self, row: int, route: Route) -> None:
        """Overwrite ``row`` with ``route``, whose auxiliary arrays are fresh."""
        count = len(route.arr)
        if count >= self.depth:
            self._deepen(2 * count)
        self.count[row] = count
        self.vertex[:count, row] = [route.origin, *[stop.vertex for stop in route.stops]]
        self.arr[:count, row] = route.arr
        self.slack[:count, row] = route.slack
        self.picked[:count, row] = route.picked

    def _deepen(self, depth: int) -> None:
        grow = depth - self.depth
        for name in self.MATRICES:
            matrix = getattr(self, name)
            padding = np.zeros((grow, matrix.shape[1]), dtype=matrix.dtype)
            setattr(self, name, np.concatenate((matrix, padding), axis=0))

    def take(self, rows: np.ndarray) -> "RouteBlock":
        """The given rows as a new block, trimmed to their longest route."""
        block = RouteBlock(self.capacity[rows], depth=0)
        block.count = self.count[rows]
        depth = int(block.count.max()) + 1 if rows.size else 1
        for name in self.MATRICES:
            setattr(block, name, getattr(self, name)[:depth].take(rows, axis=1))
        return block
