"""The linear DP's scalar walk against its lazily-querying form.

``LinearDPInsertion.best_insertion`` reads the endpoint distances of the
stops its scan visits into two plain lists before it starts (one
``endpoint_distances`` call, whatever the route's length), and reads
``dis(l_{k+1}, d_r)`` past that prefix only when a branch is open at the
break. :class:`LazyLinearDP` below is the walk as it read them before: every
distance on demand through the per-call memo, the reference the walk was
held to before the grouped read too. Contract, per route and on both
backends (``apsp`` and ``ch``): ``delta``, both indices and
``distance_queries`` are equal, and so is the oracle's own query counter;
the walk, passed ``L`` as ``direct``, writes nothing into the route's
direct-distance memo and answers in plain floats.

The generator aims at what the read-ahead could get wrong: routes whose scan
visits fewer and more than four stops, one-seat vehicles that run full
mid-route (``Dio`` resets), deadlines exactly on, one tick (2⁻¹⁰ s) before and after
some ``arr[j]`` or ``arr[j] + L`` (the two early exits), and scans cut short
with no branch open at the cut.

Seeded bugs confirmed red against this module (then reverted): reading
``dis(l_{k+1}, d_r)`` at the cut unconditionally (the query count differs),
and ``<`` for ``<=`` on the capacity test (the chosen ``(i, j)`` differs).
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.insertion.base import INFINITY, InsertionResult, _PairwiseDistances
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.route import Route
from repro.core.timegrid import TIME_QUANTUM
from repro.core.types import Request
from repro.network.oracle import DistanceOracle
from tests.conftest import build_line_network, make_request, make_worker, route_with_requests
from tests.core.test_block_linear_dp import long_routes
from tests.core.test_insertion_equivalence import (
    _NETWORK,
    _ORACLE,
    _vertex,
    insertion_scenarios,
)


class LazyLinearDP(LinearDPInsertion):
    """Algorithm 3's walk reading every distance lazily (the reference)."""

    def best_insertion(
        self, route: Route, request: Request, oracle, direct: float | None = None
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
        best_delta = INFINITY
        best_pair = None
        dio = INFINITY
        plc = -1
        for j in range(n + 1):
            dist_j_origin = distances.to_origin(j)
            dist_j_destination = distances.to_destination(j)
            if picked[j] <= free_capacity and arr[j] + dist_j_origin + direct <= deadline:
                if j == n:
                    delta_same = dist_j_origin + direct
                else:
                    delta_same = (
                        dist_j_origin + direct + distances.to_destination(j + 1)
                        - distances.leg(j)
                    )
                if delta_same <= slack[j] and delta_same < best_delta:
                    best_delta = delta_same
                    best_pair = (j, j)
            if j > 0 and dio < INFINITY:
                if j == n:
                    detour_destination = dist_j_destination
                else:
                    detour_destination = (
                        dist_j_destination + distances.to_destination(j + 1) - distances.leg(j)
                    )
                capacity_ok = picked[j] <= free_capacity
                deadline_ok = arr[j] + dio + dist_j_destination <= deadline
                slack_ok = dio + detour_destination <= slack[j]
                if capacity_ok and deadline_ok and slack_ok:
                    delta_split = detour_destination + dio
                    if delta_split < best_delta:
                        best_delta = delta_split
                        best_pair = (plc, j)
            if self.aggressive_break:
                if arr[j] + direct > deadline:
                    break
            elif arr[j] > deadline:
                break
            if j < n:
                if picked[j] > free_capacity:
                    dio = INFINITY
                    plc = -1
                else:
                    detour_origin = (
                        dist_j_origin + distances.to_origin(j + 1) - distances.leg(j)
                    )
                    if detour_origin <= slack[j] and detour_origin < dio:
                        dio = detour_origin
                        plc = j
        if best_pair is None:
            return InsertionResult.infeasible(distance_queries=distances.queries)
        return InsertionResult(
            feasible=True, delta=best_delta, pickup_index=best_pair[0],
            dropoff_index=best_pair[1], distance_queries=distances.queries,
        )


_ORACLES = {"apsp": _ORACLE, "ch": DistanceOracle(_NETWORK, backend="ch")}

_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: where a deadline sits relative to an ``arr[j]`` (or ``arr[j] + L``)
_NUDGES = (-TIME_QUANTUM, 0.0, TIME_QUANTUM, 0.5, 40.0)


@st.composite
def walk_scenarios(draw) -> tuple[Route, Request]:
    """One route of 0-14 stops and a request whose deadline often sits on a
    break boundary of either early exit."""
    route = draw(long_routes())
    visited = [route.vertex_at(k) for k in range(len(route.arr))]
    anywhere = st.integers(0, 200).map(_vertex)
    origin = draw(st.one_of(st.sampled_from(visited), anywhere))
    destination = draw(st.one_of(st.sampled_from(visited), anywhere))
    if destination == origin:
        destination = _vertex(origin + 1)
    direct = _ORACLE.distance(origin, destination)
    boundary = draw(st.sampled_from(route.arr)) + draw(st.sampled_from([0.0, direct]))
    deadline = draw(st.one_of(
        st.sampled_from(_NUDGES).map(lambda nudge: boundary + nudge),
        st.integers(30, 6000).map(lambda window: route.arr[0] + float(window)),
    ))
    request = Request(
        id=1000, origin=origin, destination=destination, release_time=0.0,
        deadline=max(deadline, 0.0), penalty=10.0, capacity=draw(st.integers(1, 3)),
    )
    return route, request


def _walk(operator, route, request, oracle=_ORACLE):
    """The result and the oracle's own query count of one walk, passed ``L``;
    the route's direct-distance memo is left as it was."""
    direct = oracle.distance(request.origin, request.destination)
    memo = dict(route._direct_distances)
    before = oracle.counters.distance_queries
    result = operator.best_insertion(route, request, oracle, direct)
    assert route._direct_distances == memo
    return result, oracle.counters.distance_queries - before


def _assert_walk_equals_lazy(route, request, aggressive, backend):
    oracle = _ORACLES[backend]
    walk = _walk(LinearDPInsertion(aggressive_break=aggressive), route, request, oracle)
    lazy = _walk(LazyLinearDP(aggressive_break=aggressive), route, request, oracle)
    assert walk == lazy  # delta, indices, distance_queries, oracle count
    assert type(walk[0].delta) is float  # plain floats, no numpy scalar


@pytest.mark.parametrize("aggressive", [False, True], ids=["conservative", "aggressive"])
@pytest.mark.parametrize("backend", sorted(_ORACLES))
class TestWalkEqualsLazyWalk:
    @given(walk_scenarios())
    @_SETTINGS
    def test_results_and_query_counts(self, backend, aggressive, scenario):
        _assert_walk_equals_lazy(*scenario, aggressive, backend)

    @given(insertion_scenarios())
    @_SETTINGS
    def test_insertion_scenarios(self, backend, aggressive, scenario):
        _assert_walk_equals_lazy(*scenario, aggressive, backend)

    def test_deadline_on_every_boundary_of_a_long_route(self, backend, aggressive):
        """A 10-stop route, the deadline swept across every ``arr[j]`` and
        ``arr[j] + L``, exactly on it and one tick either side."""
        worker = make_worker(location=_vertex(3), capacity=5)
        route = route_with_requests(worker, _ORACLE, [
            make_request(index, origin=_vertex(7 * index + 5),
                         destination=_vertex(11 * index + 20), deadline=50_000.0)
            for index in range(5)
        ], start_time=40.0)
        assert route.num_stops == 10
        origin, destination = _vertex(15), _vertex(33)
        direct = _ORACLE.distance(origin, destination)
        for arrival in route.arr:
            for boundary in (arrival, arrival + direct):
                for nudge in (-TIME_QUANTUM, 0.0, TIME_QUANTUM):
                    request = make_request(1000, origin=origin, destination=destination,
                                           deadline=boundary + nudge)
                    _assert_walk_equals_lazy(route, request, aggressive, backend)

    def test_the_last_free_seat_takes_a_split_insertion(self, backend, aggressive):
        """Line 0-1-...-11 (10 s edges): a two-seat vehicle at 0 carries a rider
        2 -> 6. A new rider 1 -> 4 rides along for free — picked up before the
        first stop, dropped after it, where the load leaves exactly one seat:
        ``picked[j] == free capacity`` must count as fitting."""
        oracle = DistanceOracle(build_line_network(num_vertices=12), backend=backend)
        route = route_with_requests(
            make_worker(location=0, capacity=2), oracle,
            [make_request(1, origin=2, destination=6, deadline=500.0)],
        )
        assert route.picked == [0, 1, 0]
        request = make_request(2, origin=1, destination=4, deadline=500.0)
        walk = LinearDPInsertion(aggressive_break=aggressive).best_insertion(route, request, oracle)
        assert (walk.pickup_index, walk.dropoff_index, walk.delta) == (0, 1, 0.0)
        lazy = LazyLinearDP(aggressive_break=aggressive).best_insertion(route, request, oracle)
        assert walk == lazy


@pytest.mark.parametrize("backend", sorted(_ORACLES))
def test_the_walk_issues_one_endpoint_read(backend, monkeypatch):
    """Whatever the route's length, the walk asks ``endpoint_distances`` once
    and ``distance`` only for the stop after a cut with a branch open."""
    oracle = _ORACLES[backend]
    calls = {"endpoint_distances": 0, "distance": 0}
    for name in calls:
        original = getattr(DistanceOracle, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(DistanceOracle, name, counted)
    for riders in range(4):
        route = route_with_requests(make_worker(location=_vertex(3), capacity=4), oracle, [
            make_request(index, origin=_vertex(9 * index + 5),
                         destination=_vertex(13 * index + 20), deadline=50_000.0)
            for index in range(riders)
        ])
        request = make_request(1000, origin=_vertex(15), destination=_vertex(33))
        for name in calls:
            calls[name] = 0
        LinearDPInsertion().best_insertion(route, request, oracle, 100.0)
        assert calls == {"endpoint_distances": 1, "distance": 0}


def test_generators_reach_the_hard_cases():
    """The strategy does produce short and long scans, resets, and scans cut
    short with and without a branch open at the cut — otherwise the
    properties above would be vacuous."""
    seen = dict.fromkeys(("short", "long", "reset", "cut_open", "cut_closed"), 0)

    @given(walk_scenarios())
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=list(HealthCheck))
    def sweep(scenario):
        route, request = scenario
        if request.capacity > route.worker.capacity:
            return
        operator = LinearDPInsertion()
        direct = _ORACLE.distance(request.origin, request.destination)
        last = operator._scan_stop_index(route.arr, route.num_stops, request.deadline, direct)
        seen["long" if last >= 4 else "short"] += 1
        free = route.worker.capacity - request.capacity
        seen["reset"] += any(load > free for load in route.picked[:last])
        if last < route.num_stops:
            lazy = LazyLinearDP()
            _, queries = _walk(lazy, route, request)
            seen["cut_open" if queries > 2 * (last + 1) else "cut_closed"] += 1

    sweep()
    assert min(seen.values()) >= 5, seen
