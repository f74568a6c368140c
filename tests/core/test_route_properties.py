"""Property-based invariants of routes and their auxiliary arrays.

Whatever sequence of feasible insertions is applied to a route, the auxiliary
arrays must stay mutually consistent (Eq. 6-9 of the paper):

* ``arr`` is non-decreasing and consistent with pairwise shortest distances;
* ``picked`` never leaves ``[0, K_w]`` and ends at the on-board load of zero
  once every pending request is delivered;
* ``slack[k]`` equals the minimum remaining deadline margin after ``k``;
* re-refreshing is idempotent.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.route import empty_route
from repro.core.types import Request, StopKind, Worker
from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle

_NETWORK = grid_city(rows=6, columns=6, block_metres=180.0, removed_block_fraction=0.0, seed=23)
_ORACLE = DistanceOracle(_NETWORK, backend="apsp")
_VERTICES = sorted(_NETWORK.vertices())
_OPERATOR = LinearDPInsertion()

_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def built_routes(draw):
    """A route built by a random sequence of best insertions."""
    capacity = draw(st.integers(min_value=1, max_value=6))
    worker = Worker(id=0, initial_location=_VERTICES[draw(st.integers(0, 35))], capacity=capacity)
    route = empty_route(worker, start_time=float(draw(st.integers(0, 100))))
    route.refresh(_ORACLE)
    for request_id in range(draw(st.integers(min_value=0, max_value=6))):
        origin = _VERTICES[draw(st.integers(0, 35))]
        destination = _VERTICES[draw(st.integers(0, 35))]
        if origin == destination:
            destination = _VERTICES[(_VERTICES.index(origin) + 5) % len(_VERTICES)]
        request = Request(
            id=request_id,
            origin=origin,
            destination=destination,
            release_time=route.start_time,
            deadline=route.start_time + float(draw(st.integers(100, 3000))),
            penalty=1.0,
            capacity=draw(st.integers(min_value=1, max_value=2)),
        )
        result = _OPERATOR.best_insertion(route, request, _ORACLE)
        if result.feasible:
            route = route.with_insertion(request, result.pickup_index, result.dropoff_index, _ORACLE)
    return route


class TestRouteInvariants:
    @given(built_routes())
    @_SETTINGS
    def test_arrival_times_non_decreasing_and_consistent(self, route):
        for index in range(1, route.num_stops + 1):
            leg = _ORACLE.distance(route.vertex_at(index - 1), route.vertex_at(index))
            assert route.arr[index] == route.arr[index - 1] + leg
            assert route.arr[index] >= route.arr[index - 1]

    @given(built_routes())
    @_SETTINGS
    def test_load_stays_within_capacity_and_returns_to_zero(self, route):
        assert all(0 <= load <= route.worker.capacity for load in route.picked)
        assert route.picked[-1] == 0 if route.num_stops else route.picked[0] == 0

    @given(built_routes())
    @_SETTINGS
    def test_slack_matches_definition(self, route):
        n = route.num_stops
        for k in range(n + 1):
            margins = [route.ddl[j] - route.arr[j] for j in range(k + 1, n + 1)]
            expected = min(margins) if margins else math.inf
            assert route.slack[k] == expected

    @given(built_routes())
    @_SETTINGS
    def test_refresh_is_idempotent(self, route):
        arr_before = list(route.arr)
        picked_before = list(route.picked)
        route.refresh(_ORACLE)
        assert route.arr == pytest.approx(arr_before)
        assert route.picked == picked_before

    @given(built_routes())
    @_SETTINGS
    def test_built_routes_are_feasible(self, route):
        assert route.is_feasible(_ORACLE)

    @given(built_routes())
    @_SETTINGS
    def test_pickup_always_precedes_dropoff(self, route):
        seen_pickups = set()
        onboard = {request.id for request in route.onboard_requests()}
        for stop in route.stops:
            if stop.kind is StopKind.PICKUP:
                seen_pickups.add(stop.request.id)
            else:
                assert stop.request.id in seen_pickups or stop.request.id in onboard

    @given(built_routes())
    @_SETTINGS
    def test_planned_cost_equals_sum_of_legs(self, route):
        total = sum(
            _ORACLE.distance(route.vertex_at(index - 1), route.vertex_at(index))
            for index in range(1, route.num_stops + 1)
        )
        assert route.planned_cost(_ORACLE) == total
