"""A partial advance re-times a route exactly, without a query.

A stop completion shifts every array of the route by one entry; a partial
move along the first leg sets ``arr[0]`` to the new clock and keeps every
later arrival (``Route.moved_to``): the worker stands on the recorded
shortest path to ``l_1``, so ``dis(position, l_1)`` is exactly ``arr[1]``
minus the clock. A live network update re-plans every busy route onto a
fresh one. Whatever the sequence, every array must equal a from-scratch
``refresh`` bit for bit, and no advance may ask the oracle a distance.

The routes hold 0-14 stops, so both ``refresh`` walks run: the scalar one
below four stops and the grouped ``distance_pairs`` call from four on. Both
backends run: every edge cost is on the time grid, so a carried sum is the
same float as a re-query.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.route import Route
from repro.core.timegrid import TIME_QUANTUM, on_grid
from repro.core.types import Request, Worker, dropoff_stop, pickup_stop
from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle
from repro.simulation.fleet import FleetState
from tests.simulation.test_route_table import check_table

_SIDE = 6
#: clock steps: one tick, mid-edge, about one edge, several edges
_STEPS = (0.0, TIME_QUANTUM, 4.0, 11.0, 17.5, 30.0, 75.0)


def _city():
    # a full lattice: one closed street never disconnects it
    return grid_city(rows=_SIDE, columns=_SIDE, block_metres=200.0,
                     removed_block_fraction=0.0, seed=4)


def _assert_fresh(route: Route, oracle: DistanceOracle) -> None:
    """``route``'s arrays equal a fresh refresh (direct distances re-queried)."""
    fresh = Route(worker=route.worker, origin=route.origin,
                  start_time=route.start_time, stops=list(route.stops))
    fresh.refresh(oracle)
    assert route.arr == fresh.arr
    assert route.ddl == fresh.ddl
    assert route.slack == fresh.slack
    assert route.picked == fresh.picked
    assert len(route.arr) == route.num_stops + 1


@st.composite
def routes(draw):
    """Stops of 0-7 requests in a random precedence-respecting order; some
    requests are already on board (drop-off only)."""
    vertices = st.integers(0, _SIDE * _SIDE - 1)
    stops = []
    for request_id in range(draw(st.integers(0, 7))):
        request = Request(id=request_id, origin=draw(vertices), destination=draw(vertices),
                          release_time=0.0, deadline=1e9, penalty=1.0,
                          capacity=draw(st.integers(1, 2)))
        if draw(st.booleans()):
            stops.insert(draw(st.integers(0, len(stops))), dropoff_stop(request))
        else:
            at = draw(st.integers(0, len(stops)))
            stops.insert(at, pickup_stop(request))
            stops.insert(draw(st.integers(at + 1, len(stops))), dropoff_stop(request))
    return draw(vertices), stops


@pytest.mark.parametrize("backend", ["ch", "apsp"])
@given(route=routes(), start=st.integers(0, 5000), cut=st.integers(1, 20))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_moved_to_asks_nothing_and_equals_a_fresh_refresh(backend, route, start, cut):
    """A worker part of the way along the shortest path to ``l_1``: the moved
    route issues no query, keeps every arrival after ``l_0`` and equals a
    fresh refresh of the moved route bit for bit."""
    network = _city()
    oracle = DistanceOracle(network, backend=backend)
    origin, stops = route
    if not stops:
        return
    worker = Worker(id=0, initial_location=origin, capacity=20)
    timed = Route(worker=worker, origin=origin, start_time=float(start), stops=stops)
    timed.refresh(oracle)
    path = oracle.path(origin, stops[0].vertex)
    passed = min(cut, len(path) - 1)
    moved_cost = sum(network.edge_cost(u, v) for u, v in zip(path, path[1:passed + 1]))
    queries = oracle.counters.distance_queries
    moved = timed.moved_to(path[passed], timed.arr[0] + moved_cost, tuple(path[passed:]))
    assert oracle.counters.distance_queries == queries
    assert moved.arr[1:] == timed.arr[1:]
    assert moved.concrete_path == tuple(path[passed:])
    _assert_fresh(moved, oracle)


@pytest.mark.parametrize("backend", ["ch", "apsp"])
@given(
    route=routes(),
    steps=st.lists(st.sampled_from(_STEPS), min_size=1, max_size=14),
    closure=st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(1, 6)),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_advance_reads_like_a_fresh_refresh(backend, route, steps, closure):
    """Partial moves, stop completions and a closure that reopens: after each,
    the route equals its fresh refresh, and no advance costs a query."""
    network = _city()
    oracle = DistanceOracle(network, backend=backend)
    origin, stops = route
    worker = Worker(id=0, initial_location=origin, capacity=20)
    fleet = FleetState([worker], oracle)
    state = fleet.peek_state(0)
    state.adopt_route(Route(worker=worker, origin=origin, start_time=0.0, stops=stops))
    _assert_fresh(state.route, oracle)
    close_at, leg, reopen_after = closure
    closed = None
    clock = 0.0
    for index, step in enumerate(steps):
        clock += step
        queries = oracle.counters.distance_queries
        fleet.advance_all(clock)
        assert oracle.counters.distance_queries == queries
        _assert_fresh(state.route, oracle)
        check_table(fleet)
        current = state.route
        if index == close_at and current.stops:
            # close the first street of some leg's path, then re-plan
            k = leg % current.num_stops
            path = oracle.path(current.vertex_at(k), current.vertex_at(k + 1))
            if len(path) > 1:
                closed = network.remove_edge(path[0], path[1])
                oracle.refresh_topology()
                fleet.replan_busy()
                _assert_fresh(state.route, oracle)
                check_table(fleet)
        elif closed is not None and index == close_at + reopen_after:
            network.add_edge(closed.u, closed.v, length=closed.length,
                             speed=closed.speed, road_class=closed.road_class)
            closed = None
            oracle.refresh_topology()
            fleet.replan_busy()
            _assert_fresh(state.route, oracle)
            check_table(fleet)


@pytest.mark.parametrize("backend", ["ch", "apsp"])
def test_a_closure_under_a_later_leg_re_times_it(backend):
    """The street closed carries a leg *behind* the first one — a leg a
    partial move shifts without re-querying — and is the only one-block
    road between its ends, so its cost must change."""
    network = _city()
    oracle = DistanceOracle(network, backend=backend)
    worker = Worker(id=0, initial_location=0, capacity=4)
    # l_0 = 0 -> l_1 = 14 -> l_2 = 15 (one block east of 14) -> l_3 = 35
    request = Request(id=1, origin=14, destination=15, release_time=0.0,
                      deadline=1e9, penalty=1.0)
    other = Request(id=2, origin=0, destination=35, release_time=0.0,
                    deadline=1e9, penalty=1.0)
    fleet = FleetState([worker], oracle)
    state = fleet.peek_state(0)
    state.adopt_route(Route(worker=worker, origin=0, start_time=0.0, stops=[
        pickup_stop(request), dropoff_stop(request), dropoff_stop(other),
    ]))
    fleet.advance_all(on_grid(state.route.arr[1] / 2))  # part of the way to l_1
    assert state.route.origin != 0 and state.route.num_stops == 3
    before = state.route.arr[2] - state.route.arr[1]
    network.remove_edge(14, 15)
    oracle.refresh_topology()
    fleet.replan_busy()
    assert state.route.arr[2] - state.route.arr[1] > before
    _assert_fresh(state.route, oracle)
    fleet.advance_all(state.route.arr[1] - 1.0)
    _assert_fresh(state.route, oracle)
    check_table(fleet)
