"""pruneGreedyDP bounds route-table rows as last written.

Under lazy advancement a busy row may lag the clock. Its Lemma 7 bound must
never exceed the bound of the same worker brought to the clock (a partial
move, stop completions, or the whole route done), or the Lemma 8 cut would
not be admissible. The candidate filter's reach test reads the same stale
rows and must keep every worker the paper's naive operator can insert into.
And the decision rejection must see the fresh minimum: a stale bound that
passes ``p_r >= alpha * LB`` while the fresh one fails must not let the
request through.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.insertion.lower_bound import euclidean_insertion_lower_bounds
from repro.core.insertion.naive_dp import NaiveDPInsertion
from repro.core.instance import URPSMInstance
from repro.core.route import Route
from repro.core.types import Request, Worker
from repro.dispatch import DispatcherConfig, GreedyDP, PruneGreedyDP
from repro.network.oracle import DistanceOracle
from repro.simulation.fleet import FleetState
from tests.conftest import build_line_network, make_request, route_with_requests
from tests.simulation.test_carried_legs import _SIDE, _city, routes

_VERTICES = st.integers(0, _SIDE * _SIDE - 1)


def _row_bound(fleet: FleetState, request: Request, oracle: DistanceOracle) -> float:
    """Lemma 7 on worker 0's route-table row as it stands."""
    direct = oracle.distance(request.origin, request.destination)
    block = fleet.table.take(np.array([fleet.table.row_of(0)]))
    return euclidean_insertion_lower_bounds(block, request, oracle, direct).item(0)


@pytest.mark.parametrize("backend", ["apsp", "ch"])
@given(
    route=routes(),
    clock=st.integers(0, 3000),
    endpoints=st.tuples(_VERTICES, _VERTICES),
    deadline=st.integers(0, 4000),
    capacity=st.integers(1, 3),
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_stale_row_never_bounds_above_the_fresh_row(
    backend, route, clock, endpoints, deadline, capacity
):
    """``<=`` with no slack, at any clock: mid-edge, past ``arr[1]`` and past
    the end of the route (the fresh row is then idle)."""
    network = _city()
    oracle = DistanceOracle(network, backend=backend)
    origin, stops = route
    worker = Worker(id=0, initial_location=origin, capacity=3)
    fleet = FleetState([worker], oracle)
    fleet.peek_state(0).adopt_route(
        Route(worker=worker, origin=origin, start_time=0.0, stops=stops)
    )
    request = Request(id=99, origin=endpoints[0], destination=endpoints[1],
                      release_time=float(clock), deadline=float(clock + deadline),
                      penalty=1.0, capacity=capacity)
    stale = _row_bound(fleet, request, oracle)
    fleet.clock = float(clock)
    fleet.state_of(0)
    fresh = _row_bound(fleet, request, oracle)
    assert stale <= fresh


def _lazy_fleet(workers, routes_by_worker, clock, dispatcher, request):
    """A fleet whose busy rows were written at time 0 and not touched since,
    with ``dispatcher`` bound to it and its grid synced at ``clock``."""
    network = _city()
    oracle = DistanceOracle(network, backend="apsp")
    instance = URPSMInstance(network, oracle, workers, [request])
    fleet = FleetState(workers, oracle)
    dispatcher.setup(instance, fleet)
    for worker, (_origin, stops) in zip(workers, routes_by_worker):
        if stops:
            fleet.peek_state(worker.id).adopt_route(
                Route(worker=worker, origin=worker.initial_location, start_time=0.0,
                      stops=stops)
            )
    fleet.clock = clock
    dispatcher.sync_grid()
    return fleet, oracle


@given(
    plans=st.lists(routes(), min_size=1, max_size=5),
    clock=st.integers(0, 1500),
    endpoints=st.tuples(_VERTICES, _VERTICES),
    budget=st.integers(0, 900),
)
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_worker_the_naive_operator_can_serve_is_a_candidate(
    plans, clock, endpoints, budget
):
    workers = [Worker(id=3 * index, initial_location=origin, capacity=20)
               for index, (origin, _stops) in enumerate(plans)]
    request = Request(id=99, origin=endpoints[0], destination=endpoints[1],
                      release_time=float(clock), deadline=float(clock + budget), penalty=1.0)
    dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=400.0))
    fleet, oracle = _lazy_fleet(workers, plans, float(clock), dispatcher, request)
    candidates = set(dispatcher.candidate_worker_ids(request, float(clock)))
    naive = NaiveDPInsertion()
    for worker in workers:
        route = fleet.state_of(worker.id).route
        if naive.best_insertion(route, request, oracle).feasible:
            assert worker.id in candidates


def _line_setup(dispatcher_class):
    """Worker 0 left vertex 0 at time 0 for a pickup at vertex 11 (10 s per
    edge); at the clock, 50 s, it stands at vertex 5. Its row, last written
    at time 0, still says vertex 0."""
    network = build_line_network(12)
    oracle = DistanceOracle(network, backend="apsp")
    worker = Worker(id=0, initial_location=0, capacity=4)
    far = make_request(1, origin=11, destination=10)
    # behind the worker: from vertex 0 to vertex 1
    behind = make_request(2, origin=0, destination=1, release=50.0, penalty=50.0)
    instance = URPSMInstance(network, oracle, [worker], [far, behind])
    fleet = FleetState([worker], oracle)
    dispatcher = dispatcher_class(DispatcherConfig(grid_cell_metres=500.0))
    dispatcher.setup(instance, fleet)
    fleet.state_of(0).adopt_route(route_with_requests(worker, oracle, [far]), request=far)
    fleet.clock = 50.0
    return dispatcher, fleet, oracle, behind


def test_the_rejection_sees_the_fresh_minimum():
    """The stale row bounds the detour at 0 s (pick up at vertex 0, on the
    way); at the clock the worker must turn back, 100 s, above the 50 s
    penalty. pruneGreedyDP must reject at the decision phase like GreedyDP,
    which bounds rows at the clock."""
    dispatcher, fleet, oracle, behind = _line_setup(PruneGreedyDP)
    direct = oracle.distance(behind.origin, behind.destination)
    rows = dispatcher.candidate_rows(behind, 50.0)
    bounds, _ = dispatcher._decision_bounds(behind, rows, direct)
    assert fleet.table.arr[0, 0] == 0.0  # the row is stale
    assert bounds.tolist() == [0.0]  # and passes the rejection test
    outcome = dispatcher.dispatch(behind, 50.0)
    assert fleet.peek_state(0).route.origin == 5
    assert _row_bound(fleet, behind, oracle) == 100.0

    greedy, _fleet, _oracle, request = _line_setup(GreedyDP)
    expected = greedy.dispatch(request, 50.0)
    assert (outcome.served, outcome.decision_rejected) == (False, True)
    assert (expected.served, expected.decision_rejected) == (False, True)
    assert outcome.insertions_evaluated == expected.insertions_evaluated == 0

