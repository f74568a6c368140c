"""Fleet advancement through the route table's due window.

``FleetState.advance_all`` is ``advance_rows`` over every row: only the
busy workers ``RouteTable.busy_due`` reports are walked, idle workers get no
eager clock, deliveries come back in fleet order and only workers whose
vertex changed are marked moved. The reference throughout is the seed's full
per-worker walk (``tests/simulation/seed_loop.walk_every_worker``) over a
twin fleet.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.timegrid import TIME_QUANTUM
from repro.simulation.fleet import FleetState
from tests.conftest import make_request, make_worker, route_with_requests
from tests.simulation.seed_loop import walk_every_worker
from tests.simulation.test_fleet import _assign
from tests.simulation.test_route_table import check_table

#: (worker id, start vertex) in fleet order — deliberately not id order
_INITIAL = ((7, 0), (2, 5), (40, 3))
#: added to the live fleet: between existing ids, and at a sparse id
_ADDED = ((5, 1), (10_001, 2))
#: request id -> (worker, origin, destination) on the 6-vertex line (10 s/edge)
_TRIPS = {1: (7, 2, 4), 2: (2, 3, 0), 3: (40, 4, 5), 4: (5, 3, 4), 5: (10_001, 0, 1)}
#: workers that never get a trip
_IDLE = (11, 3)


def _fleet(oracle) -> FleetState:
    """Five busy workers in fleet order 7, 2, 40, 5, 10 001 plus idle worker 11."""
    fleet = FleetState([make_worker(worker_id, vertex) for worker_id, vertex in _INITIAL], oracle)
    for worker_id, vertex in (*_ADDED, _IDLE):
        fleet.add_worker(make_worker(worker_id, vertex))
    for request_id, (worker_id, origin, destination) in _TRIPS.items():
        _assign(
            fleet.peek_state(worker_id),
            make_request(request_id, origin, destination, deadline=1e6),
            oracle,
        )
    fleet.drain_moved()
    fleet.drain_dirty_plans()
    return fleet


def _services(records):
    return [
        (record.request.id, record.worker_id, record.pickup_time, record.dropoff_time)
        for record in records
    ]


def _route_fields(state):
    route = state.route
    return (route.origin, route.start_time, tuple(route.stops), tuple(route.arr),
            route.concrete_path, state.travelled_cost)


#: clocks that land mid-edge, exactly on vertices, on stops, and past the end
_CLOCKS = (4.0, 10.0, 15.0, 15.0, 20.0, 27.5, 31.0, 40.0, 55.0, 90.0)


class TestAdvanceAllThroughTheWindow:
    def test_same_deliveries_in_the_same_order_as_the_full_walk(self, line_oracle):
        windowed = _fleet(line_oracle)
        walked = _fleet(line_oracle)
        assert list(windowed.states) == [7, 2, 40, 5, 10_001, 11]
        assert windowed.table.ids.tolist() == [2, 5, 7, 11, 40, 10_001]
        delivered = []
        for clock in _CLOCKS:
            got = _services(windowed.advance_all(clock))
            assert got == _services(walk_every_worker(walked, clock))
            delivered += got
            for worker_id in windowed.states:
                if not walked.peek_state(worker_id).is_idle:
                    assert _route_fields(windowed.peek_state(worker_id)) == _route_fields(
                        walked.peek_state(worker_id)
                    )
            check_table(windowed)
        assert sorted(entry[0] for entry in delivered) == sorted(_TRIPS)

    @given(steps=st.lists(st.sampled_from([0.0, TIME_QUANTUM, 2.5, 5.0, 10.0, 13.0]), max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_any_clock_sequence_reads_like_the_full_walk(self, line_oracle, steps):
        """Repeated clocks, one-tick steps, mid-edge and on-vertex stops."""
        windowed = _fleet(line_oracle)
        walked = _fleet(line_oracle)
        clock = 0.0
        for step in steps:
            clock += step
            assert _services(windowed.advance_all(clock)) == _services(
                walk_every_worker(walked, clock)
            )
            for worker_id, state in walked.states.items():
                if not state.is_idle:
                    assert _route_fields(windowed.peek_state(worker_id)) == _route_fields(state)
            check_table(windowed)

    def test_simultaneous_deliveries_come_back_in_fleet_order(self, line_oracle):
        fleet = _fleet(line_oracle)
        completed = fleet.advance_all(1_000.0)
        assert [record.worker_id for record in completed] == [7, 2, 40, 5, 10_001]

    def test_idle_rows_and_idle_routes_are_left_alone(self, line_oracle):
        fleet = _fleet(line_oracle)
        idle = fleet.peek_state(11)
        route, row = idle.route, fleet.table.row_of(11)
        for clock in _CLOCKS:
            fleet.advance_all(clock)
            assert idle.route is route
            assert (route.start_time, route.arr) == (0.0, [0.0])
            assert fleet.table.arr[0, row] == 0.0 and fleet.table.count[row] == 1
        # a worker whose trip ended (drop-off at 30) got its clock from the
        # advance that completed it, and none since
        finished = fleet.peek_state(10_001)
        assert finished.is_idle and finished.route.start_time == 31.0
        assert fleet.clock == 90.0

    def test_drains_exactly_the_workers_whose_vertex_changed(self, line_oracle):
        fleet = _fleet(line_oracle)
        for clock in _CLOCKS:
            before = {worker_id: state.position for worker_id, state in fleet.states.items()}
            fleet.advance_all(clock)
            changed = sorted(
                worker_id
                for worker_id, state in fleet.states.items()
                if state.position != before[worker_id]
            )
            assert fleet.drain_moved() == changed
            assert 11 not in changed

    @pytest.mark.parametrize("clock, picked_up", [(13.0 - TIME_QUANTUM, False), (13.0, True)])
    def test_a_stop_reached_exactly_is_walked_like_the_full_walk(
        self, line_oracle, clock, picked_up
    ):
        """``advance_to`` completes a stop once ``arr[1] <= clock`` — here a
        pickup under the worker's wheels at t=13 — so the window must report
        the row as due at exactly 13 and not one tick short of it."""
        windowed, walked = (FleetState([make_worker(0, 5)], line_oracle) for _ in range(2))
        for fleet in (windowed, walked):
            state = fleet.peek_state(0)
            request = make_request(1, origin=5, destination=4, deadline=1e6)
            route = route_with_requests(state.worker, line_oracle, [request], start_time=13.0)
            state.adopt_route(route, request=request)
        windowed.advance_all(clock)
        walk_every_worker(walked, clock)
        expected = 13.0 if picked_up else None
        assert walked.peek_state(0).assigned_requests[1].pickup_time == expected
        assert _route_fields(windowed.peek_state(0)) == _route_fields(walked.peek_state(0))
        assert windowed.peek_state(0).assigned_requests[1].pickup_time == expected
        check_table(windowed)


class TestSkippedIdleWorkerOnTouch:
    @pytest.mark.parametrize("clock", [4.0, 27.5, 90.0])
    def test_reads_exactly_like_the_eagerly_bumped_one(self, line_oracle, clock):
        lazy = _fleet(line_oracle)
        bumped = _fleet(line_oracle)
        for earlier in (1.0, 2.5, clock):
            lazy.advance_all(earlier)
            bumped.advance_all(earlier)
            bumped.peek_state(11).advance_to(earlier)  # the eager idle clock
        assert lazy.peek_state(11).route.start_time == 0.0 <= lazy.clock
        request = make_request(99, 1, 5, release=clock, deadline=clock + 500.0)
        touched, reference = lazy.state_of(11), bumped.state_of(11)
        assert touched.route.start_time == reference.route.start_time == clock
        assert touched.route.arr == reference.route.arr == [clock]
        row = lazy.table.row_of(11)
        assert lazy.table.arr[0, row] == bumped.table.arr[0, row] == clock
        operator = LinearDPInsertion()
        got = operator.best_insertion(copy.copy(touched.route), request, line_oracle)
        expected = operator.best_insertion(copy.copy(reference.route), request, line_oracle)
        assert got == expected and got.feasible
        new_route = touched.route.with_insertion(
            request, got.pickup_index, got.dropoff_index, line_oracle
        )
        assert new_route == reference.route.with_insertion(
            request, expected.pickup_index, expected.dropoff_index, line_oracle
        )
        check_table(lazy)

    def test_states_of_brings_a_skipped_idle_row_up_to_the_clock(self, line_oracle):
        """The block kernels read an idle ``arr[0]`` from the table."""
        fleet = _fleet(line_oracle)
        fleet.advance_all(27.5)
        row = fleet.table.row_of(11)
        assert fleet.table.arr[0, row] == 0.0
        assert fleet.table.due(slice(None), 27.5)[row]
        assert not fleet.table.busy_due(slice(None), 27.5)[row]
        fleet.states_of(fleet.table.rows_of([11, 7]))
        assert fleet.table.arr[0, row] == 27.5
