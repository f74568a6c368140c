"""Tests for routes and their auxiliary arrays (Definition 4, Eq. 6-9)."""

import math

import pytest

from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.insertion.naive_dp import NaiveDPInsertion
from repro.core.route import Route, empty_route
from repro.core.types import StopKind, dropoff_stop, pickup_stop
from repro.exceptions import InfeasibleRouteError
from tests.conftest import make_request, make_worker, route_with_requests


class TestEmptyRoute:
    def test_empty_route_has_no_stops(self, line_oracle):
        route = empty_route(make_worker(location=2), start_time=5.0)
        route.refresh(line_oracle)
        assert route.is_empty
        assert route.num_stops == 0
        assert route.origin == 2
        assert route.arr == [5.0]
        assert route.planned_cost(line_oracle) == 0.0

    def test_empty_route_is_feasible(self, line_oracle):
        route = empty_route(make_worker())
        assert route.is_feasible(line_oracle)

    def test_vertex_at_zero_is_origin(self, line_oracle):
        route = empty_route(make_worker(location=3))
        assert route.vertex_at(0) == 3


class TestAuxiliaryArrays:
    def test_arrival_times_accumulate_leg_costs(self, line_oracle):
        # line network: 10 seconds per edge; route 0 -> 2 (pickup) -> 4 (dropoff)
        worker = make_worker(location=0)
        request = make_request(1, origin=2, destination=4, deadline=200.0)
        route = route_with_requests(worker, line_oracle, [request])
        assert route.arr == pytest.approx([0.0, 20.0, 40.0])

    def test_deadline_array_uses_pickup_rule(self, line_oracle):
        # ddl[pickup] = e_r - dis(o_r, d_r), ddl[dropoff] = e_r   (Eq. 6)
        worker = make_worker(location=0)
        request = make_request(1, origin=2, destination=4, deadline=100.0)
        route = route_with_requests(worker, line_oracle, [request])
        assert route.ddl[1] == pytest.approx(100.0 - 20.0)
        assert route.ddl[2] == pytest.approx(100.0)

    def test_slack_is_minimum_of_later_margins(self, line_oracle):
        worker = make_worker(location=0)
        request = make_request(1, origin=2, destination=4, deadline=100.0)
        route = route_with_requests(worker, line_oracle, [request])
        # margins: pickup 80 - 20 = 60, dropoff 100 - 40 = 60
        assert route.slack[0] == pytest.approx(60.0)
        assert route.slack[1] == pytest.approx(60.0)
        assert route.slack[2] == math.inf

    def test_picked_tracks_load_changes(self, line_oracle):
        worker = make_worker(location=0, capacity=5)
        first = make_request(1, origin=1, destination=4, capacity=2)
        second = make_request(2, origin=2, destination=3, capacity=3)
        route = empty_route(worker)
        route.refresh(line_oracle)
        route = route.with_insertion(first, 0, 0, line_oracle)
        # insert second between pickup and dropoff of first
        route = route.with_insertion(second, 1, 1, line_oracle)
        kinds = [stop.kind for stop in route.stops]
        assert kinds == [StopKind.PICKUP, StopKind.PICKUP, StopKind.DROPOFF, StopKind.DROPOFF]
        assert route.picked == [0, 2, 5, 2, 0]

    def test_arrays_have_length_stops_plus_one(self, line_oracle):
        worker = make_worker(location=0)
        requests = [make_request(i, origin=1, destination=3) for i in range(3)]
        route = route_with_requests(worker, line_oracle, requests)
        assert len(route.arr) == route.num_stops + 1
        assert len(route.ddl) == route.num_stops + 1
        assert len(route.slack) == route.num_stops + 1
        assert len(route.picked) == route.num_stops + 1


class TestFeasibility:
    def test_deadline_violation_detected(self, line_oracle):
        worker = make_worker(location=0)
        request = make_request(1, origin=2, destination=4, deadline=30.0)  # needs 40s
        route = route_with_requests(worker, line_oracle, [request])
        with pytest.raises(InfeasibleRouteError, match="deadline"):
            route.validate(line_oracle)

    def test_capacity_violation_detected(self, line_oracle):
        worker = make_worker(location=0, capacity=1)
        first = make_request(1, origin=1, destination=4, capacity=1)
        second = make_request(2, origin=2, destination=3, capacity=1)
        route = empty_route(worker)
        route.refresh(line_oracle)
        route = route.with_insertion(first, 0, 0, line_oracle)
        route = route.with_insertion(second, 1, 1, line_oracle)
        with pytest.raises(InfeasibleRouteError, match="capacity"):
            route.validate(line_oracle)

    def test_dropoff_before_pickup_detected(self, line_oracle):
        worker = make_worker(location=0)
        request = make_request(1, origin=3, destination=1)
        route = Route(
            worker=worker,
            origin=0,
            start_time=0.0,
            stops=[dropoff_stop(request), pickup_stop(request)],
        )
        with pytest.raises(InfeasibleRouteError, match="before being picked up"):
            route.validate(line_oracle)

    def test_pickup_without_dropoff_detected(self, line_oracle):
        worker = make_worker(location=0)
        request = make_request(1, origin=1, destination=3)
        route = Route(worker=worker, origin=0, start_time=0.0, stops=[pickup_stop(request)])
        with pytest.raises(InfeasibleRouteError, match="never dropped off"):
            route.validate(line_oracle)

    def test_onboard_request_dropoff_only_is_feasible(self, line_oracle):
        # a drop-off whose pickup already happened (request on board at l_0)
        worker = make_worker(location=2)
        request = make_request(1, origin=0, destination=4, deadline=500.0)
        route = Route(worker=worker, origin=2, start_time=10.0, stops=[dropoff_stop(request)])
        assert route.is_feasible(line_oracle)
        assert route.initial_load() == 1
        assert [r.id for r in route.onboard_requests()] == [1]

    def test_feasible_route_validates(self, line_oracle):
        worker = make_worker(location=0)
        request = make_request(1, origin=1, destination=4, deadline=1000.0)
        route = route_with_requests(worker, line_oracle, [request])
        route.validate(line_oracle)  # must not raise


class TestInsertionMechanics:
    def test_with_insertion_same_position(self, line_oracle):
        worker = make_worker(location=0)
        base = route_with_requests(worker, line_oracle, [make_request(1, origin=1, destination=5)])
        new_request = make_request(2, origin=2, destination=3)
        inserted = base.with_insertion(new_request, 1, 1, line_oracle)
        vertices = [stop.vertex for stop in inserted.stops]
        assert vertices == [1, 2, 3, 5]

    def test_with_insertion_split_positions(self, line_oracle):
        worker = make_worker(location=0)
        base = route_with_requests(worker, line_oracle, [make_request(1, origin=1, destination=5)])
        new_request = make_request(2, origin=2, destination=4)
        inserted = base.with_insertion(new_request, 1, 2, line_oracle)
        vertices = [stop.vertex for stop in inserted.stops]
        assert vertices == [1, 2, 5, 4]

    def test_with_insertion_rejects_bad_positions(self, line_oracle):
        worker = make_worker(location=0)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=1, destination=2)
        with pytest.raises(ValueError):
            route.with_insertion(request, 1, 0, line_oracle)
        with pytest.raises(ValueError):
            route.with_insertion(request, 0, 5, line_oracle)

    def test_original_route_not_mutated(self, line_oracle):
        worker = make_worker(location=0)
        base = route_with_requests(worker, line_oracle, [make_request(1, origin=1, destination=5)])
        stops_before = list(base.stops)
        base.with_insertion(make_request(2, origin=2, destination=3), 0, 0, line_oracle)
        assert base.stops == stops_before

    def test_planned_cost_matches_arrival_span(self, line_oracle):
        worker = make_worker(location=0)
        route = route_with_requests(
            worker, line_oracle, [make_request(1, origin=2, destination=5)], start_time=7.0
        )
        assert route.planned_cost(line_oracle) == pytest.approx(route.arr[-1] - 7.0)

    def test_direct_distance_is_cached(self, line_oracle):
        worker = make_worker(location=0)
        route = empty_route(worker)
        request = make_request(1, origin=1, destination=4)
        before = line_oracle.counters.distance_queries
        first = route.direct_distance(request, line_oracle)
        second = route.direct_distance(request, line_oracle)
        assert first == second == pytest.approx(30.0)
        assert line_oracle.counters.distance_queries == before + 1


class TestDirectDistanceMemoKey:
    """``L`` is memoised per ``(request id, origin, destination)``: a reused id
    with other endpoints must not read the first request's ``L``."""

    def test_a_reused_id_with_other_endpoints_is_queried_again(self, line_oracle):
        route = empty_route(make_worker(location=0))
        first = route.direct_distance(make_request(9, origin=0, destination=1), line_oracle)
        second = route.direct_distance(make_request(9, origin=0, destination=2), line_oracle)
        assert (first, second) == (10.0, 20.0)

    @pytest.mark.parametrize("operator", [LinearDPInsertion(), NaiveDPInsertion()],
                             ids=["linear_dp", "naive_dp"])
    def test_a_reused_id_gets_its_own_insertion(self, line_oracle, operator):
        """Line 0-1-...-5 (10 s edges): a worker at 0 carries request 9 from 0
        to 1. A second request 9, from 0 to 2, rides along at a detour of
        10 s at ``(0, 2)``. Keyed by id alone, the memo handed the walk the
        first request's 10 s as ``L``, and it answered ``(1, 1)``, whose
        applied detour is 20 s."""
        route = route_with_requests(make_worker(location=0), line_oracle,
                                    [make_request(9, origin=0, destination=1)])
        request = make_request(9, origin=0, destination=2)
        found = operator.best_insertion(route, request, line_oracle)
        assert (found.delta, found.pickup_index, found.dropoff_index) == (10.0, 0, 2)
        applied = route.with_insertion(request, found.pickup_index, found.dropoff_index,
                                       line_oracle)
        assert applied.planned_cost(line_oracle) - route.planned_cost(line_oracle) == found.delta
