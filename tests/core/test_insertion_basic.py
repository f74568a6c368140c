"""Tests for the exhaustive basic insertion (Algorithm 1)."""

import math

import pytest

from repro.core.insertion.basic import BasicInsertion
from repro.core.route import empty_route
from tests.conftest import make_request, make_worker, route_with_requests


@pytest.fixture()
def operator():
    return BasicInsertion()


class TestEmptyRoute:
    def test_insert_into_empty_route(self, line_oracle, operator):
        worker = make_worker(location=0)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=2, destination=4, deadline=1000.0)
        result = operator.best_insertion(route, request, line_oracle)
        assert result.feasible
        # go to vertex 2 (20s) then to vertex 4 (20s)
        assert result.delta == pytest.approx(40.0)
        assert (result.pickup_index, result.dropoff_index) == (0, 0)

    def test_insert_applies_route(self, line_oracle, operator):
        worker = make_worker(location=0)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=2, destination=4, deadline=1000.0)
        new_route, result = operator.insert(route, request, line_oracle)
        assert result.feasible
        assert [stop.vertex for stop in new_route.stops] == [2, 4]
        assert new_route.is_feasible(line_oracle)

    def test_unreachable_deadline_is_infeasible(self, line_oracle, operator):
        worker = make_worker(location=0)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=5, destination=0, deadline=20.0)  # needs 100s
        result = operator.best_insertion(route, request, line_oracle)
        assert not result.feasible
        assert result.delta == math.inf
        assert result.pickup_index == -1

    def test_request_larger_than_capacity_is_infeasible(self, line_oracle, operator):
        worker = make_worker(location=0, capacity=2)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=1, destination=2, capacity=3)
        result = operator.best_insertion(route, request, line_oracle)
        assert not result.feasible


class TestExistingRoute:
    def test_on_the_way_request_is_cheap(self, line_oracle, operator):
        # worker already plans 0 -> 5; a request 1 -> 3 lies on the way: delta 0
        worker = make_worker(location=0, capacity=4)
        base = route_with_requests(worker, line_oracle, [make_request(1, origin=1, destination=5)])
        request = make_request(2, origin=2, destination=3, deadline=5000.0)
        result = operator.best_insertion(base, request, line_oracle)
        assert result.feasible
        assert result.delta == 0.0

    def test_detour_request_costs_extra(self, city_oracle, city_network, operator):
        worker = make_worker(location=0, capacity=4)
        vertices = sorted(city_network.vertices())
        far = vertices[-1]
        base = route_with_requests(worker, city_oracle, [make_request(1, origin=vertices[1], destination=vertices[2])])
        request = make_request(2, origin=far, destination=vertices[3], deadline=1e6)
        result = operator.best_insertion(base, request, city_oracle)
        assert result.feasible
        assert result.delta > 0

    def test_capacity_forces_sequential_service(self, line_oracle, operator):
        # capacity-1 worker: second passenger can only be carried after the first is dropped
        worker = make_worker(location=0, capacity=1)
        base = route_with_requests(worker, line_oracle, [make_request(1, origin=1, destination=2)])
        request = make_request(2, origin=1, destination=3, deadline=1e6)
        result = operator.best_insertion(base, request, line_oracle)
        assert result.feasible
        new_route = base.with_insertion(request, result.pickup_index, result.dropoff_index, line_oracle)
        assert max(new_route.picked) <= 1

    def test_preserves_existing_deadlines(self, line_oracle, operator):
        # existing request has a deadline so tight that no detour is tolerable
        worker = make_worker(location=0, capacity=4)
        tight = make_request(1, origin=1, destination=2, deadline=20.0)
        base = route_with_requests(worker, line_oracle, [tight])
        request = make_request(2, origin=5, destination=4, deadline=1e6)
        result = operator.best_insertion(base, request, line_oracle)
        if result.feasible:
            new_route = base.with_insertion(
                request, result.pickup_index, result.dropoff_index, line_oracle
            )
            assert new_route.is_feasible(line_oracle)
            # the tight request must still be delivered in time
            assert new_route.arr[[s.vertex for s in new_route.stops].index(2) + 1] <= 20.0

    def test_delta_matches_cost_difference(self, city_oracle, operator):
        worker = make_worker(location=0, capacity=4)
        base = route_with_requests(
            worker, city_oracle, [make_request(1, origin=5, destination=20), make_request(2, origin=9, destination=30)]
        )
        request = make_request(3, origin=12, destination=40, deadline=1e6)
        result = operator.best_insertion(base, request, city_oracle)
        assert result.feasible
        new_route = base.with_insertion(request, result.pickup_index, result.dropoff_index, city_oracle)
        expected = new_route.planned_cost(city_oracle) - base.planned_cost(city_oracle)
        assert result.delta == expected
