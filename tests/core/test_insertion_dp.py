"""Tests for the DP insertion operators (Algorithms 2-3)."""

import pytest

from repro.core.insertion.basic import BasicInsertion
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.insertion.naive_dp import NaiveDPInsertion
from repro.core.route import empty_route
from tests.conftest import make_request, make_worker, route_with_requests


@pytest.fixture(params=[NaiveDPInsertion, LinearDPInsertion], ids=["naive-dp", "linear-dp"])
def dp_operator(request):
    return request.param()


class TestDPOperators:
    def test_empty_route_append(self, line_oracle, dp_operator):
        worker = make_worker(location=0)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=2, destination=4, deadline=1000.0)
        result = dp_operator.best_insertion(route, request, line_oracle)
        assert result.feasible
        assert result.delta == 40.0

    def test_agrees_with_basic_on_small_route(self, city_oracle, dp_operator):
        worker = make_worker(location=0, capacity=4)
        base = route_with_requests(
            worker,
            city_oracle,
            [
                make_request(1, origin=3, destination=17, deadline=4000.0),
                make_request(2, origin=9, destination=25, deadline=4000.0),
            ],
        )
        request = make_request(3, origin=11, destination=30, deadline=4000.0)
        expected = BasicInsertion().best_insertion(base, request, city_oracle)
        actual = dp_operator.best_insertion(base, request, city_oracle)
        assert actual.feasible == expected.feasible
        assert actual.delta == expected.delta

    def test_respects_capacity(self, line_oracle, dp_operator):
        worker = make_worker(location=0, capacity=1)
        base = route_with_requests(worker, line_oracle, [make_request(1, origin=1, destination=4)])
        request = make_request(2, origin=2, destination=3, deadline=1e6)
        result = dp_operator.best_insertion(base, request, line_oracle)
        if result.feasible:
            new_route = base.with_insertion(
                request, result.pickup_index, result.dropoff_index, line_oracle
            )
            assert new_route.is_feasible(line_oracle)
            assert max(new_route.picked) <= worker.capacity

    def test_infeasible_when_deadline_unreachable(self, line_oracle, dp_operator):
        worker = make_worker(location=0)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=5, destination=0, deadline=10.0)
        result = dp_operator.best_insertion(route, request, line_oracle)
        assert not result.feasible

    def test_returned_positions_produce_feasible_route(self, city_oracle, dp_operator):
        worker = make_worker(location=2, capacity=4)
        base = route_with_requests(
            worker,
            city_oracle,
            [make_request(1, origin=10, destination=33, deadline=5000.0)],
            start_time=50.0,
        )
        request = make_request(2, origin=18, destination=40, release=50.0, deadline=5000.0)
        result = dp_operator.best_insertion(base, request, city_oracle)
        assert result.feasible
        new_route = base.with_insertion(request, result.pickup_index, result.dropoff_index, city_oracle)
        assert new_route.is_feasible(city_oracle)

    def test_oversized_request_rejected_without_queries(self, line_oracle, dp_operator):
        worker = make_worker(location=0, capacity=1)
        route = empty_route(worker)
        route.refresh(line_oracle)
        request = make_request(1, origin=1, destination=2, capacity=2)
        result = dp_operator.best_insertion(route, request, line_oracle)
        assert not result.feasible
        assert result.distance_queries == 0


class TestQueryBudget:
    def test_linear_dp_query_budget_is_linear(self, city_oracle):
        """Lemma 9: the linear DP insertion needs ~2n+1 exact distance queries."""
        worker = make_worker(location=0, capacity=6)
        requests = [
            make_request(i, origin=3 + 2 * i, destination=30 + i, deadline=1e6) for i in range(4)
        ]
        base = route_with_requests(worker, city_oracle, requests)
        n = base.num_stops
        request = make_request(99, origin=12, destination=45, deadline=1e6)
        result = LinearDPInsertion().best_insertion(base, request, city_oracle)
        assert result.feasible
        # 2 * (n + 1) stop-to-endpoint distances plus the single o->d query
        assert result.distance_queries <= 2 * (n + 1) + 1

    def test_linear_dp_uses_fewer_queries_than_basic(self, city_oracle):
        worker = make_worker(location=0, capacity=6)
        requests = [
            make_request(i, origin=3 + 2 * i, destination=30 + i, deadline=1e6) for i in range(4)
        ]
        base = route_with_requests(worker, city_oracle, requests)
        request = make_request(99, origin=12, destination=45, deadline=1e6)
        linear = LinearDPInsertion().best_insertion(base, request, city_oracle)
        basic = BasicInsertion().best_insertion(base.copy(), request, city_oracle)
        assert linear.distance_queries < basic.distance_queries


class TestAggressiveBreak:
    def test_aggressive_break_mode_runs(self, city_oracle):
        operator = LinearDPInsertion(aggressive_break=True)
        worker = make_worker(location=0, capacity=4)
        base = route_with_requests(
            worker, city_oracle, [make_request(1, origin=7, destination=22, deadline=3000.0)]
        )
        request = make_request(2, origin=9, destination=31, deadline=3000.0)
        result = operator.best_insertion(base, request, city_oracle)
        # the aggressive break may only make the result more conservative
        reference = LinearDPInsertion().best_insertion(base, request, city_oracle)
        if result.feasible:
            assert result.delta >= reference.delta
