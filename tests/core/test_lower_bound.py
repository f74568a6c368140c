"""Property tests for the Euclidean lower bound of the decision phase (Lemma 7).

The bound must never exceed the true minimal increased cost of a feasible
insertion — otherwise the decision phase (Algorithm 4) could wrongly reject a
profitable request and the pre-ordered pruning (Lemma 8) could skip the best
worker.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.insertion.basic import BasicInsertion
from repro.core.insertion.lower_bound import euclidean_insertion_lower_bound
from repro.core.route import empty_route
from tests.conftest import make_request, make_worker, route_with_requests
from tests.core.test_insertion_equivalence import _ORACLE, insertion_scenarios

_BASIC = BasicInsertion()

_SETTINGS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestLowerBoundProperty:
    @given(insertion_scenarios())
    @_SETTINGS
    def test_lower_bound_never_exceeds_true_delta(self, scenario):
        route, request = scenario
        direct = _ORACLE.distance(request.origin, request.destination)
        bound = euclidean_insertion_lower_bound(route, request, _ORACLE, direct)
        exact = _BASIC.best_insertion(route, request, _ORACLE)
        if exact.feasible:
            assert bound <= exact.delta

    @given(insertion_scenarios())
    @_SETTINGS
    def test_lower_bound_is_non_negative(self, scenario):
        route, request = scenario
        direct = _ORACLE.distance(request.origin, request.destination)
        bound = euclidean_insertion_lower_bound(route, request, _ORACLE, direct)
        assert bound >= 0.0


class TestLowerBoundUnits:
    def test_empty_route_bound_uses_straight_line(self, city_oracle, city_network):
        worker = make_worker(location=0)
        route = empty_route(worker)
        route.refresh(city_oracle)
        request = make_request(1, origin=20, destination=40, deadline=1e6)
        direct = city_oracle.distance(20, 40)
        bound = euclidean_insertion_lower_bound(route, request, city_oracle, direct)
        expected = city_network.euclidean(0, 20) / city_network.max_speed + direct
        assert bound == pytest.approx(expected, rel=1e-9)

    def test_oversized_request_yields_infinite_bound(self, city_oracle):
        worker = make_worker(location=0, capacity=1)
        route = empty_route(worker)
        route.refresh(city_oracle)
        request = make_request(1, origin=3, destination=9, capacity=4)
        bound = euclidean_insertion_lower_bound(route, request, city_oracle, 10.0)
        assert bound == math.inf

    def test_uses_no_exact_distance_queries(self, city_oracle):
        worker = make_worker(location=0, capacity=4)
        base = route_with_requests(
            worker, city_oracle, [make_request(1, origin=5, destination=30, deadline=1e6)]
        )
        request = make_request(2, origin=9, destination=44, deadline=1e6)
        direct = city_oracle.distance(request.origin, request.destination)
        before = city_oracle.counters.distance_queries
        euclidean_insertion_lower_bound(base, request, city_oracle, direct)
        assert city_oracle.counters.distance_queries == before
