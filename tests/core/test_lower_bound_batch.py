"""Batched decision-phase lower bounds vs the scalar walk: exact equality.

``euclidean_insertion_lower_bounds`` (the padded-matrix DP over a whole
candidate set) and ``euclidean_idle_lower_bounds`` (the empty-route closed
form) must reproduce the scalar ``euclidean_insertion_lower_bound`` bit for
bit — the decision phase's rejections and the Lemma 8 pruning order depend on
these floats, so approximate agreement is not enough.
"""

from __future__ import annotations

import math

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.insertion.lower_bound import (
    euclidean_idle_lower_bounds,
    euclidean_insertion_lower_bound,
    euclidean_insertion_lower_bounds,
)
from repro.core.route import empty_route
from tests.conftest import make_request, make_worker
from tests.core.test_insertion_equivalence import _ORACLE, insertion_scenarios

_SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestBatchedInsertionLowerBounds:
    @given(st.lists(insertion_scenarios(), min_size=1, max_size=5))
    @_SETTINGS
    def test_batch_equals_scalar_exactly(self, scenarios):
        request = scenarios[0][1]
        routes = [route for route, _ in scenarios]
        direct = _ORACLE.distance(request.origin, request.destination)
        scalar = [
            euclidean_insertion_lower_bound(route, request, _ORACLE, direct)
            for route in routes
        ]
        batch = euclidean_insertion_lower_bounds(routes, request, _ORACLE, direct)
        for scalar_bound, batch_bound in zip(scalar, batch):
            if math.isinf(scalar_bound):
                assert math.isinf(batch_bound)
            else:
                assert scalar_bound == batch_bound  # exact, not approx

    def test_batch_refreshes_like_scalar(self):
        worker = make_worker(location=0, capacity=4)
        route = empty_route(worker, start_time=12.0)  # deliberately stale arrays
        request = make_request(5, origin=9, destination=30, deadline=1e6)
        direct = _ORACLE.distance(request.origin, request.destination)
        batch = euclidean_insertion_lower_bounds([route], request, _ORACLE, direct)
        fresh = empty_route(worker, start_time=12.0)
        fresh.refresh(_ORACLE)
        scalar = euclidean_insertion_lower_bound(fresh, request, _ORACLE, direct)
        assert batch[0] == scalar

    def test_oversized_request_is_infinite(self):
        worker = make_worker(location=0, capacity=1)
        route = empty_route(worker)
        route.refresh(_ORACLE)
        request = make_request(5, origin=3, destination=9, capacity=3)
        bounds = euclidean_insertion_lower_bounds([route], request, _ORACLE, 10.0)
        assert math.isinf(bounds[0])


class TestIdleClosedForm:
    @pytest.mark.parametrize("origin", [0, 7, 23, 41])
    def test_idle_bound_equals_scalar_empty_route(self, origin):
        worker = make_worker(location=origin, capacity=4)
        route = empty_route(worker, start_time=250.0)
        route.refresh(_ORACLE)
        request = make_request(9, origin=12, destination=44, release=250.0, deadline=900.0)
        direct = _ORACLE.distance(request.origin, request.destination)
        scalar = euclidean_insertion_lower_bound(route, request, _ORACLE, direct)
        closed = euclidean_idle_lower_bounds(
            [origin], 250.0, request, _ORACLE, direct, capacities=[worker.capacity]
        )
        if math.isinf(scalar):
            assert math.isinf(closed[0])
        else:
            assert closed[0] == scalar

    def test_idle_capacity_filter(self):
        request = make_request(9, origin=12, destination=44, deadline=1e6, capacity=3)
        direct = _ORACLE.distance(request.origin, request.destination)
        bounds = euclidean_idle_lower_bounds(
            [0, 1], 0.0, request, _ORACLE, direct, capacities=[2, 4]
        )
        assert math.isinf(bounds[0])
        assert math.isfinite(bounds[1])
