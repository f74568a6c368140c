"""Property-based equivalence of the three insertion operators.

The central correctness claim of Section 4 is that the naive DP and linear DP
insertions return exactly the same minimal increased distance as the
exhaustive basic insertion, only faster. These tests generate random feasible
routes and random new requests on a real grid network and assert:

* identical feasibility verdicts;
* identical minimal increased cost Δ*;
* identical positions ``(i, j)``: every operator takes the smallest
  ``(Δ, j, i ≠ j, i)``, the order of the linear DP's scan;
* the returned positions always produce a feasible route whose actual cost
  increase equals the reported Δ*.

Hand-built ties on a line and a small lattice pin which position that rule
picks when two positions cost the same.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.insertion.basic import BasicInsertion
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.insertion.naive_dp import NaiveDPInsertion
from repro.core.route import Route, empty_route
from repro.core.types import Request, Worker
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.utils.geometry import Point
from tests.conftest import make_request, make_worker, route_with_requests

# Module-level network/oracle shared by all examples (hypothesis-friendly: no
# function-scoped fixtures).
_NETWORK = grid_city(rows=7, columns=7, block_metres=200.0, removed_block_fraction=0.04, seed=5)
_ORACLE = DistanceOracle(_NETWORK, backend="apsp")
_VERTICES = sorted(_NETWORK.vertices())

_BASIC = BasicInsertion()
_NAIVE = NaiveDPInsertion()
_LINEAR = LinearDPInsertion()


def _vertex(index: int) -> int:
    return _VERTICES[index % len(_VERTICES)]


@st.composite
def insertion_scenarios(draw) -> tuple[Route, Request]:
    """A feasible route (built by repeated best insertions) plus a new request."""
    capacity = draw(st.integers(min_value=1, max_value=5))
    worker = Worker(id=0, initial_location=_vertex(draw(st.integers(0, 200))), capacity=capacity)
    start_time = float(draw(st.integers(min_value=0, max_value=300)))
    route = empty_route(worker, start_time=start_time)
    route.refresh(_ORACLE)

    num_existing = draw(st.integers(min_value=0, max_value=4))
    for request_id in range(num_existing):
        request = _draw_request(draw, request_id, start_time)
        result = _BASIC.best_insertion(route, request, _ORACLE)
        if result.feasible:
            route = route.with_insertion(
                request, result.pickup_index, result.dropoff_index, _ORACLE
            )
    new_request = _draw_request(draw, 1000, start_time)
    return route, new_request


def _draw_request(draw, request_id: int, now: float) -> Request:
    origin = _vertex(draw(st.integers(0, 200)))
    destination = _vertex(draw(st.integers(0, 200)))
    if destination == origin:
        destination = _vertex(_VERTICES.index(origin) + 1)
    window = float(draw(st.integers(min_value=30, max_value=2500)))
    capacity = draw(st.integers(min_value=1, max_value=3))
    return Request(
        id=request_id,
        origin=origin,
        destination=destination,
        release_time=now,
        deadline=now + window,
        penalty=10.0,
        capacity=capacity,
    )


def _position(result) -> tuple[int, int]:
    return result.pickup_index, result.dropoff_index


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestOperatorEquivalence:
    @given(insertion_scenarios())
    @_SETTINGS
    def test_naive_dp_matches_basic(self, scenario):
        route, request = scenario
        expected = _BASIC.best_insertion(route, request, _ORACLE)
        actual = _NAIVE.best_insertion(route, request, _ORACLE)
        assert actual.feasible == expected.feasible
        if expected.feasible:
            assert actual.delta == expected.delta
            assert _position(actual) == _position(expected)

    @given(insertion_scenarios())
    @_SETTINGS
    def test_linear_dp_matches_basic(self, scenario):
        route, request = scenario
        expected = _BASIC.best_insertion(route, request, _ORACLE)
        actual = _LINEAR.best_insertion(route, request, _ORACLE)
        assert actual.feasible == expected.feasible
        if expected.feasible:
            assert actual.delta == expected.delta
            assert _position(actual) == _position(expected)

    @given(insertion_scenarios())
    @_SETTINGS
    def test_reported_delta_matches_applied_route(self, scenario):
        route, request = scenario
        for operator in (_NAIVE, _LINEAR):
            result = operator.best_insertion(route, request, _ORACLE)
            if not result.feasible:
                continue
            new_route = route.with_insertion(
                request, result.pickup_index, result.dropoff_index, _ORACLE
            )
            assert new_route.is_feasible(_ORACLE)
            actual_delta = new_route.planned_cost(_ORACLE) - route.planned_cost(_ORACLE)
            assert actual_delta == result.delta

    @given(insertion_scenarios())
    @_SETTINGS
    def test_delta_is_non_negative(self, scenario):
        route, request = scenario
        result = _LINEAR.best_insertion(route, request, _ORACLE)
        if result.feasible:
            assert result.delta >= 0.0


def _lattice_network() -> RoadNetwork:
    """A 3 x 3 lattice of 10-second streets, vertex ``3 * row + column``::

        6 - 7 - 8
        |   |   |
        3 - 4 - 5
        |   |   |
        0 - 1 - 2
    """
    network = RoadNetwork(name="lattice")
    for row in range(3):
        for column in range(3):
            network.add_vertex(3 * row + column, Point(100.0 * column, 100.0 * row))
    for row in range(3):
        for column in range(3):
            vertex = 3 * row + column
            if column < 2:
                network.add_edge(vertex, vertex + 1, speed=10.0)
            if row < 2:
                network.add_edge(vertex, vertex + 3, speed=10.0)
    return network


def _applied_delta(route: Route, request: Request, i: int, j: int, oracle) -> float:
    candidate = route.with_insertion(request, i, j, oracle)
    assert candidate.is_feasible(oracle, refresh=False)
    return candidate.planned_cost(oracle) - route.planned_cost(oracle)


@pytest.mark.parametrize(
    "operator", [_BASIC, _NAIVE, _LINEAR], ids=["basic", "naive_dp", "linear_dp"]
)
class TestEqualDetours:
    """Hand-built ties: every operator takes the smallest ``(Δ, j, i ≠ j, i)``."""

    def test_pickup_and_dropoff_together_before_a_split(self, operator, line_oracle):
        # route 0 -> 1; a second 0 -> 1 rides along at no cost, its pickup
        # before or after the first one's: (0, 1) and (1, 1) tie at Δ = 0
        route = route_with_requests(
            make_worker(location=0, capacity=2), line_oracle, [make_request(1, 0, 1)]
        )
        request = make_request(2, 0, 1)
        assert _applied_delta(route, request, 0, 1, line_oracle) == 0.0
        result = operator.best_insertion(route, request, line_oracle)
        assert (result.delta, _position(result)) == (0.0, (1, 1))

    def test_first_pickup_among_equal_splits(self, operator, line_oracle):
        # route 0 -> 1; a 0 -> 2 picked up before or after the first pickup
        # and dropped at the end: (0, 2) and (1, 2) tie at Δ = 10 s
        route = route_with_requests(
            make_worker(location=0, capacity=2), line_oracle, [make_request(1, 0, 1)]
        )
        request = make_request(2, 0, 2)
        assert _applied_delta(route, request, 1, 2, line_oracle) == 10.0
        result = operator.best_insertion(route, request, line_oracle)
        assert (result.delta, _position(result)) == (10.0, (0, 2))

    def test_earlier_dropoff_before_earlier_pickup(self, operator):
        # worker at 1, route 0 -> 6; a 2 -> 8 served inside the route's first
        # leg, (1, 1), ties with picking it up first and dropping it last,
        # (0, 2), at Δ = 40 s: the smaller j wins over the smaller i
        oracle = DistanceOracle(_lattice_network(), backend="apsp")
        route = route_with_requests(
            make_worker(location=1, capacity=2), oracle, [make_request(1, 0, 6)]
        )
        request = make_request(2, 2, 8)
        assert _applied_delta(route, request, 0, 2, oracle) == 40.0
        result = operator.best_insertion(route, request, oracle)
        assert (result.delta, _position(result)) == (40.0, (1, 1))
