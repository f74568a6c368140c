"""Property-based equivalence of the three insertion operators.

The central correctness claim of Section 4 is that the naive DP and linear DP
insertions return exactly the same minimal increased distance as the
exhaustive basic insertion, only faster. These tests generate random feasible
routes and random new requests on a real grid network and assert:

* identical feasibility verdicts;
* identical minimal increased cost Δ*;
* the returned positions always produce a feasible route whose actual cost
  increase equals the reported Δ*.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.insertion.basic import BasicInsertion
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.insertion.naive_dp import NaiveDPInsertion
from repro.core.route import Route, empty_route
from repro.core.types import Request, Worker
from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle

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

    @given(insertion_scenarios())
    @_SETTINGS
    def test_linear_dp_matches_basic(self, scenario):
        route, request = scenario
        expected = _BASIC.best_insertion(route, request, _ORACLE)
        actual = _LINEAR.best_insertion(route, request, _ORACLE)
        assert actual.feasible == expected.feasible
        if expected.feasible:
            assert actual.delta == expected.delta

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
