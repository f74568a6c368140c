"""Ablation benchmark: insertion operators (Section 4).

The paper's complexity claims are O(n^3) for basic insertion, O(n^2) for the
naive DP insertion and O(n) for the linear DP insertion. This benchmark times
one best-insertion call of each operator on routes of growing length ``n`` so
the scaling (and the crossover in absolute time) is visible in the
pytest-benchmark table.
"""

from __future__ import annotations

import pytest

from repro.core.insertion.basic import BasicInsertion
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.insertion.naive_dp import NaiveDPInsertion
from repro.core.route import empty_route
from repro.core.types import Request, Worker
from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle

_NETWORK = grid_city(rows=14, columns=14, block_metres=220.0, removed_block_fraction=0.02, seed=17)
_ORACLE = DistanceOracle(_NETWORK, backend="apsp")
_VERTICES = sorted(_NETWORK.vertices())

OPERATORS = {
    "basic": BasicInsertion(),
    "naive-dp": NaiveDPInsertion(),
    "linear-dp": LinearDPInsertion(),
}

ROUTE_LENGTHS = [4, 8, 16, 32]


def _build_route_with_stops(num_requests: int):
    """A long feasible route built by appending generously-deadlined requests."""
    worker = Worker(id=0, initial_location=_VERTICES[0], capacity=10_000)
    route = empty_route(worker, start_time=0.0)
    route.refresh(_ORACLE)
    for index in range(num_requests):
        origin = _VERTICES[(7 * index + 3) % len(_VERTICES)]
        destination = _VERTICES[(13 * index + 29) % len(_VERTICES)]
        if destination == origin:
            destination = _VERTICES[(13 * index + 30) % len(_VERTICES)]
        request = Request(
            id=index,
            origin=origin,
            destination=destination,
            release_time=0.0,
            deadline=1e9,
            penalty=1.0,
        )
        route = route.with_insertion(request, route.num_stops, route.num_stops, _ORACLE)
    return route


_NEW_REQUEST = Request(
    id=10_000,
    origin=_VERTICES[len(_VERTICES) // 2],
    destination=_VERTICES[len(_VERTICES) // 3],
    release_time=0.0,
    deadline=1e9,
    penalty=1.0,
)


@pytest.mark.parametrize("num_requests", ROUTE_LENGTHS)
@pytest.mark.parametrize("operator_name", list(OPERATORS))
def test_insertion_operator_scaling(benchmark, operator_name, num_requests):
    """Time one best-insertion call; group rows by route length."""
    operator = OPERATORS[operator_name]
    route = _build_route_with_stops(num_requests)
    benchmark.group = f"insertion n={2 * num_requests}"
    result = benchmark(operator.best_insertion, route, _NEW_REQUEST, _ORACLE)
    assert result.feasible


@pytest.mark.parametrize("operator_name", ["naive-dp", "linear-dp"])
def test_dp_operators_match_basic_reference(benchmark, operator_name):
    """Sanity inside the benchmark: identical Δ* across operators (n = 16 stops)."""
    route = _build_route_with_stops(8)
    reference = OPERATORS["basic"].best_insertion(route, _NEW_REQUEST, _ORACLE)
    operator = OPERATORS[operator_name]
    benchmark.group = "insertion equivalence"
    result = benchmark(operator.best_insertion, route, _NEW_REQUEST, _ORACLE)
    assert result.delta == pytest.approx(reference.delta, abs=1e-6)
