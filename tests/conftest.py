"""Shared fixtures for the test suite.

The fixtures centre on a small, fully deterministic grid city with a dense
all-pairs distance oracle, which keeps every test fast while exercising real
shortest-path distances (triangle inequality, detours, asymmetric layouts).
"""

from __future__ import annotations

import pytest

from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.core.route import Route, empty_route
from repro.core.types import Request, Worker
from repro.network.generators import grid_city
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.utils.geometry import Point


def build_line_network(num_vertices: int = 6, spacing: float = 100.0, speed: float = 10.0) -> RoadNetwork:
    """A path graph 0 - 1 - ... - (n-1) with uniform edge costs (spacing/speed)."""
    network = RoadNetwork(name="line")
    for index in range(num_vertices):
        network.add_vertex(index, Point(index * spacing, 0.0))
    for index in range(num_vertices - 1):
        network.add_edge(index, index + 1, speed=speed, road_class="line")
    return network


@pytest.fixture(scope="session")
def line_network() -> RoadNetwork:
    """Path graph with 6 vertices and 10-second edges."""
    return build_line_network()


@pytest.fixture(scope="session")
def line_oracle(line_network: RoadNetwork) -> DistanceOracle:
    """APSP-backed oracle over :func:`line_network`."""
    return DistanceOracle(line_network, backend="apsp")


@pytest.fixture(scope="session")
def city_network() -> RoadNetwork:
    """A small 8x8 grid city used by the heavier tests."""
    return grid_city(rows=8, columns=8, block_metres=200.0, removed_block_fraction=0.05, seed=3)


@pytest.fixture(scope="session")
def city_oracle(city_network: RoadNetwork) -> DistanceOracle:
    """APSP-backed oracle over :func:`city_network`."""
    return DistanceOracle(city_network, backend="apsp")


@pytest.fixture()
def default_objective() -> ObjectiveConfig:
    """alpha = 1, p_r = 10 x dis(o_r, d_r) — the paper's Table 5 default."""
    return ObjectiveConfig(alpha=1.0, penalty_policy=PenaltyPolicy.PROPORTIONAL, penalty_value=10.0)


def make_worker(worker_id: int = 0, location: int = 0, capacity: int = 4) -> Worker:
    """Shorthand worker constructor used across test modules."""
    return Worker(id=worker_id, initial_location=location, capacity=capacity)


def make_request(
    request_id: int,
    origin: int,
    destination: int,
    release: float = 0.0,
    deadline: float = 10_000.0,
    penalty: float = 100.0,
    capacity: int = 1,
) -> Request:
    """Shorthand request constructor with a generous default deadline."""
    return Request(
        id=request_id,
        origin=origin,
        destination=destination,
        release_time=release,
        deadline=deadline,
        penalty=penalty,
        capacity=capacity,
    )


def route_with_requests(
    worker: Worker,
    oracle: DistanceOracle,
    requests: list[Request],
    start_time: float = 0.0,
) -> Route:
    """Build a feasible route by appending each request's pickup and drop-off in order."""
    route = empty_route(worker, start_time=start_time)
    route.refresh(oracle)
    for request in requests:
        route = route.with_insertion(request, route.num_stops, route.num_stops, oracle)
    return route


@pytest.fixture()
def simple_worker() -> Worker:
    """A capacity-4 worker starting at vertex 0."""
    return make_worker()


@pytest.fixture()
def small_instance(city_network, city_oracle):
    """Four workers, six requests with generous deadlines on the 8x8 grid city."""
    from repro.core.instance import URPSMInstance

    vertices = sorted(city_network.vertices())
    workers = [
        make_worker(0, vertices[0], capacity=4),
        make_worker(1, vertices[15], capacity=4),
        make_worker(2, vertices[35], capacity=2),
        make_worker(3, vertices[-1], capacity=4),
    ]
    requests = [
        make_request(0, vertices[3], vertices[20], release=0.0, deadline=2000.0, penalty=5000.0),
        make_request(1, vertices[8], vertices[30], release=10.0, deadline=2000.0, penalty=5000.0),
        make_request(2, vertices[22], vertices[44], release=20.0, deadline=2200.0, penalty=5000.0),
        make_request(3, vertices[5], vertices[50], release=30.0, deadline=2500.0, penalty=5000.0),
        make_request(4, vertices[40], vertices[10], release=40.0, deadline=2600.0, penalty=5000.0),
        make_request(5, vertices[12], vertices[55], release=50.0, deadline=2700.0, penalty=5000.0),
    ]
    objective = ObjectiveConfig(
        alpha=1.0, penalty_policy=PenaltyPolicy.FIXED, penalty_value=5000.0
    )
    instance = URPSMInstance(
        network=city_network,
        oracle=city_oracle,
        workers=workers,
        requests=requests,
        objective=objective,
        name="dispatch-fixture",
    )
    instance.validate()
    return instance


@pytest.fixture()
def fleet(small_instance):
    """Fresh fleet state for :func:`small_instance`."""
    from repro.simulation.fleet import FleetState

    return FleetState(small_instance.workers, small_instance.oracle)
