"""A miniature instance in the spirit of Example 1 of the paper.

The paper illustrates URPSM on an eight-vertex road network with two workers
and three dynamically released requests (Fig. 1 / Table 1). The published
excerpt does not include the full figure, and the distances quoted across
Examples 1-3 are not mutually consistent with a shortest-path metric, so this
module builds a *self-consistent* instance with the same shape: eight
vertices, two workers of capacity four, three unit-capacity requests released
at times 0, 5 and 11 with short deadlines and modest penalties. The tests
use it to exercise the end-to-end flow on a hand-checkable instance.
"""

from __future__ import annotations

from repro.core.instance import URPSMInstance
from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.core.types import Request, Worker
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.utils.geometry import Point

# Vertex grid (coordinates in metres); edges are horizontal/vertical segments
# travelled at 1 m/s so costs equal Euclidean lengths and are easy to verify
# by hand.
_COORDINATES = {
    1: Point(0.0, 10.0),
    2: Point(10.0, 10.0),
    3: Point(20.0, 10.0),
    4: Point(10.0, 0.0),
    5: Point(20.0, 0.0),
    6: Point(0.0, 0.0),
    7: Point(0.0, 20.0),
    8: Point(10.0, 20.0),
}

_EDGES = [
    (1, 2),
    (2, 3),
    (1, 6),
    (2, 4),
    (3, 5),
    (4, 5),
    (6, 4),
    (7, 1),
    (7, 8),
    (8, 2),
]


def example_network() -> RoadNetwork:
    """The eight-vertex road network used by the worked example."""
    network = RoadNetwork(name="paper-example")
    for vertex, point in _COORDINATES.items():
        network.add_vertex(vertex, point)
    for u, v in _EDGES:
        network.add_edge(u, v, speed=1.0, road_class="street")
    return network


def example_instance(alpha: float = 1.0) -> URPSMInstance:
    """Two workers, three requests, alpha = 1 — Example 1 reshaped to be consistent."""
    network = example_network()
    oracle = DistanceOracle(network, backend="apsp")
    workers = [
        Worker(id=1, initial_location=7, capacity=4),
        Worker(id=2, initial_location=3, capacity=4),
    ]
    # Penalties keep the 20 : 10 : 9 proportions of Table 1 but are scaled so
    # that serving each request is clearly cheaper than rejecting it (the edge
    # costs here are tens of seconds, not unit lengths).
    requests = [
        Request(id=1, origin=2, destination=4, release_time=0.0, deadline=40.0, penalty=200.0),
        Request(id=2, origin=3, destination=5, release_time=5.0, deadline=45.0, penalty=100.0),
        Request(id=3, origin=8, destination=5, release_time=11.0, deadline=60.0, penalty=90.0),
    ]
    objective = ObjectiveConfig(
        alpha=alpha, penalty_policy=PenaltyPolicy.FIXED, penalty_value=10.0
    )
    return URPSMInstance(
        network=network,
        oracle=oracle,
        workers=workers,
        requests=requests,
        objective=objective,
        name="paper-example",
    )
