"""End-to-end checks on the hand-checkable instance inspired by Example 1."""

import pytest

from tests.core.examples_paper import example_instance, example_network
from repro.core.insertion.basic import BasicInsertion
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.route import empty_route
from repro.dispatch import DispatcherConfig, PruneGreedyDP
from repro.network.oracle import DistanceOracle
from repro.service import MatchingService


class TestExampleNetwork:
    def test_network_shape(self):
        network = example_network()
        assert network.num_vertices == 8
        assert network.num_edges == 10

    def test_distances_are_hand_checkable(self):
        network = example_network()
        oracle = DistanceOracle(network, backend="apsp")
        # v7 -> v1 is one 10 m vertical edge at 1 m/s
        assert oracle.distance(7, 1) == pytest.approx(10.0)
        # v2 -> v4 is one vertical edge
        assert oracle.distance(2, 4) == pytest.approx(10.0)
        # v3 -> v5: one vertical edge
        assert oracle.distance(3, 5) == pytest.approx(10.0)


class TestExampleInstance:
    def test_instance_validates(self):
        instance = example_instance()
        instance.validate()
        assert instance.num_workers == 2
        assert instance.num_requests == 3

    def test_first_request_served_by_insertion(self):
        instance = example_instance()
        oracle = instance.oracle
        worker = instance.workers[0]
        request = instance.requests[0]
        route = empty_route(worker, start_time=request.release_time)
        route.refresh(oracle)
        result = LinearDPInsertion().best_insertion(route, request, oracle)
        reference = BasicInsertion().best_insertion(route, request, oracle)
        assert result.feasible
        assert result.delta == pytest.approx(reference.delta)

    def test_full_simulation_serves_all_requests(self):
        instance = example_instance()
        result = MatchingService(instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=20.0))).replay()
        assert result.served_rate == pytest.approx(1.0)
        assert result.deadline_violations == 0
        # unified cost equals the travelled time (no penalties incurred)
        assert result.unified_cost == pytest.approx(result.total_travel_cost)
