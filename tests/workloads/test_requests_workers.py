"""Tests for the synthetic request-stream and fleet generators."""

import pytest

from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle
from repro.workloads.requests import (
    RequestGeneratorConfig,
    generate_requests,
    poisson_request_stream,
)
from repro.workloads.workers import WorkerGeneratorConfig, generate_workers


@pytest.fixture(scope="module")
def network():
    return grid_city(rows=8, columns=8, block_metres=200.0, removed_block_fraction=0.0, seed=4)


@pytest.fixture(scope="module")
def oracle(network):
    return DistanceOracle(network, backend="apsp")


@pytest.fixture(scope="module")
def objective():
    return ObjectiveConfig(alpha=1.0, penalty_policy=PenaltyPolicy.PROPORTIONAL, penalty_value=10.0)


class TestRequestGenerator:
    def test_count_and_ordering(self, network, oracle, objective):
        config = RequestGeneratorConfig(count=60, seed=1)
        requests = generate_requests(network, oracle, objective, config)
        assert len(requests) == 60
        releases = [request.release_time for request in requests]
        assert releases == sorted(releases)
        assert len({request.id for request in requests}) == 60

    def test_deadline_offset(self, network, oracle, objective):
        config = RequestGeneratorConfig(count=20, deadline_seconds=300.0, seed=2)
        requests = generate_requests(network, oracle, objective, config)
        for request in requests:
            assert request.deadline == pytest.approx(request.release_time + 300.0)

    def test_penalty_is_proportional_to_direct_distance(self, network, oracle, objective):
        config = RequestGeneratorConfig(count=20, seed=3)
        requests = generate_requests(network, oracle, objective, config)
        for request in requests:
            direct = oracle.distance(request.origin, request.destination)
            assert request.penalty == pytest.approx(10.0 * direct, rel=1e-9)

    def test_vertices_exist_and_trips_nontrivial(self, network, oracle, objective):
        config = RequestGeneratorConfig(count=30, min_direct_seconds=30.0, seed=4)
        requests = generate_requests(network, oracle, objective, config)
        vertices = set(network.vertices())
        for request in requests:
            assert request.origin in vertices and request.destination in vertices
            assert request.origin != request.destination

    def test_deterministic_given_seed(self, network, oracle, objective):
        config = RequestGeneratorConfig(count=25, seed=5)
        first = generate_requests(network, oracle, objective, config)
        second = generate_requests(network, oracle, objective, config)
        assert [(r.origin, r.destination, r.release_time) for r in first] == [
            (r.origin, r.destination, r.release_time) for r in second
        ]

    def test_poisson_stream_respects_horizon(self, network, oracle, objective):
        requests = poisson_request_stream(
            network, oracle, objective, rate_per_second=0.05, horizon_seconds=1000.0,
            deadline_seconds=600.0, seed=6,
        )
        assert requests, "expected a non-empty stream"
        assert all(request.release_time <= 1000.0 for request in requests)
        releases = [request.release_time for request in requests]
        assert releases == sorted(releases)


class TestWorkerGenerator:
    def test_count_and_unique_ids(self, network):
        workers = generate_workers(network, WorkerGeneratorConfig(count=40, seed=1))
        assert len(workers) == 40
        assert len({worker.id for worker in workers}) == 40

    def test_locations_are_valid_vertices(self, network):
        workers = generate_workers(network, WorkerGeneratorConfig(count=40, seed=2))
        vertices = set(network.vertices())
        assert all(worker.initial_location in vertices for worker in workers)

    def test_capacities_positive(self, network):
        workers = generate_workers(network, WorkerGeneratorConfig(count=40, nominal_capacity=3, seed=3))
        assert all(worker.capacity >= 1 for worker in workers)

    def test_deterministic_given_seed(self, network):
        first = generate_workers(network, WorkerGeneratorConfig(count=20, seed=4))
        second = generate_workers(network, WorkerGeneratorConfig(count=20, seed=4))
        assert [(w.initial_location, w.capacity) for w in first] == [
            (w.initial_location, w.capacity) for w in second
        ]
