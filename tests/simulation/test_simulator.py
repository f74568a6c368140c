"""Tests for the dynamic simulation, driven through the service facade."""

import pytest

from repro.core.instance import URPSMInstance
from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.dispatch import Batch, DispatcherConfig, GreedyDP, PruneGreedyDP
from repro.exceptions import ConfigurationError
from repro.service import MatchingService
from tests.conftest import make_request, make_worker


def _instance(network, oracle, requests, workers=None, alpha=1.0):
    objective = ObjectiveConfig(alpha=alpha, penalty_policy=PenaltyPolicy.FIXED, penalty_value=100.0)
    return URPSMInstance(
        network=network,
        oracle=oracle,
        workers=workers or [make_worker(0, 0, capacity=4)],
        requests=requests,
        objective=objective,
        name="sim-test",
    )


def _replay(instance, dispatcher):
    return MatchingService(instance, dispatcher).replay()


class TestSimulator:
    def test_every_request_gets_an_outcome(self, small_instance):
        result = _replay(small_instance, GreedyDP(DispatcherConfig(grid_cell_metres=500.0)))
        assert result.total_requests == len(small_instance.requests)
        assert result.served_requests + result.rejected_requests == result.total_requests

    def test_unified_cost_accounts_for_rejections(self, line_network, line_oracle):
        # single worker, two simultaneous far-apart requests with tight deadlines:
        # at most one can be served
        requests = [
            make_request(0, 1, 2, release=0.0, deadline=40.0, penalty=100.0),
            make_request(1, 5, 4, release=0.0, deadline=40.0, penalty=100.0),
        ]
        instance = _instance(line_network, line_oracle, requests)
        result = _replay(instance, GreedyDP(DispatcherConfig(grid_cell_metres=200.0)))
        assert result.rejected_requests >= 1
        assert result.unified_cost == pytest.approx(
            result.total_travel_cost * 1.0 + result.total_penalty
        )

    def test_served_requests_meet_deadlines(self, small_instance):
        result = _replay(small_instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0)))
        assert result.deadline_violations == 0

    def test_travel_cost_zero_when_nothing_served(self, line_network, line_oracle):
        requests = [make_request(0, 5, 0, release=0.0, deadline=1.0, penalty=100.0)]
        instance = _instance(line_network, line_oracle, requests)
        result = _replay(instance, GreedyDP(DispatcherConfig(grid_cell_metres=200.0)))
        assert result.served_requests == 0
        assert result.total_travel_cost == pytest.approx(0.0)
        assert result.unified_cost == pytest.approx(100.0)

    def test_invalid_instance_rejected(self, line_network, line_oracle):
        instance = _instance(line_network, line_oracle, [make_request(0, 0, 999)])
        with pytest.raises(ConfigurationError):
            MatchingService(instance, GreedyDP())

    def test_oracle_counters_reset_per_run(self, small_instance):
        first = _replay(small_instance, GreedyDP(DispatcherConfig(grid_cell_metres=500.0)))
        second = _replay(small_instance, GreedyDP(DispatcherConfig(grid_cell_metres=500.0)))
        # counters are per-run, not cumulative across runs
        assert abs(first.distance_queries - second.distance_queries) < max(
            first.distance_queries, 1
        )

    def test_batch_dispatcher_resolves_all_requests(self, small_instance):
        result = _replay(
            small_instance, Batch(DispatcherConfig(grid_cell_metres=500.0, batch_interval=6.0))
        )
        assert result.total_requests == len(small_instance.requests)

    def test_response_time_positive(self, small_instance):
        result = _replay(small_instance, GreedyDP(DispatcherConfig(grid_cell_metres=500.0)))
        assert result.response_time_seconds > 0.0

    def test_workers_finish_pending_routes(self, line_network, line_oracle):
        requests = [make_request(0, 1, 5, release=0.0, deadline=10_000.0, penalty=100.0)]
        instance = _instance(line_network, line_oracle, requests)
        service = MatchingService(instance, GreedyDP(DispatcherConfig(grid_cell_metres=200.0)))
        result = service.replay()
        assert result.served_requests == 1
        # worker travelled 0->1 (pickup) -> 5 (dropoff): 50 seconds
        assert result.total_travel_cost == pytest.approx(50.0)
        assert all(state.is_idle for state in service.fleet)
