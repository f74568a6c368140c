"""Tests for the baseline dispatchers: tshare, kinetic, batch and nearest."""

import pytest

from repro.core.insertion.basic import BasicInsertion
from repro.dispatch import Batch, DispatcherConfig, Kinetic, NearestWorker, TShare
from repro.index.tshare_grid import TShareGridIndex
from repro.service import MatchingService
from repro.simulation.fleet import FleetState
from tests.conftest import make_request


class TestTShare:
    def test_builds_tshare_grid(self, small_instance, fleet):
        dispatcher = TShare(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        assert isinstance(dispatcher.grid, TShareGridIndex)

    def test_serves_nearby_request(self, small_instance, fleet):
        dispatcher = TShare(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        outcome = dispatcher.dispatch(request, now=request.release_time)
        assert outcome.served
        assert fleet.state_of(outcome.worker_id).route.is_feasible(small_instance.oracle)

    def test_rejects_request_with_expired_pickup_window(self, small_instance, fleet):
        dispatcher = TShare(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = make_request(99, 0, 63, release=0.0, deadline=400.0, penalty=10.0)
        # dispatch long after release: the pickup budget is gone
        outcome = dispatcher.dispatch(request, now=390.0)
        assert not outcome.served

    def test_search_is_single_sided(self, small_instance, fleet):
        """tshare may consider fewer candidates than the admissible grid filter."""
        dispatcher = TShare(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        outcome = dispatcher.dispatch(request, now=request.release_time)
        assert outcome.candidates_considered <= len(small_instance.workers)

    def test_full_simulation_runs(self, small_instance):
        dispatcher = TShare(DispatcherConfig(grid_cell_metres=500.0))
        result = MatchingService(small_instance, dispatcher).replay()
        assert result.total_requests == len(small_instance.requests)
        assert result.deadline_violations == 0


class TestKinetic:
    def test_serves_and_reorders(self, small_instance, fleet):
        dispatcher = Kinetic(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        for request in small_instance.requests[:3]:
            fleet.advance_all(request.release_time)
            outcome = dispatcher.dispatch(request, now=request.release_time)
            assert outcome.served
        for state in fleet:
            assert state.route.is_feasible(small_instance.oracle)

    def test_matches_basic_insertion_on_first_request(self, small_instance, fleet):
        """With an empty fleet the kinetic search degenerates to plain insertion,
        so the increased cost must match the basic-insertion optimum."""
        dispatcher = Kinetic(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        oracle = small_instance.oracle
        best = min(
            BasicInsertion().best_insertion(state.route, request, oracle).delta for state in fleet
        )
        outcome = dispatcher.dispatch(request, now=request.release_time)
        assert outcome.increased_cost == pytest.approx(best, abs=1e-6)

    def test_kinetic_can_beat_insertion_by_reordering(self, line_oracle, line_network):
        """Kinetic may reorder existing stops, something insertion cannot do."""
        from repro.core.instance import URPSMInstance
        from repro.core.objective import ObjectiveConfig, PenaltyPolicy
        from tests.conftest import make_worker

        # Existing plan visits 5 then 1; a new request 2 -> 3 is much cheaper if
        # the worker may serve 1 before 5 again; insertion keeps the 5-before-1
        # order while kinetic is free to reorder.
        worker = make_worker(0, 0, capacity=4)
        objective = ObjectiveConfig(alpha=1.0, penalty_policy=PenaltyPolicy.FIXED, penalty_value=1e6)
        instance = URPSMInstance(
            network=line_network,
            oracle=line_oracle,
            workers=[worker],
            requests=[
                make_request(0, 5, 1, release=0.0, deadline=10_000.0),
                make_request(1, 1, 5, release=0.0, deadline=10_000.0),
            ],
            objective=objective,
            name="reorder",
        )
        fleet = FleetState([worker], line_oracle)
        dispatcher = Kinetic(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(instance, fleet)
        for request in instance.requests:
            outcome = dispatcher.dispatch(request, now=0.0)
            assert outcome.served
        assert fleet.state_of(0).route.is_feasible(line_oracle)

    def test_node_budget_limits_search(self, small_instance, fleet):
        dispatcher = Kinetic(DispatcherConfig(grid_cell_metres=500.0), node_budget=1)
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        outcome = dispatcher.dispatch(request, now=request.release_time)
        # with an absurdly small budget the dispatcher may fail to serve, but it
        # must not crash and must leave routes feasible
        for state in fleet:
            assert state.route.is_feasible(small_instance.oracle)
        assert outcome.request is request


class TestBatch:
    def test_defers_until_flush(self, small_instance, fleet):
        dispatcher = Batch(DispatcherConfig(grid_cell_metres=500.0, batch_interval=6.0))
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        assert dispatcher.dispatch(request, now=0.0) is None
        assert dispatcher.next_flush_time() == pytest.approx(6.0)
        outcomes = dispatcher.flush(now=6.0)
        assert len(outcomes) == 1
        assert outcomes[0].served
        assert dispatcher.next_flush_time() is None

    def test_groups_by_origin_cell(self, small_instance, fleet):
        dispatcher = Batch(DispatcherConfig(grid_cell_metres=500.0, batch_interval=6.0))
        dispatcher.setup(small_instance, fleet)
        for request in small_instance.requests[:4]:
            dispatcher.dispatch(request, now=0.0)
        groups = dispatcher._grouped_requests(dispatcher.pending_requests)
        assert sum(len(group) for group in groups) == 4
        assert all(len(group) >= 1 for group in groups)
        # groups are sorted by size, largest first
        sizes = [len(group) for group in groups]
        assert sizes == sorted(sizes, reverse=True)

    def test_flush_rejects_expired_requests(self, small_instance, fleet):
        dispatcher = Batch(DispatcherConfig(grid_cell_metres=500.0, batch_interval=6.0))
        dispatcher.setup(small_instance, fleet)
        doomed = make_request(99, 3, 40, release=0.0, deadline=2.0, penalty=10.0)
        dispatcher.dispatch(doomed, now=0.0)
        outcomes = dispatcher.flush(now=6.0)
        assert len(outcomes) == 1
        assert not outcomes[0].served

    def test_full_simulation_resolves_every_request(self, small_instance):
        result = MatchingService(
            small_instance, Batch(DispatcherConfig(grid_cell_metres=500.0, batch_interval=6.0))
        ).replay()
        assert result.total_requests == len(small_instance.requests)
        assert result.served_requests + result.rejected_requests == result.total_requests


class TestNearest:
    def test_assigns_closest_feasible_worker(self, small_instance, fleet):
        dispatcher = NearestWorker(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        outcome = dispatcher.dispatch(request, now=request.release_time)
        assert outcome.served
        network = small_instance.network
        chosen = fleet.state_of(outcome.worker_id)
        # no other *idle* worker is strictly closer in Euclidean distance
        # (workers are all idle before the first request)
        chosen_distance = network.euclidean(small_instance.workers[outcome.worker_id].initial_location,
                                            request.origin)
        for worker in small_instance.workers:
            other_distance = network.euclidean(worker.initial_location, request.origin)
            assert chosen_distance <= other_distance + 1e-6 or worker.id != outcome.worker_id

    def test_full_simulation_runs(self, small_instance):
        dispatcher = NearestWorker(DispatcherConfig(grid_cell_metres=500.0))
        result = MatchingService(small_instance, dispatcher).replay()
        assert result.total_requests == len(small_instance.requests)
