"""Tests for the dispatcher base class helpers and the registry."""

import pytest

from repro.core.route import Route
from repro.dispatch import ALGORITHMS, DispatcherConfig, make_dispatcher
from repro.dispatch.greedy_dp import PruneGreedyDP
from tests.conftest import make_request


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        assert {"pruneGreedyDP", "GreedyDP", "tshare", "kinetic", "batch"} <= set(ALGORITHMS)

    def test_make_dispatcher_builds_named_algorithm(self):
        dispatcher = make_dispatcher("pruneGreedyDP")
        assert isinstance(dispatcher, PruneGreedyDP)
        assert dispatcher.name == "pruneGreedyDP"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown dispatcher"):
            make_dispatcher("does-not-exist")


class TestCandidateFiltering:
    def test_setup_populates_grid(self, small_instance, fleet):
        dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        assert dispatcher.grid is not None
        assert len(dispatcher.grid) == len(small_instance.workers)

    def test_candidate_filter_never_drops_reachable_workers(self, small_instance, fleet):
        """The grid filter is admissible: every worker that could physically reach
        the origin before the deadline must survive the filter."""
        dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        oracle = small_instance.oracle
        request = small_instance.requests[0]
        candidates = set(dispatcher.candidate_worker_ids(request, now=request.release_time))
        for state in fleet:
            reach = oracle.distance(state.position, request.origin)
            if request.release_time + reach <= request.deadline:
                assert state.worker.id in candidates

    def test_expired_request_has_no_candidates(self, small_instance, fleet):
        dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = make_request(99, 0, 10, release=0.0, deadline=100.0)
        assert dispatcher.candidate_worker_ids(request, now=200.0) == []

    def test_memory_estimate_positive_after_setup(self, small_instance, fleet):
        dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        assert dispatcher.memory_estimate_bytes() == 0
        dispatcher.setup(small_instance, fleet)
        assert dispatcher.memory_estimate_bytes() > 0

    def test_sync_grid_follows_worker_movement(self, small_instance, fleet):
        dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        # teleport a worker through a re-plan (the fleet notes the move), then re-sync
        state = fleet.state_of(0)
        state.replace_route(
            Route(worker=state.worker, origin=small_instance.workers[3].initial_location,
                  start_time=0.0)
        )
        dispatcher.sync_grid()
        cell = dispatcher.grid.cell_of_vertex(small_instance.workers[3].initial_location)
        assert 0 in dispatcher.grid.members_in_cell(cell)
