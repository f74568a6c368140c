"""Tests for GreedyDP and pruneGreedyDP (decision + planning phases)."""

import pytest

from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.dispatch import DispatcherConfig, GreedyDP, PruneGreedyDP
from repro.service import MatchingService
from repro.simulation.fleet import FleetState
from tests.conftest import make_request


@pytest.fixture(params=[GreedyDP, PruneGreedyDP], ids=["GreedyDP", "pruneGreedyDP"])
def dispatcher_class(request):
    return request.param


class TestDispatch:
    def test_serves_request_with_generous_deadline(self, small_instance, fleet, dispatcher_class):
        dispatcher = dispatcher_class(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        outcome = dispatcher.dispatch(request, now=request.release_time)
        assert outcome.served
        assert outcome.worker_id in {worker.id for worker in small_instance.workers}
        state = fleet.state_of(outcome.worker_id)
        assert request.id in state.assigned_requests
        assert state.route.is_feasible(small_instance.oracle)

    def test_picks_minimum_increase_worker(self, small_instance, fleet, dispatcher_class):
        from repro.core.insertion.linear_dp import LinearDPInsertion

        dispatcher = dispatcher_class(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        request = small_instance.requests[0]
        oracle = small_instance.oracle
        operator = LinearDPInsertion()
        best = min(
            operator.best_insertion(state.route, request, oracle).delta for state in fleet
        )
        outcome = dispatcher.dispatch(request, now=request.release_time)
        assert outcome.increased_cost == best

    def test_rejects_unreachable_request(self, small_instance, fleet, dispatcher_class):
        dispatcher = dispatcher_class(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        impossible = make_request(99, 0, 63, release=0.0, deadline=1.0, penalty=10.0)
        outcome = dispatcher.dispatch(impossible, now=0.0)
        assert not outcome.served

    def test_decision_phase_rejects_unprofitable_request(self, small_instance, fleet, dispatcher_class):
        """With a penalty far below the minimal possible detour, the decision
        phase must reject without planning (Algorithm 4, line 5)."""
        dispatcher = dispatcher_class(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        cheap = make_request(99, 30, 40, release=0.0, deadline=5000.0, penalty=0.001)
        outcome = dispatcher.dispatch(cheap, now=0.0)
        assert not outcome.served
        assert outcome.decision_rejected

    def test_sequential_requests_all_feasible(self, small_instance, fleet, dispatcher_class):
        dispatcher = dispatcher_class(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        for request in small_instance.requests:
            fleet.advance_all(request.release_time)
            dispatcher.dispatch(request, now=request.release_time)
        for state in fleet:
            assert state.route.is_feasible(small_instance.oracle)


class TestPruningEquivalence:
    def test_prune_and_plain_pick_same_cost(self, small_instance):
        """Lemma 8 pruning must not change the chosen insertion cost."""
        oracle = small_instance.oracle
        outcomes = {}
        for cls in (GreedyDP, PruneGreedyDP):
            fleet = FleetState(small_instance.workers, oracle)
            dispatcher = cls(DispatcherConfig(grid_cell_metres=500.0))
            dispatcher.setup(small_instance, fleet)
            request = small_instance.requests[0]
            outcomes[cls.__name__] = dispatcher.dispatch(request, now=request.release_time)
        assert outcomes["GreedyDP"].served == outcomes["PruneGreedyDP"].served
        assert outcomes["GreedyDP"].increased_cost == outcomes["PruneGreedyDP"].increased_cost
        assert outcomes["GreedyDP"].worker_id == outcomes["PruneGreedyDP"].worker_id

    def test_pruning_evaluates_no_more_insertions(self, small_instance):
        oracle = small_instance.oracle
        evaluated = {}
        for cls in (GreedyDP, PruneGreedyDP):
            fleet = FleetState(small_instance.workers, oracle)
            dispatcher = cls(DispatcherConfig(grid_cell_metres=500.0))
            dispatcher.setup(small_instance, fleet)
            request = small_instance.requests[0]
            outcome = dispatcher.dispatch(request, now=request.release_time)
            evaluated[cls.__name__] = outcome.insertions_evaluated
        assert evaluated["PruneGreedyDP"] <= evaluated["GreedyDP"]

    def test_pruning_saves_distance_queries_end_to_end(self, small_instance):
        oracle = small_instance.oracle
        queries = {}
        for cls in (GreedyDP, PruneGreedyDP):
            result = MatchingService(
                small_instance, cls(DispatcherConfig(grid_cell_metres=500.0))
            ).replay()
            queries[cls.__name__] = result.distance_queries
        assert queries["PruneGreedyDP"] <= queries["GreedyDP"]


class TestObjectiveSpecialCases:
    def test_alpha_zero_never_rejects_in_decision(self, city_network, city_oracle):
        """With alpha = 0 (maximise served requests) the decision phase never
        rejects: penalties always exceed alpha * LB = 0."""
        from repro.core.instance import URPSMInstance
        from tests.conftest import make_worker

        objective = ObjectiveConfig(alpha=0.0, penalty_policy=PenaltyPolicy.FIXED, penalty_value=1.0)
        instance = URPSMInstance(
            network=city_network,
            oracle=city_oracle,
            workers=[make_worker(0, 0, capacity=4)],
            requests=[make_request(0, 10, 40, release=0.0, deadline=4000.0, penalty=1.0)],
            objective=objective,
            name="alpha-zero",
        )
        dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        result = MatchingService(instance, dispatcher).replay()
        assert result.served_requests == 1
        assert result.decision_rejections == 0

    def test_reject_unprofitable_option(self, small_instance, fleet):
        dispatcher = PruneGreedyDP(
            DispatcherConfig(grid_cell_metres=500.0, reject_unprofitable=True)
        )
        dispatcher.setup(small_instance, fleet)
        # penalty slightly above the Euclidean lower bound but far below the
        # real detour: the planning phase must reject it under this option
        request = make_request(99, 0, 63, release=0.0, deadline=50000.0, penalty=1.0)
        outcome = dispatcher.dispatch(request, now=0.0)
        assert not outcome.served
