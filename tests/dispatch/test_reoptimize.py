"""Tests for the relocate re-optimisation extension."""

from repro.core.route import empty_route
from repro.core.types import StopKind
from repro.dispatch import DispatcherConfig, PruneGreedyDP, PruneGreedyDPReopt
from repro.dispatch.reoptimize import reinsertion_improvement, remove_request
from repro.service import MatchingService
from repro.simulation.fleet import FleetState
from tests.conftest import make_request, make_worker, route_with_requests


class TestRemoveRequest:
    def test_removes_both_stops(self, line_oracle):
        worker = make_worker(0, 0)
        first = make_request(1, origin=1, destination=3)
        second = make_request(2, origin=2, destination=4)
        route = route_with_requests(worker, line_oracle, [first, second])
        stripped = remove_request(route, 1, line_oracle)
        assert stripped is not None
        assert {stop.request.id for stop in stripped.stops} == {2}
        assert stripped.is_feasible(line_oracle)

    def test_missing_request_returns_none(self, line_oracle):
        worker = make_worker(0, 0)
        route = route_with_requests(worker, line_oracle, [make_request(1, origin=1, destination=3)])
        assert remove_request(route, 99, line_oracle) is None

    def test_onboard_request_is_not_removable(self, line_oracle):
        from repro.core.route import Route
        from repro.core.types import dropoff_stop

        worker = make_worker(0, 2)
        request = make_request(1, origin=0, destination=4)
        route = Route(worker=worker, origin=2, start_time=10.0, stops=[dropoff_stop(request)])
        route.refresh(line_oracle)
        assert remove_request(route, 1, line_oracle) is None

    def test_original_route_unchanged(self, line_oracle):
        worker = make_worker(0, 0)
        request = make_request(1, origin=1, destination=3)
        route = route_with_requests(worker, line_oracle, [request])
        remove_request(route, 1, line_oracle)
        assert len(route.stops) == 2


class TestReinsertionImprovement:
    def test_moves_request_to_obviously_better_worker(self, line_oracle):
        """A request assigned to a far worker moves to an idle worker sitting on it."""
        far_worker = make_worker(0, 0, capacity=4)
        near_worker = make_worker(1, 4, capacity=4)
        fleet = FleetState([far_worker, near_worker], line_oracle)
        request = make_request(7, origin=4, destination=5, deadline=10_000.0)
        # deliberately assign to the far worker
        far_state = fleet.state_of(0)
        far_state.adopt_route(
            route_with_requests(far_worker, line_oracle, [request]), request=request
        )

        before = sum(state.route.planned_cost(line_oracle) for state in fleet)
        report = reinsertion_improvement(fleet, line_oracle)
        after = sum(state.route.planned_cost(line_oracle) for state in fleet)

        assert report.moves == 1
        assert report.cost_reduction == before - after
        assert after < before
        assert fleet.state_of(0).route.is_empty
        assert {stop.request.id for stop in fleet.state_of(1).route.stops} == {7}
        # the service record follows the request to the new worker
        assert 7 in fleet.state_of(1).assigned_requests
        assert 7 not in fleet.state_of(0).assigned_requests

    def test_an_equally_cheap_target_goes_to_the_smallest_worker_id(self, line_oracle):
        """Workers 9 and 3 idle on the request's origin tie exactly; the fleet
        iterates 9 first, yet the move goes to 3 — the smallest
        ``(delta, worker id)``, the rule every planner uses."""
        far_worker = make_worker(0, 0, capacity=4)
        fleet = FleetState(
            [far_worker, make_worker(9, 4, capacity=4), make_worker(3, 4, capacity=4)],
            line_oracle,
        )
        request = make_request(7, origin=4, destination=5, deadline=10_000.0)
        fleet.state_of(0).adopt_route(
            route_with_requests(far_worker, line_oracle, [request]), request=request
        )
        assert reinsertion_improvement(fleet, line_oracle).moves == 1
        assert 7 in fleet.state_of(3).assigned_requests
        assert fleet.state_of(9).route.is_empty

    def test_no_move_when_already_optimal(self, line_oracle):
        worker_a = make_worker(0, 0, capacity=4)
        worker_b = make_worker(1, 5, capacity=4)
        fleet = FleetState([worker_a, worker_b], line_oracle)
        request = make_request(3, origin=0, destination=1, deadline=10_000.0)
        state = fleet.state_of(0)
        state.adopt_route(route_with_requests(worker_a, line_oracle, [request]), request=request)
        report = reinsertion_improvement(fleet, line_oracle)
        assert report.moves == 0
        assert report.cost_reduction == 0.0

    def test_routes_stay_feasible_after_pass(self, small_instance, fleet):
        dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        for request in small_instance.requests:
            fleet.advance_all(request.release_time)
            dispatcher.dispatch(request, request.release_time)
        reinsertion_improvement(fleet, small_instance.oracle)
        for state in fleet:
            assert state.route.is_feasible(small_instance.oracle)

    def test_max_moves_bounds_the_pass(self, line_oracle):
        workers = [make_worker(i, 0, capacity=4) for i in range(2)]
        fleet = FleetState(workers, line_oracle)
        state = fleet.state_of(0)
        requests = [make_request(i, origin=4, destination=5, deadline=10_000.0) for i in range(3)]
        route = empty_route(workers[0])
        route.refresh(line_oracle)
        for request in requests:
            route = route.with_insertion(request, route.num_stops, route.num_stops, line_oracle)
        state.route = route
        report = reinsertion_improvement(fleet, line_oracle, max_moves=1)
        assert report.moves <= 1


class TestReoptimizingDispatcher:
    def test_registered_and_runs_end_to_end(self, small_instance):
        result = MatchingService(
            small_instance,
            PruneGreedyDPReopt(DispatcherConfig(grid_cell_metres=500.0), reoptimize_every=2),
        ).replay()
        assert result.total_requests == len(small_instance.requests)
        assert result.deadline_violations == 0

    def test_never_worse_than_plain_prune_greedy_dp(self, small_instance):
        plain = MatchingService(
            small_instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0))
        ).replay()
        reopt = MatchingService(
            small_instance,
            PruneGreedyDPReopt(DispatcherConfig(grid_cell_metres=500.0), reoptimize_every=2),
        ).replay()
        assert reopt.served_requests >= plain.served_requests - 1
        assert reopt.unified_cost <= plain.unified_cost * 1.05

    def test_zero_interval_disables_reoptimisation(self, small_instance):
        dispatcher = PruneGreedyDPReopt(
            DispatcherConfig(grid_cell_metres=500.0), reoptimize_every=0
        )
        result = MatchingService(small_instance, dispatcher).replay()
        assert dispatcher.total_moves == 0
        assert result.total_requests == len(small_instance.requests)
