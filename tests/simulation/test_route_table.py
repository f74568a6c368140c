"""The fleet's route table: one mirror, one writer, an exact no-op window.

Every test here holds the table against what it mirrors. ``check_table``
rebuilds each row from ``state.route`` and the live network in plain Python
(sharing no code with ``RouteTable.write``), and probes the window: a worker
the table calls *not due* must come out of ``advance_to(clock)`` untouched.
One test per rewrite site fails when that site stops rewriting.
"""

from __future__ import annotations

import copy
import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.insertion.lower_bound import (
    euclidean_insertion_lower_bound,
    euclidean_insertion_lower_bounds,
)
from repro.core.route import RouteBlock
from repro.core.types import Worker
from repro.dispatch import DispatcherConfig, Kinetic, PruneGreedyDP
from repro.dispatch.reoptimize import reinsertion_improvement
from repro.exceptions import DispatchError
from repro.service import MatchingService
from repro.simulation.fleet import FleetState, WorkerState
from repro.simulation.route_table import RouteTable
from tests.conftest import build_line_network, make_request, make_worker, route_with_requests
from tests.core.test_insertion_equivalence import _ORACLE, insertion_scenarios

# ------------------------------------------------------------------ the oracle


def expected_first_edge_cost(route, network) -> float:
    """The window's edge cost, derived the way ``advance_to`` picks its path."""
    path = route.concrete_path
    if (
        not route.stops
        or path is None
        or len(path) < 2
        or path[0] != route.origin
        or path[-1] != route.stops[0].vertex
    ):
        return -math.inf
    return network.edge_cost(path[0], path[1])


def probe_advance(state: WorkerState, oracle, clock: float) -> None:
    """Assert ``advance_to(clock)`` on a detached copy of ``state`` changes nothing."""
    probe = WorkerState.__new__(WorkerState)
    probe.worker, probe._oracle, probe._fleet = state.worker, oracle, None
    probe.route = copy.copy(state.route)
    probe.travelled_cost = state.travelled_cost
    probe.assigned_requests = {
        request_id: copy.copy(record) for request_id, record in state.assigned_requests.items()
    }
    probe.online, probe.plan_version = state.online, state.plan_version
    entered_with = probe.route
    counters = dataclasses.replace(oracle.counters)
    completed = probe.advance_to(clock)
    assert completed == []
    assert probe.route is entered_with
    assert probe.route == state.route  # origin, start_time, stops and the four arrays
    assert probe.route.concrete_path == state.route.concrete_path
    assert probe.travelled_cost == state.travelled_cost
    assert probe.assigned_requests == state.assigned_requests
    for name in ("distance_queries", "path_queries", "lower_bound_queries", "dijkstra_runs"):
        assert getattr(oracle.counters, name) == getattr(counters, name), name


def check_table(fleet: FleetState, only: "set[int] | None" = None) -> None:
    """Every row equals a from-scratch rebuild; the window only skips no-ops.

    ``only`` restricts the rows to those workers (a shard replica keeps the
    routes of its own members current, nobody else's).
    """
    table, network, clock = fleet.table, fleet.oracle.network, fleet.clock
    assert table.ids.tolist() == sorted(fleet.states)
    due = table.due(slice(None), clock)
    for row, worker_id in enumerate(table.ids.tolist()):
        if only is not None and worker_id not in only:
            continue
        state = fleet.states[worker_id]
        route = state.route
        count = route.num_stops + 1
        assert table.row_of(worker_id) == row
        assert table.count[row] == count
        assert table.capacity[row] == state.worker.capacity
        assert bool(table.online[row]) == state.online
        assert table.vertex[:count, row].tolist() == [route.origin] + [
            stop.vertex for stop in route.stops
        ]
        assert table.arr[:count, row].tolist() == route.arr
        assert table.slack[:count, row].tolist() == route.slack
        assert table.picked[:count, row].tolist() == route.picked
        assert table.first_edge_cost[row] == expected_first_edge_cost(route, network)
        assert table.is_due(worker_id, clock) == bool(due[row])
        if not due[row]:
            probe_advance(state, fleet.oracle, clock)
    assert table.depth > int(table.count.max())


# ------------------------------------------------------------- table mechanics


class TestTableMechanics:
    def test_rows_follow_worker_ids_not_fleet_order(self, line_oracle):
        workers = [make_worker(7, 3), make_worker(2, 1), make_worker(40, 5)]
        fleet = FleetState(workers, line_oracle)
        assert fleet.table.ids.tolist() == [2, 7, 40]
        assert fleet.table.rows_of([40, 2]).tolist() == [2, 0]
        assert fleet.table.vertex[0].tolist() == [1, 3, 5]
        check_table(fleet)

    def test_unknown_worker_is_rejected(self, line_oracle):
        fleet = FleetState([make_worker(2, 1), make_worker(9, 4)], line_oracle)
        for missing in (0, 5, 10):
            with pytest.raises(DispatchError, match=f"unknown worker {missing}"):
                fleet.table.rows_of([2, missing])

    def test_long_route_deepens_every_matrix(self, line_oracle):
        fleet = FleetState([make_worker(0, 0), make_worker(1, 5)], line_oracle)
        depth = fleet.table.depth
        requests = [
            make_request(index, origin=index % 5, destination=index % 5 + 1, deadline=1e6)
            for index in range(depth)
        ]
        state = fleet.state_of(0)
        for request in requests:
            route = state.route
            state.adopt_route(
                route.with_insertion(request, route.num_stops, route.num_stops, line_oracle),
                request=request,
            )
        assert fleet.table.count[0] == 2 * depth + 1
        assert fleet.table.depth > 2 * depth + 1
        check_table(fleet)

    def test_set_online_writes_the_column(self, line_oracle):
        fleet = FleetState([make_worker(0, 0), make_worker(1, 5)], line_oracle)
        fleet.set_online(1, False)
        assert fleet.table.online.tolist() == [True, False]
        assert not fleet.is_available(1)
        check_table(fleet)
        fleet.set_online(1, True)
        assert fleet.table.online.tolist() == [True, True]


# -------------------------------------------------------------- the no-op window


def _clock_where(predicate, around: float) -> float:
    """A float next to ``around`` for which ``predicate`` holds (exact boundaries)."""
    for steps in range(64):
        for direction in (math.inf, -math.inf):
            candidate = around
            for _ in range(steps):
                candidate = math.nextafter(candidate, direction)
            if predicate(candidate):
                return candidate
    raise AssertionError(f"no float near {around!r} satisfies the predicate")


class TestWindowBoundaries:
    """The window repeats ``advance_to``'s comparisons, so it must flip with them."""

    @pytest.fixture()
    def fleet(self, line_oracle):
        # 10-second edges; worker 0 heads 0 -> 4 -> 5 and has walked one edge
        fleet = FleetState([make_worker(0, 0), make_worker(1, 5)], line_oracle)
        request = make_request(1, origin=4, destination=5, deadline=1e6)
        state = fleet.state_of(0)
        state.adopt_route(route_with_requests(state.worker, line_oracle, [request]), request=request)
        fleet.set_clock(13.0)
        fleet.state_of(0)
        assert state.position == 1 and state.route.arr[:2] == [10.0, 40.0]
        assert fleet.table.first_edge_cost[0] == 10.0
        return fleet

    def _due(self, fleet, clock: float) -> bool:
        fleet.clock = clock  # the probe advances a copy, the fleet stays put
        check_table(fleet)
        return fleet.table.is_due(0, clock)

    def test_mid_edge_is_not_due(self, fleet):
        assert not self._due(fleet, 13.0)
        assert not self._due(fleet, 19.9)

    def test_first_edge_fitting_the_budget_exactly_is_due(self, fleet):
        # advance_to walks the edge unless edge_cost > budget + 1e-9
        fits = _clock_where(lambda clock: (clock - 10.0) + 1e-9 == 10.0, 20.0 - 1e-9)
        assert self._due(fleet, fits)
        assert not self._due(fleet, math.nextafter(fits - 1e-9, -math.inf))

    def test_next_stop_within_tolerance_is_due(self, fleet, line_oracle):
        # advance_to completes the stop once arr[1] <= clock + 1e-9, whatever
        # the path: a pickup under the worker's wheels, no budget, no path
        state = fleet.state_of(1)
        request = make_request(2, origin=5, destination=4, deadline=1e6)
        state.adopt_route(
            route_with_requests(state.worker, line_oracle, [request], start_time=13.0),
            request=request,
        )
        assert state.route.arr == [13.0, 13.0, 23.0]
        reached = _clock_where(lambda clock: clock + 1e-9 == 13.0, 13.0 - 1e-9)
        assert fleet.table.is_due(1, reached) and fleet.table.due(np.array([1]), reached)[0]
        state.advance_to(reached)
        assert state.assigned_requests[2].pickup_time == 13.0
        assert not fleet.table.is_due(1, math.nextafter(reached, -math.inf) - 1e-9)

    def test_no_elapsed_budget_is_not_due_even_without_a_path(self, fleet, line_oracle):
        state = fleet.state_of(1)
        request = make_request(2, origin=3, destination=2, deadline=1e6)
        fleet.clock = 13.0
        state.adopt_route(
            route_with_requests(state.worker, line_oracle, [request], start_time=13.0),
            request=request,
        )
        assert fleet.table.first_edge_cost[1] == -math.inf
        assert not fleet.table.is_due(1, 13.0)
        assert not fleet.table.is_due(1, 13.0 + 5e-10)  # budget <= 1e-9 breaks early
        assert fleet.table.is_due(1, 13.1)  # advance_to would query and record a path
        check_table(fleet)

    def test_idle_worker_is_due_once_the_clock_moved(self, fleet):
        assert fleet.table.is_due(1, 13.0)  # still anchored at 0
        fleet.state_of(1)
        assert not fleet.table.is_due(1, 13.0)
        check_table(fleet)


# --------------------------------------------------- one test per rewrite site


def _busy_service(dispatcher=None):
    """A service on a private 12-vertex line city with two riders under way."""
    from repro.core.instance import URPSMInstance
    from repro.core.objective import ObjectiveConfig, PenaltyPolicy
    from repro.network.oracle import DistanceOracle

    network = build_line_network(num_vertices=12)
    oracle = DistanceOracle(network, precompute="apsp")
    workers = [make_worker(0, 0), make_worker(1, 11), make_worker(5, 6)]
    requests = [
        make_request(0, origin=3, destination=8, release=0.0, deadline=5000.0, penalty=1e6),
        make_request(1, origin=9, destination=2, release=1.0, deadline=5000.0, penalty=1e6),
        make_request(2, origin=5, destination=7, release=2.0, deadline=5000.0, penalty=1e6),
    ]
    instance = URPSMInstance(
        network=network,
        oracle=oracle,
        workers=workers,
        requests=requests,
        objective=ObjectiveConfig(
            alpha=1.0, penalty_policy=PenaltyPolicy.FIXED, penalty_value=1e6
        ),
        name="route-table-sites",
    )
    service = MatchingService(
        instance, dispatcher or PruneGreedyDP(DispatcherConfig(grid_cell_metres=300.0))
    )
    return service, requests


class TestRewriteSites:
    def test_live_network_update_resets_rows_and_windows(self):
        service, requests = _busy_service()
        for request in requests[:2]:
            assert service.submit(request).worker_id is not None
        service.advance_to(14.0)
        fleet = service.fleet
        list(fleet)  # everyone mid-edge with a recorded path
        busy = np.flatnonzero(fleet.table.count > 1)
        assert busy.size and (fleet.table.first_edge_cost[busy] == 10.0).all()

        def slow_down(network):
            # the streets the workers are on change cost under their wheels
            for edge in list(network.edges()):
                network.remove_edge(edge.u, edge.v)
                network.add_edge(edge.u, edge.v, length=edge.length, speed=edge.speed / 4)

        service.apply_network_update(slow_down)
        # re-planned onto fresh routes; the grid rebuild already touched them,
        # which re-derived their paths at the new prices
        assert (fleet.table.first_edge_cost[busy] == 40.0).all()
        check_table(fleet)
        service.advance_to(30.0)
        list(fleet)
        check_table(fleet)
        service.drain()

    def test_drop_request_rewrites_the_row(self):
        service, requests = _busy_service()
        decision = service.submit(requests[0])
        service.advance_to(14.0)
        fleet = service.fleet
        row = fleet.table.row_of(decision.worker_id)
        fleet.state_of(decision.worker_id)
        assert fleet.table.count[row] == 3 and fleet.table.first_edge_cost[row] == 10.0
        assert service.cancel(requests[0].id).cancelled
        assert fleet.table.count[row] == 1
        assert fleet.table.first_edge_cost[row] == -math.inf
        check_table(fleet)

    def test_add_worker_grows_the_table_in_id_order(self):
        service, requests = _busy_service()
        service.submit(requests[0])
        service.advance_to(14.0)
        fleet = service.fleet
        list(fleet)
        # between existing ids, past them, and far past them (sparse)
        for worker_id, vertex in ((3, 4), (6, 2), (10_001, 9)):
            service.add_worker(Worker(id=worker_id, initial_location=vertex, capacity=2))
            check_table(fleet)
        assert fleet.table.ids.tolist() == [0, 1, 3, 5, 6, 10_001]
        assert fleet.table.capacity.tolist() == [4, 4, 2, 4, 2, 2]
        assert fleet.table.arr[0, fleet.table.row_of(10_001)] == 14.0
        decision = service.submit(make_request(50, origin=9, destination=10, release=14.0))
        assert decision.worker_id == 10_001
        check_table(fleet)

    def test_reoptimisation_moves_rewrite_both_rows(self, line_oracle):
        far, near = make_worker(0, 0), make_worker(1, 4)
        fleet = FleetState([far, near], line_oracle)
        request = make_request(7, origin=4, destination=5, deadline=10_000.0)
        fleet.state_of(0).adopt_route(
            route_with_requests(far, line_oracle, [request]), request=request
        )
        assert fleet.table.count.tolist() == [3, 1]
        assert reinsertion_improvement(fleet, line_oracle).moves == 1
        # the pickup sits under the near worker, so the pass's own lazy
        # iteration already completed it: one stop left
        assert fleet.table.count.tolist() == [1, 2]
        check_table(fleet)

    def test_kinetic_replans_rewrite_the_row(self):
        service, requests = _busy_service(
            dispatcher=Kinetic(DispatcherConfig(grid_cell_metres=300.0))
        )
        for request in requests:
            service.submit(request)
            check_table(service.fleet)
        service.advance_to(25.0)
        list(service.fleet)
        check_table(service.fleet)
        assert int(service.fleet.table.count.sum()) > len(service.fleet)
        service.drain()
        check_table(service.fleet)


# ------------------------------------------------- the table-fed relaxed DP


_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestTableFedLowerBounds:
    @given(st.lists(insertion_scenarios(), min_size=1, max_size=6), st.randoms())
    @_SETTINGS
    def test_rows_taken_from_a_table_equal_the_scalar_walk(self, scenarios, random):
        """Bit for bit, through a shared table: mixed lengths (the table deepens
        past its initial 8 stops), capacity resets mid-route, workers too small
        for the request, and any subset of rows in any order."""
        request = scenarios[0][1]
        routes = [
            dataclasses.replace(route, worker=dataclasses.replace(route.worker, id=3 * index))
            for index, (route, _) in enumerate(scenarios)
        ]
        table = RouteTable([route.worker for route in routes])
        for route in reversed(routes):
            table.write(route.worker.id, route, _ORACLE.network)
        picked = random.sample(range(len(routes)), random.randint(1, len(routes)))
        direct = _ORACLE.distance(request.origin, request.destination)
        bounds = euclidean_insertion_lower_bounds(
            table.take(np.asarray(picked)), request, _ORACLE, direct
        )
        for index, bound in zip(picked, bounds.tolist()):
            scalar = euclidean_insertion_lower_bound(routes[index], request, _ORACLE, direct)
            assert bound == scalar  # exact, inf included

    def test_capacity_resets_restart_the_pickup_minimum(self, line_oracle):
        """A full stretch mid-route forgets the pickup detours before it."""
        worker = make_worker(0, 0, capacity=2)
        riders = [
            make_request(1, origin=1, destination=3, deadline=1e6),
            make_request(2, origin=2, destination=3, deadline=1e6),
        ]
        route = route_with_requests(worker, line_oracle, [riders[0]])
        route = route.with_insertion(riders[1], 1, 1, line_oracle)  # both aboard over 2 -> 3
        assert route.picked == [0, 1, 2, 1, 0]
        request = make_request(9, origin=0, destination=5, deadline=1e6)
        direct = line_oracle.distance(0, 5)
        block = RouteBlock.from_routes([route, route_with_requests(worker, line_oracle, [])])
        bounds = euclidean_insertion_lower_bounds(block, request, line_oracle, direct)
        assert bounds.tolist() == [
            euclidean_insertion_lower_bound(route, request, line_oracle, direct),
            euclidean_insertion_lower_bound(
                route_with_requests(worker, line_oracle, []), request, line_oracle, direct
            ),
        ]

    def test_empty_block_and_oversized_requests(self, line_oracle):
        request = make_request(9, origin=0, destination=5, capacity=3)
        assert euclidean_insertion_lower_bounds([], request, line_oracle, 50.0).size == 0
        small = route_with_requests(make_worker(0, 0, capacity=2), line_oracle, [])
        large = route_with_requests(make_worker(1, 1, capacity=3), line_oracle, [])
        bounds = euclidean_insertion_lower_bounds(
            RouteBlock.from_routes([small, large]), request, line_oracle, 50.0
        )
        assert math.isinf(bounds[0]) and bounds[1] == 60.0


# ------------------------------------- after every event of a fuzzed scenario


class TestTableUnderTheStressFuzzer:
    """The stress fuzzer's programs (mixed fleets, surges, cancellations, shifts,
    closures that reopen), with the table checked after *every* engine event."""

    @given(
        index=st.integers(min_value=0, max_value=400),
        dispatcher=st.sampled_from(
            ["pruneGreedyDP", "batch", "kinetic", "pruneGreedyDP+reopt", "tshare",
             "sharded:pruneGreedyDP"]
        ),
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=list(HealthCheck))
    def test_rows_and_window_hold_after_every_event(self, index, dispatcher):
        from repro.scenarios.runner import run_program
        from repro.scenarios.stress import _stress_spec, generate_stress_scenario
        from repro.simulation.engine import EventEngine

        config, program = generate_stress_scenario(2018, index)
        checked = 0

        def checking(method):
            def wrapper(engine, *args, **kwargs):
                nonlocal checked
                result = method(engine, *args, **kwargs)
                check_table(engine.fleet)
                checked += 1
                return result

            return wrapper

        patched = {name: getattr(EventEngine, name) for name in ("_step", "apply_network_update")}
        try:
            for name, method in patched.items():
                setattr(EventEngine, name, checking(method))
            outcome = run_program(_stress_spec(config, dispatcher, num_shards=2), program)
        finally:
            for name, method in patched.items():
                setattr(EventEngine, name, method)
        assert checked >= len(outcome.compiled.instance.requests)
