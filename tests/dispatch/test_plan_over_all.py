"""``Dispatcher.plan_over_all``: one planning pass for the evaluate-all planners.

``batch``, ``tshare`` and ``GreedyDP`` hand all candidate rows of the fleet
route table to the insertion operator's block entry point in one call. Three
contracts:

* **Equivalence.** Whether the operator answers through its array kernel
  (``LinearDPInsertion.best_insertions``) or through the base-class scalar loop
  (a test-local subclass hides the kernel — the loop is the oracle), whole
  stress programs — closures, cancellations, shifts, surges — produce the same
  per-request assignments and service times, ``unified_cost`` and
  ``served_requests``, bit for bit.
* **No memo leak.** ``L = dis(o_r, d_r)`` is seeded on the winner's new route
  only. The old loops seeded every *evaluated* route, and ``with_insertion`` /
  ``advance_to`` / ``drop_request`` copy that dict onto every successor route
  for the rest of the run. The memo test runs every registry dispatcher, the
  planners that stop early included.
* **Query count.** One call costs ``2 * popcount(reached)`` exact queries for
  the kernel plus one refresh of the winner's new route (its ``n`` legs) —
  once per served request, not once per running improvement.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dispatch.batch as batch_module
import repro.dispatch.greedy_dp as greedy_dp_module
import repro.dispatch.tshare as tshare_module
from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.types import Request
from repro.dispatch.registry import DispatcherSpec, list_dispatchers
from repro.scenarios.runner import run_program
from repro.scenarios.stress import generate_stress_scenario
from repro.service.facade import MatchingService
from repro.service.spec import PlatformSpec
from repro.workloads.scenarios import ScenarioConfig
from tests.core.test_block_linear_dp import _reached


class _ScalarLoopLinearDP(LinearDPInsertion):
    """The linear DP with its block kernel hidden behind the default loop."""

    best_insertions = InsertionOperator.best_insertions


def _use_operator(monkeypatch, operator_class) -> None:
    """Make ``operator_class`` the default operator of the three planners.

    (``tshare`` defaults to ``BasicInsertion``, which has no kernel to hide;
    it gets the linear DP in both arms so the comparison means something.)
    """
    monkeypatch.setattr(batch_module, "LinearDPInsertion", operator_class)
    monkeypatch.setattr(greedy_dp_module, "LinearDPInsertion", operator_class)
    monkeypatch.setattr(tshare_module, "BasicInsertion", operator_class)


#: stress programs of master seed 2018 that between them carry street closures
#: (0, 2, 13, 16), cancellations (0, 13), shift ends (2, 7, 16) and surges
_PROGRAMS = (0, 2, 7, 13, 16)


def _fingerprint(dispatcher_name: str, index: int):
    config, program = generate_stress_scenario(2018, index)
    overrides = {"num_shards": 2} if dispatcher_name.startswith("sharded:") else {}
    spec = PlatformSpec(
        scenario=config, dispatcher=DispatcherSpec.parse(dispatcher_name, **overrides)
    )
    outcome = run_program(spec, program)
    result = outcome.result
    services = sorted(
        (record.request.id, record.worker_id, record.pickup_time, record.dropoff_time)
        for record in outcome.completions
    )
    return services, result.unified_cost, result.served_requests, result.cancelled_requests


class TestKernelEqualsScalarLoopEndToEnd:
    def test_programs_cover_closures_cancellations_and_shifts(self):
        closures = cancellations = shifts = 0
        for index in _PROGRAMS:
            config, program = generate_stress_scenario(2018, index)
            closures += bool(program.disruptions)
            cancellations += config.cancellation_rate > 0
            shifts += any(fleet_class.shift_hours > 0 for fleet_class in program.fleet)
        assert min(closures, cancellations, shifts) >= 2

    @pytest.mark.parametrize("dispatcher_name", ["batch", "tshare", "GreedyDP", "sharded:batch"])
    @pytest.mark.parametrize("index", _PROGRAMS)
    def test_identical_assignments_and_cost(self, monkeypatch, dispatcher_name, index):
        _use_operator(monkeypatch, _ScalarLoopLinearDP)
        expected = _fingerprint(dispatcher_name, index)
        _use_operator(monkeypatch, LinearDPInsertion)
        actual = _fingerprint(dispatcher_name, index)
        assert expected[0], "nobody was served: the comparison would be vacuous"
        assert actual == expected


def _half_run_service(dispatcher_name: str) -> MatchingService:
    config = ScenarioConfig(city="small-grid", num_workers=10, num_requests=80,
                            worker_capacity=3, horizon_hours=0.5, seed=23)
    spec = PlatformSpec(scenario=config, dispatcher=DispatcherSpec.parse(dispatcher_name))
    service = MatchingService.from_spec(spec)
    for request in service.instance.requests[:50]:
        service.submit(request)
    return service


class TestDirectDistanceMemo:
    @pytest.mark.parametrize("dispatcher_name", list_dispatchers())
    def test_losing_an_evaluation_leaves_no_memo_entry(self, dispatcher_name):
        """After 50 requests evaluated against (nearly) every worker, a route
        remembers ``L`` only for requests its worker was actually assigned —
        for every registry dispatcher: the evaluate-all planners, the Lemma 8
        scan, ``nearest``'s first-feasible walk and the kinetic search."""
        service = _half_run_service(dispatcher_name)
        evaluated = 0
        for state in service.fleet.states.values():
            memo = set(state.route._direct_distances)
            assert memo <= set(state.assigned_requests), (
                f"worker {state.worker.id} remembers L of requests it only lost: "
                f"{sorted(memo - set(state.assigned_requests))}"
            )
            evaluated += len(state.assigned_requests)
        assert evaluated > 5
        service.drain()

    def test_rejected_plan_leaves_the_evaluated_routes_untouched(self):
        """``plan_over_all`` does not write to any live route — not even the
        winner's: the caller may still turn the plan down."""
        service = _half_run_service("batch")
        fleet, dispatcher = service.fleet, service.dispatcher
        table = fleet.table
        rows = np.flatnonzero(table.online)
        probe = _probe(service, window=1800.0)
        direct = service.instance.oracle.distance(probe.origin, probe.destination)
        before = {
            worker_id: dict(state.route._direct_distances)
            for worker_id, state in fleet.states.items()
        }
        delta, worker_id, route = dispatcher.plan_over_all(probe, rows, direct)
        assert worker_id is not None and route is not None and delta < float("inf")
        assert route._direct_distances[probe.id] == direct
        assert route is not fleet.peek_state(worker_id).route
        for other_id, state in fleet.states.items():
            assert state.route._direct_distances == before[other_id]
        service.drain()


def _probe(service: MatchingService, window: float) -> Request:
    template = service.instance.requests[60]
    clock = service.fleet.clock
    return Request(
        id=99_000, origin=template.origin, destination=template.destination,
        release_time=clock, deadline=clock + window, penalty=template.penalty,
        capacity=1,
    )


class TestQueryCount:
    @pytest.mark.parametrize("window", [240.0, 900.0, 3600.0])
    def test_one_gather_plus_one_refresh_of_the_winner(self, window):
        service = _half_run_service("batch")
        fleet, dispatcher = service.fleet, service.dispatcher
        oracle = service.instance.oracle
        table = fleet.table
        rows = np.flatnonzero(table.online)
        # materialise first: advancing a worker issues path/refresh queries
        # of its own, which are not planning's
        routes = [state.route for state in fleet.states_of(rows)]
        probe = _probe(service, window)
        direct = oracle.distance(probe.origin, probe.destination)

        before = oracle.counters.distance_queries
        delta, worker_id, route = dispatcher.plan_over_all(probe, rows, direct)
        issued = oracle.counters.distance_queries - before

        kernel = 2 * _reached(dispatcher.insertion, routes, probe, direct)
        refresh = route.num_stops if route is not None else 0
        assert issued == kernel + refresh
        if window >= 900.0:
            assert route is not None  # the refresh term was exercised
        service.drain()
