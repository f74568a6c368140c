"""Integration tests of the three special-case reductions of Section 3.2.

The URPSM objective with specific (alpha, penalty) settings must behave like
the classic objectives it generalises:

* alpha=0, p_r=1      -> the unified cost equals the number of unserved requests;
* alpha=1, p_r=inf    -> every feasible request is served (no voluntary rejection);
* alpha=c_w, p_r=c_r*dis -> minimising UC maximises platform revenue (Eq. 4).
"""

import math

import pytest

from repro.core.instance import URPSMInstance
from repro.core.objective import (
    max_revenue_objective,
    max_served_requests_objective,
    min_total_distance_objective,
    platform_revenue,
)
from repro.dispatch import DispatcherConfig, PruneGreedyDP
from repro.service import MatchingService
from repro.workloads.requests import RequestGeneratorConfig, generate_requests
from repro.workloads.scenarios import ScenarioConfig, build_network, make_oracle
from repro.workloads.workers import WorkerGeneratorConfig, generate_workers

_CONFIG = ScenarioConfig(city="small-grid", seed=13)
_NETWORK = build_network(_CONFIG)
_ORACLE = make_oracle(_NETWORK, _CONFIG)


def _instance(objective, num_workers=10, num_requests=50, deadline_seconds=600.0):
    workers = generate_workers(_NETWORK, WorkerGeneratorConfig(count=num_workers, seed=3))
    requests = generate_requests(
        _NETWORK,
        _ORACLE,
        objective,
        RequestGeneratorConfig(count=num_requests, deadline_seconds=deadline_seconds, seed=4),
    )
    return URPSMInstance(
        network=_NETWORK,
        oracle=_ORACLE,
        workers=workers,
        requests=requests,
        objective=objective,
        name="reduction-test",
    )


def _run(instance):
    dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=1000.0))
    return MatchingService(instance, dispatcher).replay()


class TestMaxServedRequests:
    def test_unified_cost_equals_unserved_count(self):
        objective = max_served_requests_objective()
        result = _run(_instance(objective))
        assert result.unified_cost == pytest.approx(result.rejected_requests)

    def test_no_decision_rejections_with_alpha_zero(self):
        objective = max_served_requests_objective()
        result = _run(_instance(objective))
        assert result.decision_rejections == 0


class TestMinTotalDistance:
    def test_infinite_penalty_forces_service_of_feasible_requests(self):
        objective = min_total_distance_objective()
        result = _run(_instance(objective, num_workers=14, deadline_seconds=1200.0))
        # the decision phase can never reject (penalty inf); rejections can only
        # come from physical infeasibility
        assert result.decision_rejections == 0
        if result.rejected_requests == 0:
            assert math.isfinite(result.unified_cost)
            assert result.unified_cost == pytest.approx(result.total_travel_cost)

    def test_unified_cost_is_travel_cost_when_all_served(self):
        objective = min_total_distance_objective()
        result = _run(_instance(objective, num_workers=20, num_requests=25,
                                deadline_seconds=1800.0))
        if result.rejected_requests == 0:
            assert result.unified_cost == pytest.approx(result.total_travel_cost)


class TestMaxRevenue:
    def test_revenue_identity_holds_end_to_end(self):
        """Eq. (4): revenue = c_r * sum_direct - UC for every executed plan."""
        worker_cost, fare = 1.0, 12.0
        objective = max_revenue_objective(worker_cost, fare)
        instance = _instance(objective)
        result = _run(instance)

        direct = {
            request.id: _ORACLE.distance(request.origin, request.destination)
            for request in instance.requests
        }
        total_direct = sum(direct.values())
        served_ids = set(direct) - {r.id for r in _rejected_requests(instance, result)}
        revenue = platform_revenue(
            result.total_travel_cost,
            [direct[request_id] for request_id in served_ids],
            worker_cost,
            fare,
        )
        assert revenue == pytest.approx(fare * total_direct - result.unified_cost, rel=1e-6)


def _rejected_requests(instance, result):
    """Reconstruct the rejected set from the penalty total (ids are not stored)."""
    # The metrics expose counts, not identities; re-run the accounting by
    # matching total penalty: rejected requests have penalty = fare * direct.
    # For the identity test we only need the *served* direct distances, so we
    # re-simulate cheaply to collect outcomes.
    service = MatchingService(instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=1000.0)))
    service.replay()
    return service.metrics.rejected_requests
