"""pruneGreedyDP decides exactly what GreedyDP decides (Algorithm 5, Lemma 8).

Lemma 8 only skips a candidate whose lower bound exceeds the best increased
cost found so far, and both planners take the smallest ``(delta, worker id)``,
so on every instance the two serve the same requests with the same workers at
the same times: pruneGreedyDP merely evaluates fewer insertions. Every time
is on the 2⁻¹⁰ s grid (``repro.core.timegrid``), so "the same" is ``==``.

GreedyDP's winner is the first minimum over candidate rows, which is the
smallest worker id only because candidate rows ascend by worker id; the last
test holds that after a worker joins between existing ids.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.instance import URPSMInstance
from repro.core.types import Worker
from repro.dispatch import DispatcherConfig, GreedyDP
from repro.dispatch.registry import DispatcherSpec
from repro.scenarios.runner import run_program
from repro.scenarios.stress import generate_stress_scenario
from repro.service import MatchingService
from repro.service.spec import PlatformSpec
from repro.workloads.scenarios import ScenarioConfig
from tests.conftest import make_request, make_worker


def _run(config: ScenarioConfig, program, name: str):
    spec = PlatformSpec(scenario=config, dispatcher=DispatcherSpec.parse(name))
    outcome = run_program(spec, program)
    services = sorted(
        (record.request.id, record.worker_id, record.pickup_time, record.dropoff_time)
        for record in outcome.completions
    )
    return services, outcome.result


def _assert_prune_equals_greedy(config: ScenarioConfig, program=None):
    greedy, greedy_result = _run(config, program, "GreedyDP")
    pruned, pruned_result = _run(config, program, "pruneGreedyDP")
    assert pruned == greedy  # per request: worker, pickup time, drop-off time
    assert pruned_result.unified_cost == greedy_result.unified_cost
    assert pruned_result.served_requests == greedy_result.served_requests
    assert pruned_result.insertions_evaluated <= greedy_result.insertions_evaluated
    return greedy_result


@pytest.mark.parametrize("index", [0, 2, 5, 7, 13, 16])
def test_stress_programs(index):
    _assert_prune_equals_greedy(*generate_stress_scenario(2018, index))


@pytest.mark.parametrize("city", ["chengdu-like", "nyc-like"])
@pytest.mark.parametrize("num_workers", [20, 60])
def test_generated_cities(city, num_workers):
    config = ScenarioConfig(
        city=city, num_workers=num_workers, num_requests=300, horizon_hours=0.5, seed=2018
    )
    result = _assert_prune_equals_greedy(config)
    assert result.served_requests > 50  # the runs were not trivially empty


@given(index=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_any_stress_program(index):
    _assert_prune_equals_greedy(*generate_stress_scenario(2018, index))


def test_candidate_rows_ascend_by_worker_id_after_a_worker_joins(city_network, city_oracle):
    """Worker 5 joins between ids 4 and 6 of the fleet: its table row sits
    between theirs, so every candidate set still ascends by id — through the
    grid and through the fall-back to the whole fleet."""
    vertices = sorted(city_network.vertices())
    workers = [make_worker(worker_id, vertices[7 * worker_id]) for worker_id in (0, 4, 6, 9)]
    request = make_request(0, vertices[3], vertices[20], deadline=5000.0)
    instance = URPSMInstance(city_network, city_oracle, workers, [request])
    service = MatchingService(instance, GreedyDP(DispatcherConfig(grid_cell_metres=500.0)))
    service.add_worker(Worker(id=5, initial_location=vertices[0]))
    dispatcher = service.dispatcher
    dispatcher.sync_grid()
    assert dispatcher.fleet.table.ids.tolist() == [0, 4, 5, 6, 9]
    assert dispatcher.candidate_worker_ids(request, now=0.0) == [0, 4, 5, 6, 9]
    # a grid that answers nothing: the fleet-order fall-back is sorted too
    dispatcher.grid.members_near_vertex = lambda vertex, radius: np.empty(0, dtype=np.int64)
    assert dispatcher.candidate_worker_ids(request, now=0.0) == [0, 4, 5, 6, 9]
