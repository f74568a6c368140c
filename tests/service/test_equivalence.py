"""Service-vs-batch equivalence: the acceptance bar of the online facade.

Replaying the standard scenario through :class:`MatchingService` (incremental
submit/drain) must reproduce the direct engine drive
(:meth:`~repro.simulation.engine.EventEngine.run` — the batch-seeded event
heap) **bit for bit** on served rate, unified cost, distance queries and
Dijkstra runs, and the decisions and costs of the seed's request loop
(``tests/simulation/seed_loop.py``), for every registry dispatcher and a
sharded variant.
"""

import pytest

from repro.dispatch import ALGORITHMS, DispatcherConfig, make_dispatcher
from repro.service import MatchingService
from repro.simulation.engine import EventEngine
from repro.workloads.scenarios import ScenarioConfig, build_instance
from tests.simulation.seed_loop import run_seed_loop

#: the repo's standard equivalence scenario (mirrors tests/sharding).
_STANDARD = ScenarioConfig(city="small-grid", num_workers=14, num_requests=80, seed=2018)

#: every registry dispatcher plus one sharded variant at K=4.
_VARIANTS = sorted(ALGORITHMS) + ["sharded:pruneGreedyDP"]


def _dispatcher(name: str):
    return make_dispatcher(
        name,
        DispatcherConfig(
            grid_cell_metres=_STANDARD.grid_km * 1000.0,
            num_shards=4 if name.startswith("sharded:") else 1,
        ),
    )


def _fingerprint(result, instance):
    return {
        "total": result.total_requests,
        "served": result.served_requests,
        "rejected": result.rejected_requests,
        "served_rate": result.served_rate,
        "unified_cost": result.unified_cost,
        "travel_cost": result.total_travel_cost,
        "penalty": result.total_penalty,
        "distance_queries": result.distance_queries,
        "lower_bound_queries": result.lower_bound_queries,
        "candidates": result.candidates_considered,
        "insertions": result.insertions_evaluated,
        "dijkstra_runs": instance.oracle.counters.dijkstra_runs,
        "mean_wait": result.mean_wait_seconds,
        "mean_detour": result.mean_detour_ratio,
    }


def _outcomes(result):
    return (
        result.total_requests,
        result.served_requests,
        result.rejected_requests,
        result.unified_cost,
        result.total_travel_cost,
        result.total_penalty,
    )


@pytest.mark.parametrize("algorithm", _VARIANTS)
def test_service_replay_matches_direct_engine_drive(algorithm):
    direct_instance = build_instance(_STANDARD)
    direct = EventEngine(direct_instance, _dispatcher(algorithm)).run()

    service_instance = build_instance(_STANDARD)
    service = MatchingService(service_instance, _dispatcher(algorithm))
    replayed = service.replay()

    assert _fingerprint(replayed, service_instance) == _fingerprint(direct, direct_instance)


@pytest.mark.parametrize("algorithm", _VARIANTS)
def test_service_replay_matches_the_seed_loop(algorithm):
    """The seed loop walks every worker at every release, so oracle counters
    (batch flushes query from exact positions) and the summation order of
    completion means may differ — the decisions and their cost may not."""
    seed = run_seed_loop(build_instance(_STANDARD), _dispatcher(algorithm))
    replayed = MatchingService(build_instance(_STANDARD), _dispatcher(algorithm)).replay()
    assert _outcomes(replayed) == _outcomes(seed)


@pytest.mark.parametrize("backend", ["dijkstra", "apsp", "ch", "hub_labels"])
def test_service_replay_matches_direct_drive_under_every_backend(backend):
    """The oracle backend must never change what the service replays."""
    scenario = _STANDARD.with_overrides(oracle_backend=backend)
    direct_instance = build_instance(scenario)
    direct = EventEngine(direct_instance, _dispatcher("pruneGreedyDP")).run()

    service_instance = build_instance(scenario)
    service = MatchingService(service_instance, _dispatcher("pruneGreedyDP"))
    replayed = service.replay()

    assert service_instance.oracle.backend_name == backend
    assert _fingerprint(replayed, service_instance) == _fingerprint(direct, direct_instance)


def test_decision_stream_is_consistent_with_the_metrics():
    """The typed decision stream agrees with the aggregated result."""
    instance = build_instance(_STANDARD)
    service = MatchingService(instance, _dispatcher("batch"))
    decisions = []
    result = service.replay(on_decision=decisions.append)
    final = [d for d in decisions if not d.deferred]
    assert len(final) == result.total_requests
    assert sum(1 for d in final if d.accepted) == result.served_requests
    assert sum(1 for d in final if not d.accepted) == result.rejected_requests
