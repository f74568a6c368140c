"""The array-native decision phase must be behaviourally invisible.

End-to-end equivalence between the vectorized hot path (batched lower
bounds, argsorted Lemma 8 scan, prefetching linear DP) and the scalar walk it
replaces: identical served requests, unified cost and exact-query counters on
full simulations, for both GreedyDP (no pruning) and pruneGreedyDP
(pre-ordered pruning). The fleet's due window is held to the seed loop's full
walk on the same scenario.
"""

import pytest

from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.route import Route
from repro.dispatch import DispatcherConfig, GreedyDP, PruneGreedyDP
from repro.simulation.engine import EventEngine
from repro.workloads.scenarios import (
    ScenarioConfig,
    build_instance,
    build_network,
    make_oracle,
)
from tests.simulation.seed_loop import run_seed_loop

_CONFIG = ScenarioConfig(
    city="small-grid", num_workers=20, num_requests=120, seed=2018
)
_NETWORK = build_network(_CONFIG)


def _run(dispatcher_class, vectorized: bool, seed_loop: bool = False):
    oracle = make_oracle(_NETWORK, _CONFIG)
    instance = build_instance(_CONFIG, network=_NETWORK, oracle=oracle)
    dispatcher = dispatcher_class(
        DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0),
        insertion=LinearDPInsertion(prefetch=vectorized),
        vectorized=vectorized,
    )
    if seed_loop:
        return run_seed_loop(instance, dispatcher), oracle.counters
    return EventEngine(instance, dispatcher).run(), oracle.counters


@pytest.mark.parametrize(
    "dispatcher_class", [GreedyDP, PruneGreedyDP], ids=["GreedyDP", "pruneGreedyDP"]
)
class TestVectorizedEquivalence:
    def test_vectorized_matches_scalar_end_to_end(self, dispatcher_class):
        scalar_result, scalar_counters = _run(dispatcher_class, vectorized=False)
        vector_result, vector_counters = _run(dispatcher_class, vectorized=True)
        assert vector_result.served_requests == scalar_result.served_requests
        assert vector_result.unified_cost == scalar_result.unified_cost
        assert vector_result.total_penalty == scalar_result.total_penalty
        assert vector_result.decision_rejections == scalar_result.decision_rejections
        assert vector_result.insertions_evaluated == scalar_result.insertions_evaluated
        assert vector_counters.distance_queries == scalar_counters.distance_queries
        assert vector_counters.dijkstra_runs == scalar_counters.dijkstra_runs

    def test_fleet_fast_path_is_behaviour_neutral(self, dispatcher_class):
        fast_result, _ = _run(dispatcher_class, vectorized=True)
        walked_result, _ = _run(dispatcher_class, vectorized=True, seed_loop=True)
        assert fast_result.served_requests == walked_result.served_requests
        assert fast_result.unified_cost == walked_result.unified_cost


class TestLegacyReconstruction:
    def test_full_legacy_toggles_match_array_native(self):
        """The benchmark's pre-PR reconstruction agrees on every compared metric."""
        oracle = make_oracle(_NETWORK, _CONFIG)
        oracle.legacy_reference_mode = True
        instance = build_instance(_CONFIG, network=_NETWORK, oracle=oracle)
        dispatcher = PruneGreedyDP(
            DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0),
            insertion=LinearDPInsertion(prefetch=False),
            vectorized=False,
        )
        engine = EventEngine(instance, dispatcher)
        Route.legacy_refresh = True
        try:
            legacy_result = engine.run()
        finally:
            Route.legacy_refresh = False
        legacy_counters = oracle.counters

        vector_result, vector_counters = _run(PruneGreedyDP, vectorized=True)
        assert vector_result.served_requests == legacy_result.served_requests
        assert vector_result.unified_cost == legacy_result.unified_cost
        assert vector_counters.distance_queries == legacy_counters.distance_queries
        assert vector_counters.dijkstra_runs == legacy_counters.dijkstra_runs


class TestCacheStatisticsSurface:
    def test_simulation_result_exposes_cache_statistics(self):
        result, _ = _run(PruneGreedyDP, vectorized=True)
        assert "distance_cache_hit_rate" in result.extra
        assert "path_cache_hits" in result.extra
        row = result.as_row()
        assert "path_cache_hit_rate" in row

    def test_reporting_appends_cache_columns(self):
        from repro.experiments.reporting import format_results

        result, _ = _run(PruneGreedyDP, vectorized=True)
        table = format_results([result])
        assert "distance_cache_hit_rate" in table
