"""The array-native decision phase must be behaviourally invisible.

End-to-end equivalence between the vectorized hot path (batched lower
bounds over the route table, argsorted Lemma 8 scan, read-ahead linear DP)
and the scalar walks it replaced, kept here as references: the per-candidate
scalar bound over ``Route`` objects sorted in Python, and the lazily querying
linear DP. Identical served requests, unified cost and exact-query counters
on full simulations, for both GreedyDP (no pruning) and pruneGreedyDP
(pre-ordered pruning). The fleet's due window is held to the seed loop's full
walk on the same scenario.
"""

import numpy as np
import pytest

from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.insertion.lower_bound import euclidean_insertion_lower_bound
from repro.core.route import Route
from repro.dispatch import DispatcherConfig, GreedyDP, PruneGreedyDP
from repro.simulation.engine import EventEngine
from repro.workloads.scenarios import (
    ScenarioConfig,
    build_instance,
    build_network,
    make_oracle,
)
from tests.core.test_linear_dp_walk import LazyLinearDP
from tests.simulation.seed_loop import run_seed_loop

_CONFIG = ScenarioConfig(
    city="small-grid", num_workers=20, num_requests=120, seed=2018
)
_NETWORK = build_network(_CONFIG)


def _scalar_decision_bounds(self, request, candidate_rows, direct):
    """The decision phase as a per-candidate walk: materialise each candidate,
    take its scalar bound from the ``Route`` object, keep the finite ones and,
    under Lemma 8, sort them (stable) in Python."""
    table = self.fleet.table
    lower_bounds = []
    for row in candidate_rows.tolist():
        state = self.fleet.state_of(table.ids.item(row))
        bound = euclidean_insertion_lower_bound(state.route, request, self.oracle, direct)
        if bound < float("inf"):
            lower_bounds.append((bound, row))
    if self.use_pruning:
        lower_bounds.sort(key=lambda item: item[0])
    return (
        np.asarray([bound for bound, _ in lower_bounds], dtype=np.float64),
        np.asarray([row for _, row in lower_bounds], dtype=np.int64),
    )


def _scalar(dispatcher_class):
    """``dispatcher_class`` with the scalar decision walk of the reference."""
    return type(
        f"Scalar{dispatcher_class.__name__}", (dispatcher_class,),
        {"_decision_bounds": _scalar_decision_bounds},
    )


def _run(dispatcher_class, vectorized: bool, seed_loop: bool = False):
    oracle = make_oracle(_NETWORK, _CONFIG)
    instance = build_instance(_CONFIG, network=_NETWORK, oracle=oracle)
    dispatcher = (dispatcher_class if vectorized else _scalar(dispatcher_class))(
        DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0),
        insertion=LinearDPInsertion() if vectorized else LazyLinearDP(),
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
        dispatcher = _scalar(PruneGreedyDP)(
            DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0),
            insertion=LazyLinearDP(),
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
