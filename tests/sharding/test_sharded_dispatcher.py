"""Behavioural tests of the sharded dispatcher: routing, escalation, counters."""

import numpy as np
import pytest

from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.core.types import Request, Worker
from repro.core.instance import URPSMInstance
from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.exceptions import ConfigurationError
from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle, OracleCounters
from repro.service import MatchingService
from repro.sharding.dispatcher import ShardedDispatcher
from repro.workloads.scenarios import ScenarioConfig, build_instance

_CONFIG = ScenarioConfig(city="small-grid", num_workers=10, num_requests=40, seed=13)


def _run(algorithm: str, shards: int, **dispatcher_overrides):
    dispatcher_config = DispatcherConfig(
        grid_cell_metres=_CONFIG.grid_km * 1000.0, num_shards=shards, **dispatcher_overrides
    )
    return MatchingService(
        build_instance(_CONFIG), make_dispatcher(algorithm, dispatcher_config)
    ).replay()


class TestConstruction:
    def test_registry_prefix_builds_the_wrapper(self):
        dispatcher = make_dispatcher("sharded:GreedyDP", DispatcherConfig(num_shards=4))
        assert isinstance(dispatcher, ShardedDispatcher)
        assert dispatcher.name == "sharded:GreedyDP"
        assert dispatcher.num_shards == 4

    def test_bare_sharded_defaults_to_prune_greedy_dp(self):
        dispatcher = make_dispatcher("sharded")
        assert dispatcher.name == "sharded:pruneGreedyDP"

    def test_unknown_inner_rejected(self):
        with pytest.raises(KeyError):
            make_dispatcher("sharded:magic")

    def test_nested_sharding_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedDispatcher(inner="sharded:pruneGreedyDP")

    def test_non_positive_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedDispatcher(DispatcherConfig(num_shards=0))

    def test_requires_exact_positions_follows_inner(self):
        assert ShardedDispatcher(inner="tshare").requires_exact_positions
        assert not ShardedDispatcher(inner="pruneGreedyDP").requires_exact_positions

    def test_multi_shard_requires_exact_positions(self):
        # shard routing is position-dependent, so lazy (stale) positions
        # would make K>1 results depend on the advancement regime
        assert ShardedDispatcher(DispatcherConfig(num_shards=2), inner="pruneGreedyDP").requires_exact_positions


class TestCountersSurfaced:
    def test_extra_metrics_reach_the_result(self):
        result = _run("sharded:pruneGreedyDP", shards=4)
        # the routing keys, by name: the e2e harness reads them this way
        for key in (
            "sharding_shards",
            "sharding_local_hits",
            "sharding_escalations",
            "sharding_cross_shard_assignments",
            "sharding_cross_shard_moves",
            "sharding_global_fallbacks",
            "sharding_rejections",
            "sharding_boundary_vertices",
            "sharding_distance_queries",
        ):
            assert key in result.extra
        assert result.extra["sharding_shards"] == 4.0
        handled = (
            result.extra["sharding_local_hits"]
            + result.extra["sharding_cross_shard_assignments"]
            + result.extra["sharding_rejections"]
        )
        assert handled == result.total_requests

    def test_rows_and_tables_show_sharding_columns(self):
        from repro.experiments.reporting import format_results

        result = _run("sharded:pruneGreedyDP", shards=2)
        row = result.as_row()
        assert "sharding_local_hits" in row
        table = format_results([result])
        assert "sharding_local_hits" in table

    def test_per_shard_counters_aggregate_not_overwrite(self):
        """Satellite fix: per-shard oracle totals are merged, not last-wins."""
        result = _run("sharded:pruneGreedyDP", shards=4)
        per_shard = [
            result.extra[f"sharding_shard{shard}_distance_queries"] for shard in range(4)
        ]
        assert result.extra["sharding_distance_queries"] == sum(per_shard)
        # at least two shards did work, so a last-wins bug cannot produce the sum
        assert sum(1 for value in per_shard if value > 0) >= 2
        assert result.extra["sharding_distance_queries"] > max(per_shard)

    def test_shard_totals_bounded_by_global_counters(self):
        result = _run("sharded:pruneGreedyDP", shards=4)
        # the engine issues extra completion-recording queries outside the
        # dispatcher, so the dispatcher-attributed total is a lower bound
        assert result.extra["sharding_distance_queries"] <= result.distance_queries
        assert result.extra["sharding_lower_bound_queries"] == result.lower_bound_queries


class TestShardOracleBackends:
    """A shard has no backend of its own: it queries the instance's oracle."""

    def test_shared_mode_attaches_no_shard_oracles(self):
        result = _run("sharded:pruneGreedyDP", shards=2)
        assert not any(
            key.endswith("_oracle_backend") for key in result.extra
        )

    def test_shards_share_one_oracle_build_per_backend(self):
        for backend in ("apsp", "ch"):
            instance = build_instance(_CONFIG.with_overrides(oracle_backend=backend))
            dispatcher = make_dispatcher(
                "sharded:pruneGreedyDP",
                DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0, num_shards=4),
            )
            MatchingService(instance, dispatcher).replay()
            # four shards, one build — the instance's — not four
            assert instance.oracle.backend_name == backend
            oracles = {id(shard.dispatcher.oracle) for shard in dispatcher._shards}
            assert oracles == {id(instance.oracle)}

    def test_auto_mode_respects_the_apsp_size_limit(self):
        # auto sizes the one backend by the network the index is built on
        # (the full city), not by a shard's slice of it
        from repro.network.backends import APSP_VERTEX_LIMIT, select_backend_name

        assert select_backend_name(APSP_VERTEX_LIMIT + 1) != "apsp"
        instance = build_instance(_CONFIG)
        assert _CONFIG.oracle_backend == "auto"
        dispatcher = make_dispatcher(
            "sharded:pruneGreedyDP",
            DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0, num_shards=4),
        )
        MatchingService(instance, dispatcher).replay()
        expected = select_backend_name(instance.network.num_vertices)
        for shard in dispatcher._shards:
            assert shard.dispatcher.oracle.backend_name == expected

    def test_unknown_shard_oracle_backend_rejected(self):
        from repro.dispatch.registry import DispatcherSpec

        # the key is gone, so every value of it — unknown or not — is refused
        for name in ("bogus", "apsp"):
            with pytest.raises(ConfigurationError, match="shard_oracle_backend"):
                DispatcherSpec.from_dict(
                    {"algorithm": "pruneGreedyDP", "num_shards": 2,
                     "shard_oracle_backend": name}
                )
        with pytest.raises(TypeError):
            DispatcherConfig(num_shards=2, shard_oracle_backend="bogus")


class TestOneOracle:
    def test_every_shard_queries_the_instance_oracle(self):
        instance = build_instance(_CONFIG)
        dispatcher = make_dispatcher(
            "sharded:pruneGreedyDP",
            DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0, num_shards=4),
        )
        result = MatchingService(instance, dispatcher).replay()
        for shard in dispatcher._shards:
            assert shard.dispatcher.oracle is instance.oracle
        # one oracle, so the run's headline counters are the instance's own
        assert result.distance_queries == instance.oracle.counters.distance_queries

    def test_live_update_repairs_the_shared_table_exactly(self):
        from repro.network.backends import APSPBackend

        instance = build_instance(_CONFIG)
        dispatcher = make_dispatcher(
            "sharded:pruneGreedyDP",
            DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0, num_shards=2),
        )
        service = MatchingService(instance, dispatcher)
        for request in instance.requests[:20]:
            service.submit(request)
        table = instance.oracle.backend
        assert isinstance(table, APSPBackend)
        edge = next(iter(instance.network.edges()))
        removed = service.close_edge(edge.u, edge.v)
        for reopen in (False, True):
            if reopen:
                service.reopen_edge(removed)
            assert np.array_equal(table.matrix, APSPBackend(instance.network).matrix)
            assert table._csr is instance.network.csr
        # the one table every shard reads was repaired, never rebuilt
        assert instance.oracle.backend is table
        assert (table.repairs, table.full_rebuilds) == (2, 0)
        for request in instance.requests[20:]:
            service.submit(request)
        assert service.drain().total_requests == len(instance.requests)


class TestOracleCountersMerge:
    def test_merge_sums_every_field(self):
        first = OracleCounters(distance_queries=3, path_queries=1, lower_bound_queries=7, dijkstra_runs=2)
        second = OracleCounters(distance_queries=5, path_queries=4, lower_bound_queries=1, dijkstra_runs=0)
        merged = OracleCounters.merge([first, second])
        assert merged.distance_queries == 8
        assert merged.path_queries == 5
        assert merged.lower_bound_queries == 8
        assert merged.dijkstra_runs == 2

    def test_merge_of_nothing_is_zero(self):
        merged = OracleCounters.merge([])
        assert merged.distance_queries == 0


class TestEscalation:
    def _corner_instance(self):
        """All workers in the south-west corner; requests from the north-east."""
        network = grid_city(rows=8, columns=8, block_metres=300.0, seed=5,
                            removed_block_fraction=0.0)
        oracle = DistanceOracle(network, backend="apsp")
        csr = network.csr
        order = np.lexsort((csr.ys, csr.xs))
        south_west = [int(csr.vertex_ids[i]) for i in order[:4]]
        north_east = [int(csr.vertex_ids[i]) for i in order[-6:]]
        workers = [Worker(id=i, initial_location=v, capacity=4)
                   for i, v in enumerate(south_west)]
        objective = ObjectiveConfig(alpha=1.0, penalty_policy=PenaltyPolicy.FIXED,
                                    penalty_value=1e9)
        requests = []
        for i, origin in enumerate(north_east[:-1]):
            destination = north_east[-1] if north_east[-1] != origin else north_east[0]
            # spaced far enough apart that workers visibly travel (and cross
            # shard borders) between consecutive dispatches
            requests.append(Request(
                id=i, origin=origin, destination=destination,
                release_time=i * 600.0, deadline=i * 600.0 + 7200.0,
                penalty=1e9, capacity=1,
            ))
        return URPSMInstance(network=network, oracle=oracle, workers=workers,
                             requests=requests, objective=objective,
                             name="corner")

    def test_requests_escalate_to_the_workers_shard(self):
        instance = self._corner_instance()
        dispatcher = make_dispatcher(
            "sharded:pruneGreedyDP",
            DispatcherConfig(grid_cell_metres=1000.0, num_shards=4),
        )
        result = MatchingService(instance, dispatcher).replay()
        # the first requests' origin shard holds no workers, so they can only
        # be served by escalating into the workers' corner (later requests
        # may become local hits once workers have migrated north-east)
        assert result.served_requests == result.total_requests
        assert result.extra["sharding_escalations"] > 0
        assert result.extra["sharding_cross_shard_assignments"] > 0
        assert (
            result.extra["sharding_local_hits"]
            + result.extra["sharding_cross_shard_assignments"]
            == result.served_requests
        )

    def test_workers_rebucket_when_crossing_borders(self):
        instance = self._corner_instance()
        dispatcher = make_dispatcher(
            "sharded:pruneGreedyDP",
            DispatcherConfig(grid_cell_metres=1000.0, num_shards=4),
        )
        result = MatchingService(instance, dispatcher).replay()
        # serving the far corner forces workers across shard borders
        assert result.extra["sharding_cross_shard_moves"] > 0
        # membership stayed consistent: every worker is in exactly one view
        members = [shard.view.members for shard in dispatcher._shards]
        all_ids = sorted(worker_id for shard in members for worker_id in shard)
        assert all_ids == sorted(state.worker.id for state in dispatcher.fleet)
        for worker_id in all_ids:
            assert sum(worker_id in shard for shard in members) == 1


class TestBatchProtocol:
    def test_batch_inner_runs_and_resolves_everything(self):
        result = _run("sharded:batch", shards=4)
        assert result.total_requests == _CONFIG.num_requests
        assert result.served_requests + result.rejected_requests == result.total_requests

    def test_batch_inner_with_dynamics(self):
        config = _CONFIG.with_overrides(cancellation_rate=0.2, shift_hours=2.0)
        dispatcher_config = DispatcherConfig(
            grid_cell_metres=config.grid_km * 1000.0, num_shards=4
        )
        result = MatchingService(
            build_instance(config), make_dispatcher("sharded:batch", dispatcher_config)
        ).replay()
        assert result.total_requests == config.num_requests

    def test_memory_estimate_sums_shard_grids(self):
        dispatcher = make_dispatcher(
            "sharded:pruneGreedyDP",
            DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0, num_shards=4),
        )
        MatchingService(build_instance(_CONFIG), dispatcher).replay()
        total = sum(
            shard.dispatcher.memory_estimate_bytes() for shard in dispatcher._shards
        )
        assert dispatcher.memory_estimate_bytes() == total > 0


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["grid", "kd"])
    def test_both_strategies_run_end_to_end(self, strategy):
        result = _run("sharded:pruneGreedyDP", shards=4, shard_strategy=strategy)
        assert result.total_requests == _CONFIG.num_requests
        assert result.served_rate > 0.5
