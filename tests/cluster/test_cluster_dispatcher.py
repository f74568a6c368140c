"""Behaviour of the cluster front door: construction, lifecycle, backpressure."""

import pytest

from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.service import ClusterMatchingService
from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.exceptions import ConfigurationError
from repro.service import DecisionStatus, RejectionReason
from repro.workloads.scenarios import ScenarioConfig, build_instance

_CONFIG = ScenarioConfig(city="small-grid", num_workers=10, num_requests=40, seed=13)


def _cluster_service(**kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("config", DispatcherConfig(grid_cell_metres=_CONFIG.grid_km * 1000.0))
    return ClusterMatchingService.build(build_instance(_CONFIG), **kwargs)


class TestConstruction:
    def test_registry_prefix_builds_the_front_door(self):
        dispatcher = make_dispatcher("cluster:GreedyDP", DispatcherConfig(num_shards=4))
        assert isinstance(dispatcher, ClusterDispatcher)
        assert dispatcher.name == "cluster:GreedyDP"
        assert dispatcher.num_shards == 4

    def test_bare_cluster_defaults_to_prune_greedy_dp(self):
        dispatcher = make_dispatcher("cluster")
        assert dispatcher.name == "cluster:pruneGreedyDP"

    def test_unknown_inner_rejected(self):
        with pytest.raises(KeyError):
            make_dispatcher("cluster:magic")

    def test_nested_wrappers_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(inner="sharded:pruneGreedyDP")
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(inner="cluster:batch")

    def test_non_positive_shards_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterDispatcher(DispatcherConfig(num_shards=0))

    def test_always_requires_exact_positions(self):
        # replica determinism needs the authoritative fleet materialised at
        # every decision point, matching the sharded dispatcher at K > 1
        assert ClusterDispatcher(inner="pruneGreedyDP").requires_exact_positions


class TestLifecycle:
    def test_workers_spawn_and_context_manager_reaps_them(self):
        service = _cluster_service()
        dispatcher = service.dispatcher
        processes = [handle.link.process for handle in dispatcher._handles]
        assert len(processes) == 2
        assert all(process.is_alive() for process in processes)
        with service:
            pass
        assert not any(process.is_alive() for process in processes)

    def test_close_is_idempotent(self):
        service = _cluster_service()
        service.close()
        service.close()
        assert not any(h.link.alive() for h in service.dispatcher._handles)

    def test_drain_returns_result_and_leaves_no_orphans(self):
        service = _cluster_service()
        for request in service.instance.requests[:10]:
            service.submit(request)
        result = service.drain()
        assert result.total_requests == 10
        assert not any(h.link.alive() for h in service.dispatcher._handles)

    def test_extra_metrics_surface_cluster_counters(self):
        service = _cluster_service()
        result = service.replay()
        for key in (
            "cluster_shards",
            "cluster_local_hits",
            "cluster_escalations",
            "cluster_cross_shard_moves",
            "cluster_commands_sent",
            "cluster_worker_failures",
        ):
            assert key in result.extra
        assert result.extra["cluster_shards"] == 2.0
        assert result.extra["cluster_worker_failures"] == 0.0


class TestBackpressure:
    def test_saturated_window_admission_rejects(self):
        service = _cluster_service(
            inner="batch",
            num_shards=1,
            max_pending=2,
            config=DispatcherConfig(
                grid_cell_metres=_CONFIG.grid_km * 1000.0, batch_interval=1e6
            ),
        )
        with service:
            decisions = [service.submit(r) for r in service.instance.requests[:4]]
            assert [d.status for d in decisions[:2]] == [DecisionStatus.DEFERRED] * 2
            for decision in decisions[2:]:
                assert decision.status is DecisionStatus.REJECTED
                assert decision.reason is RejectionReason.SATURATED
            assert service.snapshot().queue_depth == 2
            assert service.dispatcher.admission_rejections == 2

    def test_unsaturated_window_reports_queue_depth(self):
        service = _cluster_service(
            inner="batch",
            config=DispatcherConfig(
                grid_cell_metres=_CONFIG.grid_km * 1000.0, batch_interval=1e6
            ),
        )
        with service:
            for request in service.instance.requests[:3]:
                service.submit(request)
            snapshot = service.snapshot()
            assert snapshot.queue_depth == 3
            assert snapshot.decisions_pending == 3
