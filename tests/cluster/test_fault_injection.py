"""Crashed-worker resilience: kill a shard worker mid-replay.

The front door must detect the dead worker (broken pipe / liveness probe),
keep the shard serving — in-process degraded failover until the replacement
worker is adopted — finish the replay with a complete
:class:`SimulationResult`, and reap every child process, replacement workers
included: no hang, no orphans, no dropped request.
"""

from repro.cluster.recovery import ShardHealth
from repro.dispatch import DispatcherConfig
from repro.cluster.service import ClusterMatchingService
from repro.workloads.scenarios import ScenarioConfig, build_instance

_CONFIG = ScenarioConfig(city="small-grid", num_workers=14, num_requests=80, seed=2018)


def _service(inner: str, **config_overrides) -> ClusterMatchingService:
    config = DispatcherConfig(
        grid_cell_metres=_CONFIG.grid_km * 1000.0, **config_overrides
    )
    return ClusterMatchingService.build(
        build_instance(_CONFIG), inner=inner, num_shards=4, config=config
    )


def _kill_one_mid_replay(service: ClusterMatchingService):
    dispatcher = service.dispatcher
    processes = [handle.link.process for handle in dispatcher._handles]
    requests = service.instance.requests
    half = len(requests) // 2
    for request in requests[:half]:
        service.submit(request)
    victim = next(h for h in dispatcher._handles if h.health == ShardHealth.UP)
    victim.link.kill()
    for request in requests[half:]:
        service.submit(request)
    result = service.drain()
    return result, dispatcher, processes


def test_killed_worker_immediate_dispatch():
    result, dispatcher, processes = _kill_one_mid_replay(_service("pruneGreedyDP"))
    assert result.total_requests == _CONFIG.num_requests
    assert result.served_requests + result.rejected_requests == _CONFIG.num_requests
    assert result.served_requests > 0
    assert dispatcher.worker_failures >= 1
    assert result.extra["cluster_worker_failures"] >= 1.0
    # exactly one failure: the other three shards shut down cleanly at drain
    assert dispatcher.worker_failures == 1
    # the front door respawned the victim and adopted it back
    assert dispatcher.worker_restarts == 1
    assert result.extra["cluster_worker_restarts"] == 1.0
    assert not any(process.is_alive() for process in processes)
    # replacement workers are reaped too — nothing left running anywhere
    assert dispatcher.child_processes() == []


def test_killed_worker_batch_windows_re_deferred():
    result, dispatcher, processes = _kill_one_mid_replay(
        _service("batch", batch_interval=30.0)
    )
    assert result.total_requests == _CONFIG.num_requests
    assert result.served_requests + result.rejected_requests == _CONFIG.num_requests
    assert result.served_requests > 0
    assert dispatcher.worker_failures >= 1
    assert not any(process.is_alive() for process in processes)
    assert dispatcher.child_processes() == []
