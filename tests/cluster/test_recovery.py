"""Self-healing cluster: recovery semantics under deterministic chaos.

The properties gated here:

* a worker kill **between batch windows** leaves the replay bit-identical to
  the fault-free run (same seed, K=4) — the degraded executor and the
  rebuilt replica decide exactly what the lost worker would have;
* a kill **mid-round-trip** (command sent, reply never arrives) loses no
  request and decides none twice: authoritative state only mutates when a
  reply is applied, so the degraded re-execution is exactly-once — and
  therefore also bit-identical;
* transient RPC errors are retried with backoff and never kill a worker
  below the retry budget;
* a worker exceeding ``dispatch_timeout`` is marked down only after the
  timeout → retry ladder is exhausted, in that order, without hanging;
* a respawned replica registers every worker added while it was down, the
  ones added after its rebuild payload was pickled included;
* shutdown is clean from any state — mid-recovery included — reaping every
  child process, an unadopted replacement worker included;
* recovery telemetry flows end to end (dispatcher counters → snapshot →
  ``SimulationResult.extra``).
"""

import threading

import pytest

from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.recovery import ShardHealth
from repro.cluster.service import ClusterMatchingService
from repro.core.types import Worker
from repro.dispatch import DispatcherConfig
from repro.sharding.partitioner import SpatialPartitioner
from repro.workloads.scenarios import build_instance

from tests.cluster.chaos import (
    DEFAULT_SCENARIO,
    DEFAULT_SHARDS,
    RUN_KWARGS,
    Fault,
    run_chaos,
    seeded_faults,
)


def _subsequence(log: list[tuple[str, int]], shard: int, events: list[str]) -> bool:
    """Whether ``events`` appear for ``shard`` in order (gaps allowed)."""
    shard_events = [event for event, shard_id in log if shard_id == shard]
    position = 0
    for event in shard_events:
        if position < len(events) and event == events[position]:
            position += 1
    return position == len(events)


#: the recovery-log events that move a shard between health states
_LIFECYCLE = {
    "worker_down", "respawn_scheduled", "respawn_failed", "respawn_adopted",
    "degraded_permanent",
}


def _lifecycle(log: list[tuple[str, int]], shard: int) -> list[str]:
    """``shard``'s health transitions, in log order."""
    return [event for event, shard_id in log if shard_id == shard and event in _LIFECYCLE]


# ------------------------------------------------------- bit-identity gates


def test_kill_between_windows_bit_identical_batch():
    baseline = run_chaos("batch", batch_interval=30.0)
    chaos = run_chaos(
        "batch",
        [Fault("kill", shard=0, at_command=1, phase="before_send")],
        batch_interval=30.0,
    )
    assert chaos.fired, "the kill fault never fired — anchor it to a live ordinal"
    assert chaos.worker_failures == 1
    assert chaos.worker_restarts == 1
    assert chaos.degraded_dispatches > 0
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == [] and baseline.orphans == []


def test_kill_between_commands_bit_identical_immediate():
    baseline = run_chaos("pruneGreedyDP")
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("kill", shard=1, at_command=2, phase="before_send")],
    )
    assert chaos.fired
    assert chaos.worker_failures == 1
    assert chaos.fingerprint == baseline.fingerprint


@pytest.mark.parametrize("algorithm", ["batch", "pruneGreedyDP"])
def test_chaos_rerun_is_deterministic(algorithm):
    faults = seeded_faults(DEFAULT_SCENARIO.seed)
    first = run_chaos(algorithm, faults, **RUN_KWARGS[algorithm])
    second = run_chaos(algorithm, faults, **RUN_KWARGS[algorithm])
    assert first.fingerprint == second.fingerprint
    assert first.fired == second.fired
    assert first.worker_failures == second.worker_failures
    assert first.degraded_dispatches == second.degraded_dispatches


# ------------------------------------------- mid-flight kills lose nothing


def test_kill_mid_flush_no_loss_no_double_decision():
    """Satellite: worker dies after the flush command shipped, before the reply.

    The window it carried — deferrals and worker-held re-deferrals alike —
    must resolve exactly once through the degraded executor: the totals are
    complete and the metrics bit-match the fault-free run (the authoritative
    fleet never saw the lost replica's work).
    """
    baseline = run_chaos("batch", batch_interval=30.0)
    chaos = run_chaos(
        "batch",
        [
            # the delay pins the worker asleep before it can reply, so the
            # after_send kill deterministically wins the race with the reply
            Fault("delay", shard=0, at_command=1, seconds=0.5),
            Fault("kill", shard=0, at_command=1, phase="after_send"),
        ],
        batch_interval=30.0,
    )
    assert ("kill_after_send", 0, 1) in chaos.fired
    assert chaos.worker_failures == 1
    total = DEFAULT_SCENARIO.num_requests
    assert chaos.result.total_requests == total
    assert chaos.result.served_requests + chaos.result.rejected_requests == total
    assert chaos.fingerprint == baseline.fingerprint


def test_kill_mid_dispatch_immediate_exactly_once():
    baseline = run_chaos("pruneGreedyDP")
    chaos = run_chaos(
        "pruneGreedyDP",
        [
            Fault("delay", shard=2, at_command=3, seconds=0.5),
            Fault("kill", shard=2, at_command=3, phase="after_send"),
        ],
    )
    assert ("kill_after_send", 2, 3) in chaos.fired
    assert chaos.worker_failures == 1
    assert chaos.fingerprint == baseline.fingerprint


# -------------------------------------------------------------- retry path


@pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
def test_transient_send_errors_retry_without_killing(algorithm):
    baseline = run_chaos(algorithm, **RUN_KWARGS[algorithm])
    chaos = run_chaos(
        algorithm,
        [Fault("transient_send", shard=0, at_command=1, count=2)],
        retry_attempts=3,
        **RUN_KWARGS[algorithm],
    )
    assert ("transient_send", 0, 1) in chaos.fired
    assert chaos.retries == 2
    assert chaos.worker_failures == 0
    assert chaos.worker_restarts == 0
    assert all(health == ShardHealth.UP for health in chaos.shard_health)
    assert chaos.fingerprint == baseline.fingerprint
    assert [event for event, _ in chaos.recovery_log] == ["retry", "retry"]


def test_transient_recv_errors_retry_without_killing():
    baseline = run_chaos("batch", batch_interval=30.0)
    chaos = run_chaos(
        "batch",
        [Fault("transient_recv", shard=1, at_command=0, count=2)],
        retry_attempts=3,
        batch_interval=30.0,
    )
    assert ("transient_recv", 1, 0) in chaos.fired
    assert chaos.retries >= 2
    assert chaos.worker_failures == 0
    assert chaos.fingerprint == baseline.fingerprint


def test_exhausted_send_retries_mark_worker_down():
    # the fault budget (10) outlasts the retry budget (3); with no respawns
    # allowed the shard goes down once and serves degraded thereafter
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("transient_send", shard=0, at_command=1, count=10)],
        retry_attempts=3,
        max_restarts=0,
    )
    baseline = run_chaos("pruneGreedyDP")
    assert chaos.worker_failures == 1
    assert chaos.retries == 3  # every attempt of the doomed send, then down
    assert _subsequence(chaos.recovery_log, 0, ["retry", "retry", "retry", "worker_down"])
    assert chaos.fingerprint == baseline.fingerprint


def test_persistent_send_fault_burns_restart_budget_then_degrades():
    """A fault that re-fires on the respawn's first send re-kills each
    incarnation; the ladder ends in permanent degraded mode, still
    bit-identical."""
    baseline = run_chaos("pruneGreedyDP")
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("transient_send", shard=0, at_command=1, count=10)],
        retry_attempts=3,
        max_restarts=2,
    )
    assert chaos.worker_failures == 3  # original + both respawns
    assert chaos.worker_restarts == 2
    assert chaos.retries == 9
    assert chaos.shard_health[0] == ShardHealth.DEGRADED
    assert _subsequence(chaos.recovery_log, 0, ["worker_down", "respawn_adopted", "degraded_permanent"])
    assert chaos.fingerprint == baseline.fingerprint


# --------------------------------------------------------- timeout ordering


def test_dispatch_timeout_then_retry_then_mark_down():
    """Satellite: slow worker exceeds the deadline; ordering is visible.

    The recovery log must show timeout → retry → timeout → worker_down for
    the delayed shard, the run must not hang, and the shard must keep
    serving (degraded: respawn budget 0) with bit-identical results — the
    straggler's eventual reply is discarded, never applied.
    """
    baseline = run_chaos("pruneGreedyDP")
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("delay", shard=0, at_command=0, seconds=2.0)],
        dispatch_timeout=0.3,
        retry_attempts=2,
        max_restarts=0,
    )
    assert chaos.worker_failures == 1
    assert chaos.worker_restarts == 0
    assert _subsequence(
        chaos.recovery_log, 0, ["timeout", "retry", "timeout", "worker_down", "degraded_permanent"]
    )
    assert chaos.shard_health[0] == ShardHealth.DEGRADED
    assert chaos.fingerprint == baseline.fingerprint


# ------------------------------------------------------- respawn lifecycle


def test_respawned_worker_is_adopted_and_serves():
    chaos = run_chaos(
        "batch",
        [Fault("kill", shard=0, at_command=0, phase="before_send")],
        batch_interval=30.0,
    )
    events = [event for event, shard in chaos.recovery_log if shard == 0]
    assert "respawn_scheduled" in events
    assert "respawn_adopted" in events
    assert events.index("respawn_scheduled") < events.index("respawn_adopted")
    assert chaos.worker_restarts == 1
    # once adopted, the shard finishes the run process-backed
    assert chaos.shard_health[0] == ShardHealth.UP


@pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
def test_respawned_worker_catches_up_on_added_workers(monkeypatch, algorithm):
    """Workers that joined before the kill reach the rebuilt replica through
    ``ShardInit.extra_workers``; those that joined between the kill and the
    adoption through the adopted handle's queued additions. All three join
    the victim's shard, so a replica missing one fails its next command."""
    instance = build_instance(DEFAULT_SCENARIO)
    partition = SpatialPartitioner(
        DEFAULT_SHARDS, DispatcherConfig().shard_strategy
    ).partition(instance.network)
    home = [v for v in sorted(instance.network.vertices()) if partition.shard_of_vertex(v) == 0]
    joins = {0: home[0], 6: home[len(home) // 2], 9: home[-1]}
    additions = {
        position: Worker(id=100 + offset, initial_location=vertex, capacity=3)
        for offset, (position, vertex) in enumerate(joins.items())
    }
    adopted = []
    adopt = ClusterDispatcher._adopt

    def recording_adopt(dispatcher, handle, slot):
        adopt(dispatcher, handle, slot)
        adopted.append((slot.extra_count, len(handle.additions)))

    monkeypatch.setattr(ClusterDispatcher, "_adopt", recording_adopt)
    baseline = run_chaos(algorithm, additions=additions, **RUN_KWARGS[algorithm])
    # shard 0 dies at its second command (about 1,050 s into the day), after
    # the first join; its respawn is adopted 3,000 s later, after the others
    chaos = run_chaos(
        algorithm,
        [Fault("kill", shard=0, at_command=1)],
        additions=additions,
        restart_delay_s=3000.0,
        **RUN_KWARGS[algorithm],
    )
    assert chaos.fired == [("kill", 0, 1)]
    assert adopted == [(1, 2)]
    assert (chaos.worker_failures, chaos.worker_restarts) == (1, 1)
    assert ("worker_error", 0) not in chaos.recovery_log
    assert chaos.shard_health[0] == ShardHealth.UP
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []


def test_restart_budget_exhausted_serves_degraded_forever():
    baseline = run_chaos("batch", batch_interval=30.0)
    chaos = run_chaos(
        "batch",
        [Fault("kill", shard=0, at_command=1, phase="before_send")],
        batch_interval=30.0,
        max_restarts=0,
    )
    assert chaos.worker_failures == 1
    assert chaos.worker_restarts == 0
    assert _subsequence(chaos.recovery_log, 0, ["worker_down", "degraded_permanent"])
    assert chaos.shard_health[0] == ShardHealth.DEGRADED
    assert chaos.fingerprint == baseline.fingerprint


def test_restart_delay_defers_adoption_in_simulated_time():
    chaos = run_chaos(
        "batch",
        [Fault("kill", shard=0, at_command=1, phase="before_send")],
        batch_interval=30.0,
        restart_delay_s=1e9,  # never due within the scenario horizon
    )
    baseline = run_chaos("batch", batch_interval=30.0)
    assert chaos.worker_failures == 1
    assert chaos.worker_restarts == 0  # scheduled, never adopted
    assert chaos.shard_health[0] == ShardHealth.RECOVERING
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []  # the unadopted respawn was reaped at close


@pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
def test_failed_ready_respawns_again_while_budget_lasts(algorithm):
    """The first replacement dies before its ready ack: the adoption gate
    logs ``respawn_failed``, forks the next one and adopts that."""
    baseline = run_chaos(algorithm, **RUN_KWARGS[algorithm])
    chaos = run_chaos(
        algorithm,
        [Fault("kill", shard=0, at_command=1), Fault("kill_before_ready", shard=0)],
        **RUN_KWARGS[algorithm],
    )
    assert chaos.fired == [("kill", 0, 1), ("kill_before_ready", 0, 1)]
    assert _lifecycle(chaos.recovery_log, 0) == [
        "worker_down", "respawn_scheduled", "respawn_failed", "respawn_scheduled",
        "respawn_adopted",
    ]
    assert (chaos.worker_failures, chaos.worker_restarts) == (1, 1)
    assert chaos.shard_health[0] == ShardHealth.UP
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []


@pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
def test_failed_ready_on_the_last_restart_degrades_for_good(algorithm):
    baseline = run_chaos(algorithm, **RUN_KWARGS[algorithm])
    chaos = run_chaos(
        algorithm,
        [Fault("kill", shard=0, at_command=1), Fault("kill_before_ready", shard=0)],
        max_restarts=1,
        **RUN_KWARGS[algorithm],
    )
    assert chaos.fired == [("kill", 0, 1), ("kill_before_ready", 0, 1)]
    assert _lifecycle(chaos.recovery_log, 0) == [
        "worker_down", "respawn_scheduled", "respawn_failed", "degraded_permanent",
    ]
    assert (chaos.worker_failures, chaos.worker_restarts) == (1, 0)
    assert chaos.shard_health[0] == ShardHealth.DEGRADED
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []


def test_recovery_starts_no_thread(monkeypatch):
    """Kill, respawn, adoption and close all run on the caller's thread."""
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    chaos = run_chaos(
        "batch", [Fault("kill", shard=0, at_command=1)], batch_interval=30.0
    )
    assert _lifecycle(chaos.recovery_log, 0) == [
        "worker_down", "respawn_scheduled", "respawn_adopted",
    ]
    assert chaos.orphans == []
    assert started == []


# ------------------------------------------------- shutdown from any state


def _build_service(inner: str, **kwargs) -> ClusterMatchingService:
    config = DispatcherConfig(grid_cell_metres=DEFAULT_SCENARIO.grid_km * 1000.0)
    return ClusterMatchingService.build(
        build_instance(DEFAULT_SCENARIO),
        inner=inner,
        num_shards=4,
        config=config,
        seed=DEFAULT_SCENARIO.seed,
        **kwargs,
    )


def test_context_manager_shutdown_mid_recovery_reaps_everything():
    """Satellite: ``__exit__`` while a respawn is in flight leaves no orphans."""
    service = _build_service("pruneGreedyDP", restart_delay_s=1e9)
    dispatcher = service.dispatcher
    with service:
        requests = service.instance.requests
        for request in requests[:10]:
            service.submit(request)
        victim = dispatcher._handles[0]
        victim.link.kill()
        for request in requests[10:20]:
            service.submit(request)  # detection -> respawn scheduled, never due
        assert dispatcher.worker_failures == 1
        assert victim.health == ShardHealth.RECOVERING
    # context exit: every child reaped, the unadopted replacement included
    assert dispatcher.child_processes() == []
    assert not any(handle.link.alive() for handle in dispatcher._handles)


def test_close_is_idempotent_after_recovery():
    chaos = run_chaos(
        "pruneGreedyDP",
        [Fault("kill", shard=0, at_command=1, phase="before_send")],
    )
    assert chaos.orphans == []


# ------------------------------------------------------ telemetry plumbing


def test_snapshot_exposes_recovery_telemetry():
    service = _build_service("pruneGreedyDP")
    dispatcher = service.dispatcher
    with service:
        requests = service.instance.requests
        for request in requests[:5]:
            service.submit(request)
        snapshot = service.snapshot()
        assert snapshot.worker_failures == 0
        assert snapshot.shard_health == ("up", "up", "up", "up")
        victim = dispatcher._handles[0]
        victim.link.kill()
        for request in requests[5:15]:
            service.submit(request)
        snapshot = service.snapshot()
        assert snapshot.worker_failures == 1
        assert snapshot.shard_health[0] in (ShardHealth.RECOVERING, ShardHealth.UP)
        assert snapshot.worker_restarts + (
            1 if snapshot.shard_health[0] == ShardHealth.RECOVERING else 0
        ) >= 1


def test_result_extra_metrics_carry_recovery_counters():
    chaos = run_chaos(
        "batch",
        [Fault("kill", shard=0, at_command=1, phase="before_send")],
        batch_interval=30.0,
    )
    extra = chaos.result.extra
    assert extra["cluster_worker_failures"] == 1.0
    assert extra["cluster_worker_restarts"] == 1.0
    assert extra["cluster_degraded_dispatches"] >= 1.0
    assert "cluster_retries" in extra
    assert extra["cluster_shard0_health"] == 2.0  # adopted back: up
    # the routing keys, by name: the e2e harness reads them this way
    for key in (
        "cluster_shards",
        "cluster_local_hits",
        "cluster_escalations",
        "cluster_cross_shard_assignments",
        "cluster_cross_shard_moves",
        "cluster_global_fallbacks",
        "cluster_rejections",
        "cluster_boundary_vertices",
    ):
        assert key in extra
    # every request is decided in its home shard or after escalating
    assert (
        extra["cluster_local_hits"] + extra["cluster_cross_shard_assignments"]
        + extra["cluster_rejections"]
    ) == chaos.result.total_requests
    row = chaos.result.as_row()
    assert row["cluster_worker_failures"] == 1.0
    assert row["cluster_worker_restarts"] == 1.0


def test_shard_oracle_warm_starts_from_artifact_store_after_refresh(tmp_path):
    """The oracle a shard queries refreshes from the store the front door saved to.

    The replica owns a pickled copy of the instance, oracle and artifact
    store root included. On a live update the authoritative oracle refreshes
    (and saves) first; the replica replaying the same mutations must then
    warm-start the new topology instead of rebuilding it.
    """
    import pickle

    from repro.artifacts import network_content_hash
    from repro.cluster.messages import (
        NetworkUpdate,
        NetworkUpdateCommand,
        ShardInit,
        UpdateReply,
    )
    from repro.cluster.worker import ShardWorkerRuntime
    from repro.network.generators import grid_city
    from repro.network.graph import connected_components
    from repro.network.oracle import DistanceOracle
    from repro.sharding.partitioner import SpatialPartitioner

    scenario = DEFAULT_SCENARIO
    network = grid_city(rows=6, columns=6, block_metres=200.0,
                        removed_block_fraction=0.0, seed=7)
    oracle = DistanceOracle(network, backend="ch", artifact_dir=tmp_path)
    instance = build_instance(scenario, network=network, oracle=oracle)
    partition = SpatialPartitioner(2, "grid").partition(network)
    membership = {
        worker.id: partition.shard_of_vertex(worker.initial_location)
        for worker in instance.workers
    }
    runtime = ShardWorkerRuntime(pickle.loads(pickle.dumps(ShardInit(
        shard_id=0, inner="pruneGreedyDP",
        config=DispatcherConfig(grid_cell_metres=scenario.grid_km * 1000.0),
        partition=partition, instance=instance, membership=membership,
        seed=scenario.seed,
    ))))
    replica = runtime.instance.oracle
    assert replica.artifact_store.root == oracle.artifact_store.root

    edge = None
    for candidate in list(network.edges()):
        removed = network.remove_edge(candidate.u, candidate.v)
        safe = connected_components(network).count == 1
        network.add_edge(removed.u, removed.v, length=removed.length,
                         speed=removed.speed, road_class=removed.road_class)
        if safe:
            edge = removed
            break
    assert edge is not None

    def replay(ordinal, mutate):
        network.begin_mutation_capture()
        mutate()
        update = NetworkUpdate(
            ordinal=ordinal, clock=float(ordinal),
            mutations=network.end_mutation_capture(),
            content_hash=network_content_hash(network),
        )
        oracle.refresh_topology()
        reply = runtime.handle_network_update(NetworkUpdateCommand(update.clock, update))
        assert isinstance(reply, UpdateReply) and reply.content_hash == update.content_hash

    replay(0, lambda: network.remove_edge(edge.u, edge.v))
    assert oracle.artifact_loaded is False  # fresh build, now persisted
    assert replica.artifact_loaded is True

    # warm-started answers are bitwise-identical to a cold build
    fresh = DistanceOracle(network, backend="ch")
    vertices = sorted(network.vertices())
    for source in vertices[:4]:
        for target in vertices[-4:]:
            assert replica.distance(source, target) == fresh.distance(source, target)

    # reopen round-trip: both oracles warm-start the original topology
    replay(1, lambda: network.add_edge(edge.u, edge.v, length=edge.length,
                                       speed=edge.speed, road_class=edge.road_class))
    assert oracle.artifact_loaded is True
    assert replica.artifact_loaded is True
