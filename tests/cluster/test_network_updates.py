"""Fault-tolerant live network updates on the cluster serving path.

The properties gated here:

* a timed close→reopen plan broadcast through
  :meth:`MatchingService.apply_network_update` reaches every shard worker —
  each replica rebuilds and acknowledges under the update barrier;
* the replay is deterministic and, under kills anchored **before**,
  **during**, or **after** an update window, bit-identical to the fault-free
  run with the same plan — recovery rebuilds replicas from the authoritative
  fleet plus the cumulative mutation journal;
* a respawn scheduled *before* an update but adopted *after* it replays the
  missed mutation from the journal (``update_replayed``) instead of serving
  a stale map;
* a shard serving degraded (restart budget exhausted) keeps following
  updates through the authoritative network it shares with the front door;
* the replica ordinal cursor is exactly-once: a duplicated update command is
  refused, never silently re-applied;
* update telemetry flows end to end (dispatcher counters → snapshot →
  ``SimulationResult.extra``);
* a replica brings its APSP table up to date by in-place repair, and the
  repaired table equals a fresh build of the topology whose hash it echoes.
"""

import pickle

import numpy as np
import pytest

from repro.artifacts import network_content_hash
from repro.cluster.messages import (
    AckReply,
    NetworkUpdate,
    NetworkUpdateCommand,
    ShardInit,
    UpdateReply,
)
from repro.cluster.recovery import ShardHealth
from repro.cluster.service import ClusterMatchingService
from repro.cluster.worker import ShardWorkerRuntime
from repro.dispatch import DispatcherConfig
from repro.network.backends import APSPBackend
from repro.sharding.partitioner import SpatialPartitioner
from repro.workloads.scenarios import build_instance

from tests.cluster.chaos import (
    DEFAULT_SCENARIO,
    DEFAULT_SHARDS,
    RUN_KWARGS,
    Fault,
    closure_plan,
    run_chaos,
)


@pytest.fixture(scope="module")
def plan():
    # derived from a throwaway instance: closure_plan only reads edge
    # metadata and release times, so the runs can build fresh instances
    return closure_plan(build_instance(DEFAULT_SCENARIO))


@pytest.fixture(scope="module")
def baseline(plan):
    """The fault-free run with the update plan — the bit-identity anchor."""
    return run_chaos("pruneGreedyDP", updates=plan)


@pytest.fixture(scope="module")
def batch_baseline(plan):
    """The same anchor for the batch dispatcher."""
    return run_chaos("batch", updates=plan, **RUN_KWARGS["batch"])


def _anchor(request, algorithm):
    """The fault-free run of ``algorithm`` (built only when a test needs it)."""
    return request.getfixturevalue(
        "baseline" if algorithm == "pruneGreedyDP" else "batch_baseline"
    )


def _events(log, name):
    return [entry for entry in log if entry[0] == name]


# ------------------------------------------------------------ broadcast path


@pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
def test_broadcast_reaches_every_shard(request, plan, algorithm):
    baseline = _anchor(request, algorithm)
    assert baseline.network_updates == len(plan) == 2
    assert baseline.replica_rebuilds == (2,) * DEFAULT_SHARDS
    assert baseline.worker_failures == 0
    assert baseline.shard_health == (ShardHealth.UP,) * DEFAULT_SHARDS
    assert baseline.orphans == []
    # one update_sent + one update_ack per shard per update, nothing dropped
    for shard in range(DEFAULT_SHARDS):
        sent = [e for e in _events(baseline.recovery_log, "update_sent") if e[1] == shard]
        acked = [e for e in _events(baseline.recovery_log, "update_ack") if e[1] == shard]
        assert len(sent) == len(plan)
        assert len(acked) == len(plan)


def test_update_run_rerun_is_deterministic(baseline, plan):
    again = run_chaos("pruneGreedyDP", updates=plan)
    assert again.fingerprint == baseline.fingerprint
    assert again.replica_rebuilds == baseline.replica_rebuilds


def test_update_telemetry_flows_to_result_extra(baseline):
    extra = baseline.result.extra
    assert extra["cluster_network_updates"] == 2.0
    assert "cluster_update_ack_retries" in extra
    for shard in range(DEFAULT_SHARDS):
        assert extra[f"cluster_shard{shard}_replica_rebuilds"] == 2.0
    row = baseline.result.as_row()
    assert row["cluster_network_updates"] == 2.0


# ------------------------------------------- kills anchored to update windows


@pytest.mark.parametrize(
    ("algorithm", "window"),
    [
        pytest.param("pruneGreedyDP", "before", id="before"),
        pytest.param("pruneGreedyDP", "during", id="during"),
        pytest.param("pruneGreedyDP", "after", id="after"),
        pytest.param("batch", "before", id="batch-before"),
        pytest.param("batch", "after", id="batch-after"),
    ],
)
def test_kill_in_update_window_bit_identical(request, plan, algorithm, window):
    baseline = _anchor(request, algorithm)
    chaos = run_chaos(
        algorithm,
        [Fault("kill", shard=1, at_update=0, window=window)],
        updates=plan,
        **RUN_KWARGS[algorithm],
    )
    assert chaos.fired == [(f"kill_{window}_update", 1, 0)]
    assert chaos.worker_failures == 1
    assert chaos.worker_restarts == 1
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []


@pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
def test_respawn_replays_missed_update_from_journal(request, plan, algorithm):
    baseline = _anchor(request, algorithm)
    # killed long before the closure; the respawn only becomes ready after
    # the closure landed, so adoption must replay it from the journal
    chaos = run_chaos(
        algorithm,
        [Fault("kill", shard=0, at_command=1)],
        updates=plan,
        restart_delay_s=plan[0].time + 1.0,
        **RUN_KWARGS[algorithm],
    )
    assert chaos.fired == [("kill", 0, 1)]
    assert ("update_replayed", 0) in chaos.recovery_log
    assert chaos.fingerprint == baseline.fingerprint
    # the replayed update counts as a rebuild: totals match the clean run
    assert chaos.replica_rebuilds == baseline.replica_rebuilds
    assert chaos.orphans == []


@pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
def test_degraded_shard_follows_updates(request, plan, algorithm):
    baseline = _anchor(request, algorithm)
    # no restart budget: shard 2 serves degraded through both updates
    chaos = run_chaos(
        algorithm,
        [Fault("kill", shard=2, at_command=1)],
        updates=plan,
        max_restarts=0,
        **RUN_KWARGS[algorithm],
    )
    assert chaos.shard_health[2] == ShardHealth.DEGRADED
    assert ("update_degraded", 2) in chaos.recovery_log
    assert chaos.degraded_dispatches >= 1
    # degraded serving shares the authoritative (already-updated) network:
    # the outcome stays bit-identical to the fault-free run
    assert chaos.fingerprint == baseline.fingerprint
    assert chaos.orphans == []


def test_kill_during_update_batch_windows_bit_identical(batch_baseline, plan):
    base = batch_baseline
    chaos = run_chaos(
        "batch",
        [Fault("kill", shard=0, at_update=1, window="during")],
        batch_interval=30.0,
        updates=plan,
    )
    assert chaos.fired == [("kill_during_update", 0, 1)]
    assert chaos.fingerprint == base.fingerprint
    assert chaos.orphans == []


# ---------------------------------------------------------------- exactly-once


def test_worker_rejects_duplicate_update():
    instance = build_instance(DEFAULT_SCENARIO)
    service = ClusterMatchingService.build(
        instance,
        inner="pruneGreedyDP",
        num_shards=2,
        config=DispatcherConfig(
            grid_cell_metres=DEFAULT_SCENARIO.grid_km * 1000.0
        ),
        seed=DEFAULT_SCENARIO.seed,
    )
    with service:
        for request in instance.requests[:5]:
            service.submit(request)
        edge = next(iter(instance.network.edges()))
        service.close_edge(edge.u, edge.v)
        dispatcher = service.dispatcher
        update = dispatcher._applied_updates[0]
        handle = dispatcher._handles[0]
        # re-send the already-applied update raw over the pipe: the replica
        # ordinal cursor must refuse it rather than mutate twice
        handle.link.send(NetworkUpdateCommand(dispatcher.fleet.clock, update))
        reply = handle.link.recv()
        assert isinstance(reply, AckReply)
        assert reply.error is not None and "out of sync" in reply.error


# ------------------------------------------------------- replica table repair


def test_replica_repairs_shard_local_tables_exactly():
    """A replica replaying an update repairs its shard-local APSP table in place.

    The worker state machine is driven in-process (same code the forked
    worker runs) so the test can read the replica's matrix: after each
    update it must equal a fresh build, and the content hash the replica
    echoes must equal the authoritative network's — the barrier's criterion.
    """
    authoritative = build_instance(DEFAULT_SCENARIO)
    config = DispatcherConfig(grid_cell_metres=DEFAULT_SCENARIO.grid_km * 1000.0)
    partition = SpatialPartitioner(2, "grid").partition(authoritative.network)
    membership = {
        worker.id: partition.shard_of_vertex(worker.initial_location)
        for worker in authoritative.workers
    }
    # the replica owns a pickled copy of the instance, as across the fork
    runtime = ShardWorkerRuntime(pickle.loads(pickle.dumps(ShardInit(
        shard_id=0, inner="pruneGreedyDP", config=config,
        partition=partition, instance=authoritative, membership=membership,
        seed=DEFAULT_SCENARIO.seed,
    ))))
    table = runtime.instance.oracle.backend
    assert isinstance(table, APSPBackend)
    # every query of the replica's inner dispatcher goes to that one table
    assert runtime.inner.oracle is runtime.instance.oracle

    network = authoritative.network
    streets = sorted(network.edges(), key=lambda edge: (edge.u, edge.v))[:2]
    for ordinal, close in enumerate((True, False)):
        network.begin_mutation_capture()
        for edge in streets:
            if close:
                network.remove_edge(edge.u, edge.v)
            else:
                network.add_edge(edge.u, edge.v, length=edge.length,
                                 speed=edge.speed, road_class=edge.road_class)
        update = NetworkUpdate(
            ordinal=ordinal, clock=float(ordinal),
            mutations=network.end_mutation_capture(),
            content_hash=network_content_hash(network),
        )
        reply = runtime.handle_network_update(NetworkUpdateCommand(update.clock, update))
        assert isinstance(reply, UpdateReply)
        assert reply.content_hash == update.content_hash
        assert np.array_equal(table.matrix, APSPBackend(network).matrix)
    assert runtime.instance.oracle.backend is table
    assert (table.repairs, table.full_rebuilds) == (2, 0)
