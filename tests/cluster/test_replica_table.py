"""A replica's route table follows the plans the front door ships.

The shard worker state machine is driven in-process (the code a forked worker
runs), so the test can read the replica's fleet: a plan snapshot carries the
worker's shift flag, and the replica's candidate filter reads that flag from
the route table's ``online`` column — which therefore has to be written
through ``FleetState.set_online``, never behind the fleet's back.
"""

import dataclasses
import pickle

from repro.cluster.messages import DispatchCommand, DispatchReply, ShardInit
from repro.cluster.worker import ShardWorkerRuntime, plan_snapshot
from repro.dispatch import DispatcherConfig
from repro.sharding.partitioner import SpatialPartitioner
from repro.workloads.scenarios import ScenarioConfig, build_instance

from tests.simulation.test_route_table import check_table

_SCENARIO = ScenarioConfig(city="small-grid", num_workers=8, num_requests=10, seed=5)


def _single_shard_runtime():
    instance = build_instance(_SCENARIO)
    partition = SpatialPartitioner(1, "grid").partition(instance.network)
    runtime = ShardWorkerRuntime(pickle.loads(pickle.dumps(ShardInit(
        shard_id=0, inner="pruneGreedyDP",
        config=DispatcherConfig(grid_cell_metres=_SCENARIO.grid_km * 1000.0),
        partition=partition, instance=instance,
        membership={worker.id: 0 for worker in instance.workers},
        seed=_SCENARIO.seed,
    ))))
    return runtime, instance


def test_shipped_shift_flag_reaches_the_replica_table():
    runtime, instance = _single_shard_runtime()
    first, second = instance.requests[:2]
    reply = runtime.handle_dispatch(DispatchCommand(first.release_time, first, plans=()))
    assert isinstance(reply, DispatchReply) and reply.outcome.served
    taken = reply.outcome.worker_id
    fleet = runtime.fleet
    row = fleet.table.row_of(taken)

    # the authoritative side sends the worker off shift with its next plan
    off_shift = dataclasses.replace(plan_snapshot(fleet.peek_state(taken)), online=False)
    reply = runtime.handle_dispatch(
        DispatchCommand(second.release_time, second, plans=(off_shift,))
    )
    assert isinstance(reply, DispatchReply)
    assert not fleet.peek_state(taken).online
    assert not fleet.table.online[row]
    assert reply.outcome.candidates_considered == len(instance.workers) - 1
    assert reply.outcome.worker_id != taken
    assert taken not in runtime.inner.candidate_worker_ids(second, second.release_time)
    check_table(fleet)

    # ... and back on shift
    on_shift = dataclasses.replace(plan_snapshot(fleet.peek_state(taken)), online=True)
    runtime._apply_plans((on_shift,))
    assert fleet.table.online[row]
    assert taken in runtime.inner.candidate_worker_ids(second, second.release_time)
    check_table(fleet)
