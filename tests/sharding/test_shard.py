"""The in-process shard's membership operations, driven directly.

``Shard.move`` and ``Shard.add`` are the only code that changes which workers
a shard sees — in the sharded dispatcher, in the cluster's failover and in
every worker process. Random move/add sequences on a small city must keep
each shard's view and grid holding exactly ``{w : membership[w] == shard}``.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.types import Worker
from repro.dispatch import DispatcherConfig
from repro.sharding.partitioner import SpatialPartitioner
from repro.sharding.router import Shard, members_of
from repro.simulation.fleet import FleetState
from repro.workloads.scenarios import ScenarioConfig, build_instance

_SHARDS = 3
_SCENARIO = ScenarioConfig(city="small-grid", num_workers=8, num_requests=4, seed=3)
_INSTANCE = build_instance(_SCENARIO)
_VERTICES = sorted(_INSTANCE.network.vertices())
_CONFIG = DispatcherConfig(grid_cell_metres=_SCENARIO.grid_km * 1000.0)

#: ("move", worker draw, shard) or ("add", vertex draw, shard)
_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["move", "add"]),
        st.integers(0, 10_000),
        st.integers(0, _SHARDS - 1),
    ),
    max_size=30,
)


def _shards(fleet: FleetState, membership: dict[int, int]) -> list[Shard]:
    return [
        Shard(shard_id, "pruneGreedyDP", _CONFIG, _INSTANCE, fleet, membership)
        for shard_id in range(_SHARDS)
    ]


def _assert_members(shards: list[Shard], membership: dict[int, int]) -> None:
    for shard in shards:
        expected = members_of(membership, shard.shard_id)
        assert shard.view.members == expected
        assert set(shard.dispatcher.grid.all_members()) == expected


def test_members_are_derived_from_the_membership():
    fleet = FleetState(_INSTANCE.workers, _INSTANCE.oracle)
    partition = SpatialPartitioner(_SHARDS, "grid").partition(_INSTANCE.network)
    membership = {
        worker_id: partition.shard_of_vertex(fleet.peek_state(worker_id).position)
        for worker_id in fleet.states
    }
    shards = _shards(fleet, membership)
    _assert_members(shards, membership)
    assert sum(len(shard.view) for shard in shards) == len(fleet.states)


@given(initial=st.lists(st.integers(0, _SHARDS - 1), min_size=8, max_size=8),
       operations=_OPERATIONS)
@settings(max_examples=40, deadline=None, suppress_health_check=list(HealthCheck))
def test_moves_and_adds_keep_view_and_grid_equal_to_the_membership(initial, operations):
    fleet = FleetState(_INSTANCE.workers, _INSTANCE.oracle)
    membership = dict(zip(sorted(fleet.states), initial))
    shards = _shards(fleet, membership)
    next_id = max(fleet.states) + 1
    for kind, draw, shard_id in operations:
        if kind == "move":
            worker_id = sorted(membership)[draw % len(membership)]
            membership[worker_id] = shard_id
            for shard in shards:
                shard.move(worker_id, shard_id)
            # whoever moves a worker sets its cell in the shard it entered
            position = fleet.peek_state(worker_id).position
            shards[shard_id].dispatcher.grid.update(worker_id, position)
        else:
            worker = Worker(
                id=next_id, initial_location=_VERTICES[draw % len(_VERTICES)], capacity=3
            )
            next_id += 1
            state = fleet.add_worker(worker, at_time=fleet.clock)
            membership[worker.id] = shard_id
            shards[shard_id].add(worker.id, state.position)
        _assert_members(shards, membership)
