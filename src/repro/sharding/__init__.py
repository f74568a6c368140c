"""Horizontal scaling subsystem: spatial shards and per-shard dispatching.

The monolithic dispatchers of :mod:`repro.dispatch` see the whole city on
every request. This package splits the road network into K balanced spatial
shards (:class:`~repro.sharding.partitioner.SpatialPartitioner`) and routes
every request to its origin shard first, escalating to neighbouring shards —
and finally globally — only when the local shard cannot serve it
(:class:`~repro.sharding.router.ShardRouter`). A shard is an inner dispatcher
over a restricted fleet view (:class:`~repro.sharding.router.Shard` over a
:class:`~repro.sharding.fleet_view.ShardFleetView`);
:class:`~repro.sharding.dispatcher.ShardedDispatcher` runs all K in process,
and :class:`~repro.cluster.dispatcher.ClusterDispatcher` runs them in worker
processes behind the same router.
"""

from repro.sharding.dispatcher import ShardedDispatcher
from repro.sharding.fleet_view import ShardFleetView
from repro.sharding.partitioner import Partition, SpatialPartitioner, STRATEGIES
from repro.sharding.router import Shard, ShardRouter

__all__ = [
    "Partition",
    "SpatialPartitioner",
    "STRATEGIES",
    "Shard",
    "ShardFleetView",
    "ShardRouter",
    "ShardedDispatcher",
]
