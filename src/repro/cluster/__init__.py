"""Multiprocess shard-worker serving cluster.

The K spatial shards of the sharded dispatcher run as long-lived worker
processes behind a front door exposing the standard
:class:`~repro.service.facade.MatchingService` session API:

* :class:`~repro.cluster.service.ClusterMatchingService` — the facade;
* :class:`~repro.cluster.dispatcher.ClusterDispatcher` — routing, batch
  window mirroring, escalation-by-message-passing, backpressure, crash
  detection and clean shutdown;
* :mod:`repro.cluster.worker` — the per-shard worker-process runtime
  (deterministic full-fleet replica + inner dispatcher);
* :mod:`repro.cluster.messages` — the picklable wire protocol;
* :mod:`repro.cluster.recovery` — the self-healing layer: transient-error
  retry with backoff (:class:`~repro.cluster.recovery.RetryPolicy`),
  in-process degraded-mode failover
  (:class:`~repro.cluster.recovery.DegradedShard`), supervised respawn
  (:class:`~repro.cluster.recovery.WorkerSupervisor`), and the deterministic
  fault-injection seam (:class:`~repro.cluster.recovery.FaultInjector`) the
  chaos harness plugs into.

Cluster replays are metric-identical (served rate, unified cost, waits,
detours) to the in-process :class:`~repro.sharding.dispatcher.
ShardedDispatcher` at the same K — enforced by
``tests/cluster/test_equivalence.py`` and by traced runs of the
``cluster_k2`` workload of ``benchmarks/e2e/run.py``. Worker death is
*transient*: a kill between batch windows leaves the replay bit-identical to
the fault-free run (enforced by ``tests/cluster/test_recovery.py`` and
``benchmarks/bench_chaos.py``).
"""

from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.recovery import (
    DegradedShard,
    FaultInjector,
    RetryPolicy,
    ShardHealth,
    TransientRPCError,
    WorkerSupervisor,
)
from repro.cluster.service import ClusterMatchingService

__all__ = [
    "ClusterDispatcher",
    "ClusterMatchingService",
    "DegradedShard",
    "FaultInjector",
    "RetryPolicy",
    "ShardHealth",
    "TransientRPCError",
    "WorkerSupervisor",
]
