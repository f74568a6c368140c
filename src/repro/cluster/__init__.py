"""Multiprocess shard-worker serving cluster.

The K spatial shards of the sharded dispatcher run as long-lived worker
processes behind a front door exposing the standard
:class:`~repro.service.facade.MatchingService` session API:

* :class:`~repro.cluster.service.ClusterMatchingService` — the facade;
* :class:`~repro.cluster.dispatcher.ClusterDispatcher` — the
  :class:`~repro.sharding.router.ShardRouter` (routing and escalation, shared
  with in-process sharding) over worker pipes: batch window buffering,
  replica sync, backpressure, crash detection and clean shutdown;
* :mod:`repro.cluster.link` — one :class:`~repro.cluster.link.WorkerLink` per
  shard worker: its process and the front door's end of its pipe, started by
  :func:`~repro.cluster.link.start_worker` (tests inject faults by wrapping
  it);
* :mod:`repro.cluster.worker` — the per-shard worker-process runtime (a
  deterministic full-fleet replica with a :class:`~repro.sharding.router.Shard`
  over it);
* :mod:`repro.cluster.messages` — the picklable wire protocol, one reply per
  command;
* :mod:`repro.cluster.recovery` — the self-healing layer: transient-error
  retry with backoff (:class:`~repro.cluster.recovery.RetryPolicy`) and the
  shard lifecycle (``up`` → ``recovering`` → ``up`` or ``degraded``). When a
  worker dies the front door forks its replacement at once and adopts it at
  a simulated-clock boundary; meanwhile the shard fails over to an
  in-process :class:`~repro.sharding.router.Shard` at the front door.

Cluster replays are metric-identical (served rate, unified cost, waits,
detours) to the in-process :class:`~repro.sharding.dispatcher.
ShardedDispatcher` at the same K — enforced by
``tests/cluster/test_equivalence.py`` and by traced runs of the
``cluster_k2`` workload of ``benchmarks/e2e/run.py``. Worker death is
*transient*: a kill between batch windows leaves the replay bit-identical to
the fault-free run (enforced by ``tests/cluster/test_recovery.py`` and
``tests/cluster/test_network_updates.py``).
"""

from repro.cluster.dispatcher import ClusterDispatcher
from repro.cluster.recovery import (
    RetryPolicy,
    ShardHealth,
    TransientRPCError,
)
from repro.cluster.service import ClusterMatchingService

__all__ = [
    "ClusterDispatcher",
    "ClusterMatchingService",
    "RetryPolicy",
    "ShardHealth",
    "TransientRPCError",
]
