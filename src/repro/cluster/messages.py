"""Wire protocol of the shard-worker cluster.

Every value crossing a worker-process boundary is one of the picklable
dataclasses below, and every command is answered by exactly one reply. The
protocol is deliberately small:

* the front door ships **plan snapshots** (:class:`WorkerPlan`),
  **membership moves** (``(worker, shard)`` re-bucketing deltas computed on
  the authoritative fleet) and **worker additions** (``(worker, add
  clock)``) piggybacked on every command that reads fleet state, so each
  worker process keeps a deterministic replica without a shared-memory fleet;
* workers answer with **outcome payloads** (:class:`OutcomePayload`) plus the
  new plan of the assigned worker, and always piggyback their inner
  dispatcher's ``next_flush_time`` so the front door mirrors the batch
  windows without extra round trips;
* a command that fails inside a worker is answered by
  ``AckReply(error=...)`` with the traceback, whatever its kind — the front
  door then marks the worker down and fails its shard over instead of
  hanging.

Plan snapshots are *absolute* state (origin, start time, stops, service
records), so applying one and advancing a member to the command clock
reproduces exactly the state the authoritative fleet materialises —
advancement along planned routes is path-independent in time, because every
time is on the grid of :mod:`repro.core.timegrid` and its sums are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instance import URPSMInstance
from repro.core.types import Request, Stop, Worker
from repro.dispatch.base import DispatcherConfig, DispatchOutcome
from repro.network.graph import EdgeMutation
from repro.network.oracle import OracleCounters
from repro.sharding.partitioner import Partition


@dataclass(frozen=True, slots=True)
class RecordSnapshot:
    """One service record of a worker's plan (request + progress times)."""

    request: Request
    pickup_time: float | None
    dropoff_time: float | None


@dataclass(frozen=True, slots=True)
class WorkerPlan:
    """Absolute snapshot of one worker's plan, shipped on plan changes."""

    worker_id: int
    origin: int
    start_time: float
    stops: tuple[Stop, ...]
    records: tuple[RecordSnapshot, ...]
    online: bool
    plan_version: int
    concrete_path: tuple[int, ...] | None = None
    #: travelled cost the replica accumulated for this worker *during the
    #: command that produced the plan* (a batch insertion can anchor a route
    #: in the past, and a later same-command touch then walks the worker
    #: forward along the new legs). The front door replays advancement up to
    #: the command clock itself, so this delta is exactly the movement it
    #: cannot re-derive locally and must credit to the authoritative state.
    walked_cost: float = 0.0


@dataclass(frozen=True, slots=True)
class OutcomePayload:
    """A :class:`DispatchOutcome` minus the request object (the receiver has it)."""

    request_id: int
    served: bool
    worker_id: int | None
    increased_cost: float
    candidates_considered: int
    insertions_evaluated: int
    decision_rejected: bool

    @classmethod
    def from_outcome(cls, outcome: DispatchOutcome) -> "OutcomePayload":
        return cls(
            request_id=outcome.request.id,
            served=outcome.served,
            worker_id=outcome.worker_id,
            increased_cost=outcome.increased_cost,
            candidates_considered=outcome.candidates_considered,
            insertions_evaluated=outcome.insertions_evaluated,
            decision_rejected=outcome.decision_rejected,
        )

    def to_outcome(self, request: Request) -> DispatchOutcome:
        return DispatchOutcome(
            request=request,
            served=self.served,
            worker_id=self.worker_id,
            increased_cost=self.increased_cost,
            candidates_considered=self.candidates_considered,
            insertions_evaluated=self.insertions_evaluated,
            decision_rejected=self.decision_rejected,
        )


@dataclass(frozen=True, slots=True)
class ShardInit:
    """Everything a worker process needs to build its shard replica.

    A *respawned* worker (see :mod:`repro.cluster.recovery`) gets the same
    payload rebuilt from the authoritative front-door state: the current
    membership, plus ``extra_workers`` — workers that joined the fleet after
    the original fork, registered by the fresh replica before it serves. The
    replica's exact member state then arrives with the first command (the
    front door clears the shard's sync cursor at adoption, so full plan
    snapshots ship), which is why the rebuild needs no fleet dump.
    """

    shard_id: int
    inner: str
    config: DispatcherConfig
    partition: Partition
    instance: URPSMInstance
    membership: dict[int, int]
    seed: int
    #: ``(worker, add clock)`` pairs for workers added since the instance was
    #: built — replayed by a respawned replica before serving.
    extra_workers: tuple[tuple[Worker, float], ...] = ()
    #: the front door's network-update journal prefix that is *already baked
    #: into* the pickled ``instance`` (a respawn snapshots the live, mutated
    #: network). The replica records ``len(applied_updates)`` as its update
    #: cursor and must NOT re-apply these; updates applied after the snapshot
    #: are replayed by the front door at adoption via
    #: :class:`NetworkUpdateCommand`.
    applied_updates: tuple["NetworkUpdate", ...] = ()


# ------------------------------------------------------------------ commands


@dataclass(frozen=True, slots=True)
class DispatchCommand:
    """Dispatch one request on the shard's inner dispatcher."""

    clock: float
    request: Request
    plans: tuple[WorkerPlan, ...]
    #: membership re-bucketing deltas since this shard was last commanded.
    moves: tuple[tuple[int, int], ...] = ()
    #: ``(worker, add clock)`` for each worker that joined the fleet since this
    #: shard was last commanded; the replica registers them before anything else.
    additions: tuple[tuple[Worker, float], ...] = ()


@dataclass(frozen=True, slots=True)
class FlushCommand:
    """Flush the shard's batch window at ``clock``.

    Deferrals are buffered at the front door (they touch no fleet state) and
    shipped here as ``(request, defer clock)`` pairs; the worker replays them
    through its inner's ``defer`` in order, reproducing the exact window the
    in-process dispatcher would have accumulated — one round trip per window
    instead of one per request.
    """

    clock: float
    plans: tuple[WorkerPlan, ...]
    deferrals: tuple[tuple[Request, float], ...] = ()
    moves: tuple[tuple[int, int], ...] = ()
    additions: tuple[tuple[Worker, float], ...] = ()  # see DispatchCommand


@dataclass(frozen=True, slots=True)
class CancelCommand:
    """Drop a deferred request from the shard's batch window."""

    clock: float
    request: Request
    plans: tuple[WorkerPlan, ...]
    moves: tuple[tuple[int, int], ...] = ()
    additions: tuple[tuple[Worker, float], ...] = ()  # see DispatchCommand


@dataclass(frozen=True, slots=True)
class NetworkUpdate:
    """One journaled live network update (a close/reopen batch).

    ``ordinal`` is the update's position in the front door's cumulative
    journal — replicas track their own cursor and reject gaps or duplicates,
    which turns lost-update bugs into immediate worker-down events instead
    of silent divergence. ``content_hash`` is the authoritative network's
    content hash *after* the mutations were applied; every replica echoes
    the hash it computes after replay, and a mismatch marks the worker down
    rather than letting it serve on a stale map.
    """

    ordinal: int
    clock: float
    mutations: tuple[EdgeMutation, ...]
    content_hash: str


@dataclass(frozen=True, slots=True)
class NetworkUpdateCommand:
    """Broadcast a live network update to a shard replica.

    Carries the same piggybacked sync payload as dispatch/flush commands:
    the replica first applies ``moves`` and advances members to ``clock``
    on the *old* topology (mirroring the engine's ``advance_all`` before the
    mutation), then applies the mutations, refreshes its oracles, and only
    then applies ``plans`` — the authoritative post-rebuild route snapshots —
    so re-timing happens on the new topology. The reply is a barrier
    acknowledgement."""

    clock: float
    update: NetworkUpdate
    plans: tuple[WorkerPlan, ...] = ()
    moves: tuple[tuple[int, int], ...] = ()
    additions: tuple[tuple[Worker, float], ...] = ()  # see DispatchCommand


@dataclass(frozen=True, slots=True)
class StatsCommand:
    """Request the replica's oracle counters (end-of-run reporting).

    Reads no fleet state, so queued additions wait for the next command that
    does."""


@dataclass(frozen=True, slots=True)
class ShutdownCommand:
    """Clean shutdown: the worker acknowledges and exits its loop."""


# ------------------------------------------------------------------- replies


@dataclass(frozen=True, slots=True)
class DispatchReply:
    outcome: OutcomePayload | None
    plan: WorkerPlan | None
    next_flush: float | None
    #: request ids delivered *during* the decision, in the exact order the
    #: replica stamped them — the front door pushes the matching authoritative
    #: records into the engine's completion buffer in this order (metric
    #: means sum left-to-right, so completion order is value-significant).
    completed_ids: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class FlushReply:
    outcomes: tuple[OutcomePayload, ...]
    #: final plan per worker that gained assignments during the flush.
    plans: dict[int, WorkerPlan]
    #: requests still deferred after the flush (re-deferrals), in order.
    pending_ids: tuple[int, ...]
    next_flush: float | None
    #: deliveries stamped during the flush, in replica stamping order (see
    #: :class:`DispatchReply`).
    completed_ids: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class CancelReply:
    removed: bool
    next_flush: float | None


@dataclass(frozen=True, slots=True)
class AckReply:
    """Ready and shutdown acknowledgement, and the reply to any command that
    failed: a worker answers every failure with ``AckReply(error=...)``."""

    error: str | None = None


@dataclass(frozen=True, slots=True)
class UpdateReply:
    """Barrier acknowledgement of a :class:`NetworkUpdateCommand`.

    ``content_hash`` is the replica's post-replay network content hash; the
    front door compares it against the authoritative hash in the update."""

    content_hash: str
    next_flush: float | None


@dataclass(frozen=True, slots=True)
class StatsReply:
    """The replica oracle's counts, without its caches."""

    counters: OracleCounters


__all__ = [
    "AckReply",
    "CancelCommand",
    "CancelReply",
    "DispatchCommand",
    "DispatchReply",
    "FlushCommand",
    "FlushReply",
    "NetworkUpdate",
    "NetworkUpdateCommand",
    "OutcomePayload",
    "RecordSnapshot",
    "ShardInit",
    "ShutdownCommand",
    "StatsCommand",
    "StatsReply",
    "UpdateReply",
    "WorkerPlan",
]
