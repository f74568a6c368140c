"""Typed responses of the online matching service.

Every interaction with :class:`~repro.service.facade.MatchingService` returns
a value instead of mutating internal state invisibly:

* :class:`AssignmentDecision` — what happened to a submitted request:
  accepted (with the assigned worker and the route delta), rejected (with a
  :class:`RejectionReason` code), or deferred into a batch window (resolved
  decisions surface later through ``MatchingService.poll_decisions``);
* :class:`CancellationOutcome` — what a cancellation achieved;
* :class:`ServiceSnapshot` — a point-in-time observability view of the
  platform (clock, fleet occupancy, decision counts).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dispatch.base import DispatchOutcome


class DecisionStatus(str, enum.Enum):
    """Lifecycle state of a submission's decision."""

    ACCEPTED = "accepted"
    REJECTED = "rejected"
    #: deferred into a batch window; the resolved decision arrives later via
    #: ``MatchingService.poll_decisions`` (or at :meth:`~repro.service.facade.
    #: MatchingService.drain`).
    DEFERRED = "deferred"
    #: a deferred request was withdrawn (rider cancellation) before its batch
    #: window flushed — the terminal resolution of a DEFERRED submission that
    #: never produced an assignment.
    CANCELLED = "cancelled"


class RejectionReason(str, enum.Enum):
    """Why a request was rejected (rejections are irrevocable)."""

    #: the reachability filter found no worker that could make the deadline.
    NO_CANDIDATES = "no_candidates"
    #: candidates existed but no feasible insertion satisfied deadline /
    #: capacity constraints on any route.
    NO_FEASIBLE_INSERTION = "no_feasible_insertion"
    #: the decision phase (Lemma 8 pruning / profitability) rejected the
    #: request before or instead of planning.
    DECISION_PHASE = "decision_phase"
    #: admission control rejected the request before it reached a planning
    #: phase — the target shard's command queue exceeded the cluster's
    #: bounded-queue backpressure limit.
    SATURATED = "saturated"


class CancellationStatus(str, enum.Enum):
    """What a cancellation achieved."""

    #: the request id was never submitted to this service.
    UNKNOWN_REQUEST = "unknown_request"
    #: still deferred inside a batch window — dropped before any assignment.
    REMOVED_FROM_BATCH = "removed_from_batch"
    #: assigned but not yet picked up — its stops were removed from the route.
    REMOVED_FROM_ROUTE = "removed_from_route"
    #: already picked up, delivered, or rejected — nothing to undo.
    TOO_LATE = "too_late"


@dataclass(frozen=True, slots=True)
class AssignmentDecision:
    """The service's decision for one submitted request.

    Attributes:
        request_id: the submitted request.
        status: accepted / rejected / deferred.
        decided_at: simulated time at which the decision was made.
        worker_id: assigned worker (accepted decisions only).
        route_delta: increase of the assigned worker's route cost caused by
            the insertion, in travel seconds (accepted decisions only).
        reason: rejection reason code (rejected decisions only).
        candidates_considered: workers examined while deciding.
        insertions_evaluated: insertion positions evaluated while deciding.
    """

    request_id: int
    status: DecisionStatus
    decided_at: float
    worker_id: int | None = None
    route_delta: float = 0.0
    reason: RejectionReason | None = None
    candidates_considered: int = 0
    insertions_evaluated: int = 0

    @classmethod
    def from_outcome(cls, outcome: DispatchOutcome, decided_at: float) -> "AssignmentDecision":
        """Lift a dispatcher :class:`DispatchOutcome` into a typed decision."""
        if outcome.served:
            status, reason = DecisionStatus.ACCEPTED, None
        else:
            status = DecisionStatus.REJECTED
            if outcome.rejection_reason is not None:
                reason = RejectionReason(outcome.rejection_reason)
            elif outcome.candidates_considered == 0:
                reason = RejectionReason.NO_CANDIDATES
            elif outcome.decision_rejected:
                reason = RejectionReason.DECISION_PHASE
            else:
                reason = RejectionReason.NO_FEASIBLE_INSERTION
        return cls(
            request_id=outcome.request.id,
            status=status,
            decided_at=decided_at,
            worker_id=outcome.worker_id,
            route_delta=outcome.increased_cost if outcome.served else 0.0,
            reason=reason,
            candidates_considered=outcome.candidates_considered,
            insertions_evaluated=outcome.insertions_evaluated,
        )

    @property
    def accepted(self) -> bool:
        """Whether the request was assigned to a worker."""
        return self.status is DecisionStatus.ACCEPTED

    @property
    def deferred(self) -> bool:
        """Whether the decision is still pending in a batch window."""
        return self.status is DecisionStatus.DEFERRED

    def describe(self) -> str:
        """One-line human-readable form (used by ``repro serve-replay``)."""
        prefix = f"t={self.decided_at:8.1f}s  request {self.request_id:>5}"
        if self.status is DecisionStatus.ACCEPTED:
            return (
                f"{prefix}  -> worker {self.worker_id} "
                f"(+{self.route_delta:.1f}s route delta, "
                f"{self.candidates_considered} candidates)"
            )
        if self.status is DecisionStatus.DEFERRED:
            return f"{prefix}  .. deferred to batch window"
        if self.status is DecisionStatus.CANCELLED:
            return f"{prefix}  !! cancelled before assignment"
        reason = self.reason.value if self.reason is not None else "unknown"
        return f"{prefix}  xx rejected ({reason})"


@dataclass(frozen=True, slots=True)
class CancellationOutcome:
    """Result of ``MatchingService.cancel``."""

    request_id: int
    status: CancellationStatus
    cancelled_at: float

    @property
    def cancelled(self) -> bool:
        """Whether the cancellation actually removed the request."""
        return self.status in (
            CancellationStatus.REMOVED_FROM_BATCH,
            CancellationStatus.REMOVED_FROM_ROUTE,
        )


@dataclass(frozen=True, slots=True)
class ServiceSnapshot:
    """Point-in-time observability view of a running service.

    ``workers_idle`` counts workers idle *as of their last materialisation*
    (the event engine advances workers lazily, so a worker whose route just
    finished may still be counted busy until it is next touched).

    The serving-observability counters are shared by both facades:
    ``decisions_pending`` — submissions deferred into batch windows whose
    decision has not resolved yet; ``requests_inflight`` — accepted riders
    not yet dropped off; ``queue_depth`` — requests queued towards shard
    worker processes awaiting a decision (always 0 for the in-process
    facade, whose dispatcher calls are synchronous).

    The recovery counters describe the cluster facade's self-healing layer
    (always 0 / empty for the in-process facade): ``worker_failures`` —
    shard worker processes marked down; ``worker_restarts`` — respawned
    workers adopted back; ``retries`` — transient RPC errors and reply
    timeouts retried; ``degraded_dispatches`` — requests resolved in-process
    at the front door while their shard was down; ``shard_health`` — current
    per-shard serving path, shard-id order (``up``/``recovering``/
    ``degraded``).

    The network-update counters describe live topology mutations:
    ``network_updates_applied`` — close/reopen batches applied through
    :meth:`~repro.service.facade.MatchingService.apply_network_update` (both
    facades); ``update_ack_retries`` — retries burned collecting update
    barrier acknowledgements from shard workers; ``shard_replica_rebuilds``
    — per-shard count of acknowledged replica network rebuilds (broadcasts
    plus adoption replays), shard-id order (cluster facade only).
    """

    clock: float
    algorithm: str
    workers_total: int
    workers_online: int
    workers_idle: int
    requests_submitted: int
    decisions_pending: int
    served: int
    rejected: int
    cancelled: int
    events_processed: int = 0
    requests_inflight: int = 0
    queue_depth: int = 0
    worker_failures: int = 0
    worker_restarts: int = 0
    retries: int = 0
    degraded_dispatches: int = 0
    shard_health: tuple[str, ...] = ()
    network_updates_applied: int = 0
    update_ack_retries: int = 0
    shard_replica_rebuilds: tuple[int, ...] = ()


__all__ = [
    "AssignmentDecision",
    "CancellationOutcome",
    "CancellationStatus",
    "DecisionStatus",
    "RejectionReason",
    "ServiceSnapshot",
]
