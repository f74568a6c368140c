"""Online matching service: the streaming front door of the reproduction.

The paper's unified insertion framework is an *online* algorithm — requests
arrive one at a time and are matched immediately. This package exposes it
that way:

* :class:`~repro.service.facade.MatchingService` — a long-lived session
  accepting submissions, cancellations and fleet events over time, returning
  typed decisions;
* :class:`~repro.service.spec.PlatformSpec` — one declarative, serialisable
  configuration composing city, workload, oracle, dispatcher, sharding and
  cluster settings;
* :func:`~repro.service.facade.replay_workload` — the batch entry point,
  which simply streams a generated workload through a service session (batch
  and online runs are the same code path, metric-identical by construction
  and by test).
"""

from repro.service.facade import MatchingService, replay_workload
from repro.service.responses import (
    AssignmentDecision,
    CancellationOutcome,
    CancellationStatus,
    DecisionStatus,
    RejectionReason,
    ServiceSnapshot,
)
from repro.service.spec import PlatformSpec, PlatformSpecBuilder

__all__ = [
    "AssignmentDecision",
    "CancellationOutcome",
    "CancellationStatus",
    "DecisionStatus",
    "MatchingService",
    "PlatformSpec",
    "PlatformSpecBuilder",
    "RejectionReason",
    "ServiceSnapshot",
    "replay_workload",
]
