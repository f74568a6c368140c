"""Fault tolerance for the shard-worker cluster: worker death is transient.

Three pieces turn the front door's crash *detection* into crash *recovery*:

* **failure classification + retry** — :class:`RetryPolicy` bounds how often a
  transient RPC hiccup (:class:`TransientRPCError`, ``InterruptedError``,
  ``BlockingIOError``) is retried with exponential backoff and deterministic
  jitter before escalating; only a dead process, a broken pipe, an error
  reply or an expired ``dispatch_timeout`` marks a worker down;
* **degraded-mode failover** — a down shard's requests run *in process* at
  the front door, on a :class:`~repro.sharding.router.Shard` over the
  authoritative fleet: the same shard the in-process sharded dispatcher and
  the worker process run. The authoritative fleet is exactly the state a
  healthy replica would have reproduced, so degraded decisions are the ones
  the lost worker would have made — a kill between batch windows leaves the
  replay's metrics bit-identical to the fault-free run;
* **respawn** — when the front door marks a worker down it pickles the
  rebuild payload at once (pinning the replica to the network-update
  journal) and forks the replacement through
  :func:`~repro.cluster.link.start_worker`, which returns without waiting.
  The replacement builds its replica while the shard serves degraded; the
  first dispatch/flush entry whose simulated clock passes
  ``restart_delay_s`` reads its ready acknowledgement
  (:func:`~repro.cluster.link.wait_ready`, the handshake ``setup`` uses) and
  *adopts* it, re-syncing the rebuilt replica from scratch (see
  ``ClusterDispatcher._adopt``).

One shard's lifecycle (``ClusterDispatcher._mark_dead``, ``_poll_recovery``
and ``_respawn_or_degrade``); the budget is ``max_restarts`` respawns:

==========  ===========================  ==========  =================================
state       event                        next state  recovery-log events
==========  ===========================  ==========  =================================
up          death, budget left           recovering  worker_down, respawn_scheduled
up          death, budget spent          degraded    worker_down, degraded_permanent
recovering  ready at the adoption gate   up          respawn_adopted, update_replayed*
recovering  failed ready, budget left    recovering  respawn_failed, respawn_scheduled
recovering  failed ready, budget spent   degraded    respawn_failed, degraded_permanent
degraded    (none: serves in-process)    degraded    (none)
==========  ===========================  ==========  =================================

``update_replayed*`` is one event per network update journaled since the
respawn's payload was pickled. A *death* is a dead process or broken pipe,
an error reply (logged ``worker_error`` first), ``retry_attempts`` expired
timeouts (each logged ``timeout``, all but the last followed by ``retry``) or
a replica hash mismatch (``update_hash_mismatch``). A *failed ready* is a
fork that raised, or a replacement that died, answered with an error or
stayed silent for ``dispatch_timeout × retry_attempts`` seconds. A death
while adopting (during the update replay) starts the table again from
``up``.

Recovery timing is a deterministic function of the simulated workload: spawn
latency is wall-clock, but nothing observes the new process until the
adoption gate waits for it at a simulated-clock boundary. Faults are injected
from outside: a test wraps the :class:`~repro.cluster.link.WorkerLink` that
:func:`~repro.cluster.link.start_worker` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cluster.link import WorkerLink


class TransientRPCError(Exception):
    """A send/recv hiccup worth retrying before declaring the worker dead."""


#: exception classes treated as transient (retried with backoff). The OSError
#: subclasses must be tested before the generic fatal ``OSError`` clause.
TRANSIENT_ERRORS = (TransientRPCError, InterruptedError, BlockingIOError)


class ShardHealth:
    """Health states of one shard's serving path (plain strings, picklable)."""

    UP = "up"  #: process-backed: commands round-trip to the worker replica
    RECOVERING = "recovering"  #: worker died; replacement forked, serving degraded
    DEGRADED = "degraded"  #: restart budget exhausted; serving in-process forever


#: numeric encoding for ``extra_metrics`` (floats only): up=2, recovering=1,
#: degraded=0 — higher is healthier.
HEALTH_CODES = {ShardHealth.UP: 2.0, ShardHealth.RECOVERING: 1.0, ShardHealth.DEGRADED: 0.0}


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter.

    ``attempts`` caps the total tries per operation (send attempts, reply
    timeout windows, transient receive errors — each bounded independently,
    so one command waits at most ``attempts × dispatch_timeout`` before the
    worker is marked down). Jitter draws from a dedicated seeded stream, so
    retry timing never perturbs any workload randomness.
    """

    attempts: int = 3
    backoff_s: float = 0.05
    max_backoff_s: float = 0.5

    def delay(self, attempt: int, rng) -> float:
        base = min(self.max_backoff_s, self.backoff_s * (2.0**attempt))
        return base * (0.5 + 0.5 * float(rng.random()))


@dataclass
class Respawn:
    """A shard's replacement worker, from its fork until it is adopted."""

    #: simulated clock before which the rebuilt worker must not be adopted.
    not_before: float
    #: authoritative membership at fork time (adoption ships the diff).
    membership: dict[int, int]
    #: how many ``_added_workers`` the respawn init already carries.
    extra_count: int
    #: front-door network-update journal length at fork time — the init
    #: snapshot reflects exactly this many updates; adoption replays the rest.
    updates_count: int
    #: the forked replacement; ``None`` when the fork raised.
    link: "WorkerLink | None" = None
    #: traceback of a fork that raised.
    error: str | None = None


__all__ = [
    "HEALTH_CODES",
    "Respawn",
    "RetryPolicy",
    "ShardHealth",
    "TRANSIENT_ERRORS",
    "TransientRPCError",
]
