"""Fault tolerance for the shard-worker cluster: worker death is transient.

Three cooperating pieces turn the front door's crash *detection* into crash
*recovery*:

* **failure classification + retry** — :class:`RetryPolicy` bounds how often a
  transient RPC hiccup (:class:`TransientRPCError`, ``InterruptedError``,
  ``BlockingIOError``) is retried with exponential backoff and deterministic
  jitter before escalating; only a dead process, a broken pipe, or an expired
  ``dispatch_timeout`` marks a worker down;
* **degraded-mode failover** — a down shard's requests run *in process* at
  the front door, on a :class:`~repro.sharding.router.Shard` over the
  authoritative fleet: the same shard the in-process sharded dispatcher and
  the worker process run. The authoritative fleet is exactly the state a
  healthy replica would have reproduced, so degraded decisions are the ones
  the lost worker would have made — a kill between batch windows leaves the
  replay's metrics bit-identical to the fault-free run;
* **supervised respawn** — :class:`WorkerSupervisor` starts a new worker link
  from the pickled rebuild payload off the hot path (fork + replica build +
  ready handshake on a daemon thread) and the dispatcher *adopts* it at the
  first dispatch/flush entry whose simulated clock passes
  ``restart_delay_s``. Adoption clears the shard's sync cursor, so the next
  command ships a full plan snapshot of the current membership and the
  rebuilt replica re-anchors exactly; workers added after the payload was
  pickled become the shard's queued additions, and network updates journaled
  since are replayed — the snapshot + membership + addition + clock-replay
  protocol of ``messages.py``, applied from scratch.

Recovery timing is a deterministic function of the simulated workload: spawn
latency is wall-clock, but nothing observes the new process until the
adoption gate joins the spawn thread at a simulated-clock boundary. Faults
are injected from outside: a test wraps the :class:`~repro.cluster.link.
WorkerLink` that :func:`~repro.cluster.link.start_worker` returns.
"""

from __future__ import annotations

import pickle
import threading
import time as _time
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster import link

if TYPE_CHECKING:
    from repro.cluster.dispatcher import ClusterDispatcher, _ShardHandle
    from repro.cluster.link import WorkerLink


class TransientRPCError(Exception):
    """A send/recv hiccup worth retrying before declaring the worker dead."""


#: exception classes treated as transient (retried with backoff). The OSError
#: subclasses must be tested before the generic fatal ``OSError`` clause.
TRANSIENT_ERRORS = (TransientRPCError, InterruptedError, BlockingIOError)


class ShardHealth:
    """Health states of one shard's serving path (plain strings, picklable)."""

    UP = "up"  #: process-backed: commands round-trip to the worker replica
    RECOVERING = "recovering"  #: worker died; respawn in flight, serving degraded
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
class RespawnSlot:
    """One in-flight respawn: the thread doing the work plus its result."""

    #: simulated clock before which the rebuilt worker must not be adopted.
    not_before: float
    #: authoritative membership at schedule time (adoption ships the diff).
    membership: dict[int, int]
    #: how many ``_added_workers`` the respawn init already carries.
    extra_count: int
    #: front-door network-update journal length at schedule time — the init
    #: snapshot reflects exactly this many updates; adoption replays the rest.
    updates_count: int = 0
    thread: threading.Thread | None = None
    #: the rebuilt worker, once it acknowledged ready.
    link: "WorkerLink | None" = None
    error: str | None = None


class WorkerSupervisor:
    """Respawns dead shard workers off the dispatch hot path.

    ``schedule`` (called by the dispatcher when it marks a worker down)
    builds and pickles the :class:`~repro.cluster.messages.ShardInit`
    snapshot synchronously — pinning the replica to the front door's
    network-update journal cursor before the live instance can mutate
    further — then forks the replacement on a daemon thread: spawn the
    process, wait for its ready ack. ``claim`` — called from the dispatcher's
    deterministic adoption gate — joins that thread (blocking if the spawn is
    still in flight, so adoption order depends only on simulated time) and
    hands the result back. Every process ever spawned is tracked until
    adopted, so :meth:`close` can reap stragglers no matter where a shutdown
    interrupts the life cycle.
    """

    def __init__(
        self,
        dispatcher: "ClusterDispatcher",
        *,
        max_restarts: int = 2,
        restart_delay_s: float = 0.0,
        spawn_timeout_s: float = 120.0,
    ) -> None:
        self.dispatcher = dispatcher
        self.max_restarts = max_restarts
        self.restart_delay_s = restart_delay_s
        self.spawn_timeout_s = spawn_timeout_s
        self._slots: dict[int, RespawnSlot] = {}
        self._spawned: list["WorkerLink"] = []  # not yet adopted (reaped at close)
        self._lock = threading.Lock()
        self._stopping = False

    # ------------------------------------------------------------- scheduling

    def should_restart(self, handle: "_ShardHandle") -> bool:
        return not self._stopping and handle.incarnation < self.max_restarts

    def schedule(self, handle: "_ShardHandle", death_clock: float) -> None:
        """Kick off an asynchronous respawn of ``handle``'s worker process."""
        dispatcher = self.dispatcher
        handle.incarnation += 1
        init = dispatcher._respawn_init(handle.shard_id, handle.incarnation)
        # Serialise the init snapshot NOW, on the scheduling thread: the live
        # instance keeps mutating (network updates, added workers) while the
        # spawn thread runs, and a torn snapshot would poison the replica.
        # The journal cursor recorded below is therefore exact: the payload
        # reflects precisely ``updates_count`` applied updates.
        payload = pickle.dumps(init, protocol=pickle.HIGHEST_PROTOCOL)
        slot = RespawnSlot(
            not_before=death_clock + self.restart_delay_s,
            membership=dict(init.membership),
            extra_count=len(init.extra_workers),
            updates_count=len(init.applied_updates),
        )
        thread = threading.Thread(
            target=self._spawn,
            args=(init.shard_id, handle.incarnation, payload, slot),
            name=f"repro-respawn-{handle.shard_id}",
            daemon=True,
        )
        slot.thread = thread
        self._slots[handle.shard_id] = slot
        thread.start()

    def _spawn(self, shard_id: int, incarnation: int, payload: bytes, slot: RespawnSlot) -> None:
        started = None
        try:
            started = link.start_worker(shard_id, payload, incarnation)
            with self._lock:
                self._spawned.append(started)
            ready = None
            deadline = _time.monotonic() + self.spawn_timeout_s
            while _time.monotonic() < deadline and not self._stopping:
                if started.poll(0.1):
                    ready = started.recv()
                    break
                if not started.alive():
                    break
            if ready is None:
                slot.error = "respawned shard worker never became ready"
            elif ready.error:
                slot.error = ready.error
            else:
                slot.link = started
                return
        except Exception:  # noqa: BLE001 - surfaced to the adoption gate
            slot.error = traceback.format_exc()
        if started is not None:  # failed spawn: reap whatever exists
            started.close()

    # --------------------------------------------------------------- adoption

    def claim(self, shard_id: int, now: float) -> RespawnSlot | None:
        """Join and return the shard's respawn if it is due at ``now``.

        Blocks until the spawn thread finishes — adoption happens at a
        simulated-clock boundary, so whether the wall-clock spawn was fast or
        slow never changes *when* (in simulation time) the worker returns.
        """
        slot = self._slots.get(shard_id)
        if slot is None or now + 1e-9 < slot.not_before:
            return None
        if slot.thread is not None:
            slot.thread.join()
        del self._slots[shard_id]
        return slot

    def mark_adopted(self, adopted: "WorkerLink") -> None:
        with self._lock:
            if adopted in self._spawned:
                self._spawned.remove(adopted)

    # --------------------------------------------------------------- shutdown

    def stop(self) -> None:
        """Ask in-flight spawn threads to give up (they poll every 0.1 s)."""
        self._stopping = True

    def close(self) -> None:
        """Join every spawn thread and reap every unadopted child process."""
        self._stopping = True
        for slot in list(self._slots.values()):
            if slot.thread is not None:
                slot.thread.join(self.spawn_timeout_s + 5.0)
        self._slots.clear()
        with self._lock:
            spawned, self._spawned = list(self._spawned), []
        for unadopted in spawned:
            unadopted.close()

    def spawned(self) -> list["WorkerLink"]:
        with self._lock:
            return list(self._spawned)

    def threads_alive(self) -> int:
        return sum(
            1
            for slot in self._slots.values()
            if slot.thread is not None and slot.thread.is_alive()
        )


__all__ = [
    "HEALTH_CODES",
    "RespawnSlot",
    "RetryPolicy",
    "ShardHealth",
    "TRANSIENT_ERRORS",
    "TransientRPCError",
    "WorkerSupervisor",
]
