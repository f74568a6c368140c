"""Front door of the shard-worker cluster: a shard router over worker processes.

:class:`ClusterDispatcher` is the :class:`~repro.sharding.router.ShardRouter`
whose shards are long-lived worker *processes* (one per spatial shard) behind
duplex pipes. The router — shared with the in-process
:class:`~repro.sharding.dispatcher.ShardedDispatcher` — routes, escalates,
re-buckets and counts; this class supplies how one shard answers (a pipe
round trip, or the in-process failover) and what a membership move does (it
is buffered for every replica), plus the replica-sync protocol:

Each shard worker sits behind one :class:`~repro.cluster.link.WorkerLink`
(its process and the front door's pipe end), and every command waits for its
reply:

* batch windows are **buffered** at the front door with the exact float
  arithmetic of :class:`~repro.dispatch.base.BatchDispatcher` and ship inside
  the flush command as ``(request, defer clock)`` pairs the worker replays —
  one round trip per window; cancelling a buffered request never crosses the
  pipe, and every reply piggybacks the worker's true ``next_flush_time``;
* fleet state is synchronised by absolute per-worker **plan snapshots** keyed
  on a ``(plan_version, online)`` cursor per shard, plus the buffered
  **worker additions**, **membership moves** and ``advance_all`` clocks that
  ride on each shard's next command, so each replica advances only its own
  members;
* live **network updates** are journaled and broadcast as
  :class:`~repro.cluster.messages.NetworkUpdateCommand` under a barrier
  acknowledgement hash-checked against the authoritative content hash, and
  replayed to respawned replicas at adoption.

Resilience (see :mod:`repro.cluster.recovery`): a full deferred queue
admission-rejects (``saturated``); transient pipe errors are retried with
seeded backoff; a dead worker, broken pipe or exhausted ``dispatch_timeout``
marks the worker down, and its shard keeps serving through a
:class:`~repro.sharding.router.Shard` over the authoritative fleet — the
in-process shard, so decisions and metrics stay bit-identical to the
fault-free run — until the replacement worker forked at the death is adopted
at a simulated-clock boundary. :meth:`close` is idempotent and reaps every
worker process, replacements included.
"""

from __future__ import annotations

import pickle
import time as _time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.artifacts.hashing import network_content_hash
from repro.cluster import link
from repro.cluster.link import WorkerLink
from repro.cluster.messages import (
    AckReply,
    CancelCommand,
    DispatchCommand,
    FlushCommand,
    NetworkUpdate,
    NetworkUpdateCommand,
    ShardInit,
    ShutdownCommand,
    StatsCommand,
    StatsReply,
    WorkerPlan,
)
from repro.cluster.recovery import (
    HEALTH_CODES,
    TRANSIENT_ERRORS,
    Respawn,
    RetryPolicy,
    ShardHealth,
)
from repro.cluster.worker import plan_snapshot
from repro.core.timegrid import on_grid
from repro.core.types import Request, Stop, Worker
from repro.dispatch.base import DispatcherConfig, DispatchOutcome
from repro.exceptions import (
    ConfigurationError,
    DispatchError,
    UnsupportedNetworkUpdateError,
)
from repro.network.oracle import OracleCounters
from repro.sharding.router import Shard, ShardRouter, members_of
from repro.utils.rng import derive_spawned_seed, make_rng

if TYPE_CHECKING:
    from repro.core.instance import URPSMInstance
    from repro.simulation.fleet import FleetState


@dataclass
class _ShardHandle:
    """Front-door bookkeeping for one shard worker process."""

    shard_id: int
    link: WorkerLink
    #: sync cursor: worker id -> (plan_version, online) as last shipped.
    cursor: dict[int, tuple[int, bool]] = field(default_factory=dict)
    #: workers whose stamp may differ from ``cursor`` — the only ones the
    #: next ``ClusterDispatcher._sync_payload`` compares, and then forgets.
    stale: set[int] = field(default_factory=set)
    #: mirror of the shard's BatchDispatcher window (None = no pending flush).
    next_flush: float | None = None
    #: the shard's open batch window, buffered front-door side until flush.
    window: list[tuple[Request, float]] = field(default_factory=list)
    #: deferred request ids the *worker* still holds (re-deferrals after a
    #: flush), in defer order.
    pending_ids: list[int] = field(default_factory=list)
    #: membership (worker, shard) deltas not yet shipped to this shard.
    pending_moves: list[tuple[int, int]] = field(default_factory=list)
    #: ``(worker, add clock)`` for workers added since this shard's last
    #: command; they ride on its next command of any kind that syncs state.
    additions: list[tuple[Worker, float]] = field(default_factory=list)
    dispatch_calls: int = 0
    #: serving path: ``up`` (process-backed), ``recovering`` (respawn in
    #: flight, serving degraded), ``degraded`` (in-process forever). A shard
    #: always serves; only an ``up`` shard has a worker process behind it.
    health: str = ShardHealth.UP
    #: defer clock of the worker-held re-deferrals (the last flush clock) —
    #: the clock they re-enter the buffered window at if the worker dies.
    pending_clock: float = 0.0
    #: in-process failover shard while the worker is down.
    degraded: Shard | None = None
    #: how many times this shard's worker has been respawned.
    incarnation: int = 0
    #: the replacement worker while the shard is ``recovering``.
    respawn: Respawn | None = None
    #: traceback of the last runtime error reply (observability only).
    last_error: str | None = None
    #: acknowledged replica network rebuilds (live broadcasts + adoption
    #: replays of journaled updates).
    replica_rebuilds: int = 0


class ClusterDispatcher(ShardRouter):
    """Routes requests to shard worker *processes*, escalating on failure.

    Args:
        config: shared dispatcher knobs (``num_shards``, ``shard_strategy``,
            ``shard_escalate_k`` are the shard layout, exactly as for the
            in-process sharded dispatcher).
        inner: registry name of the per-shard algorithm.
        seed: platform seed; per-worker-process streams are derived from it
            with :func:`~repro.utils.rng.derive_spawned_seed`.
        max_pending: bounded-queue backpressure — deferred requests tolerated
            per shard (buffered window plus worker-held re-deferrals) before
            admission-rejecting.
        dispatch_timeout: hard cap in seconds on waiting for one reply; the
            wait is retried ``retry_attempts`` times before the worker is
            declared dead.
        retry_attempts: bounded retries per pipe operation — transient send
            and receive errors, and reply-timeout windows — before escalating
            to mark-down.
        retry_backoff_s: base of the exponential retry backoff (the jitter
            stream is seeded, so retry timing is reproducible).
        max_restarts: respawn budget per shard; once exhausted, the shard
            serves degraded (in-process) for the rest of the session.
        restart_delay_s: *simulated* seconds after a death before a respawned
            worker may be adopted — recovery timing is workload-deterministic
            (rounded up onto the 2⁻¹⁰ s time grid).
    """

    name = "cluster"
    metrics_prefix = "cluster"
    #: shard routing is position-dependent (which shard answers first depends
    #: on where workers currently are), and the replicas re-derive exact
    #: positions deterministically — so the authoritative fleet must always
    #: be materialised, even at K=1 (where the in-process ``sharded:<inner>``
    #: wrapper stays lazy and reaches the same bits in fewer steps).
    requires_exact_positions = True
    #: live network updates are supported via the replica-sync protocol: the
    #: engine hands the recorded mutation batch to
    #: :meth:`apply_network_update`, which journals it and broadcasts a
    #: :class:`~repro.cluster.messages.NetworkUpdateCommand` to every shard
    #: worker under a barrier acknowledgement.
    supports_network_updates = True

    def notify_network_changed(self) -> None:
        """Refuse topology-change notifications outside the command flow.

        Worker processes hold pickled network replicas: a parent-side
        mutation that reaches the front door as a bare *notification* —
        without the :class:`~repro.network.graph.EdgeMutation` records to
        broadcast — would desynchronise every replica. The engine routes
        live updates through :meth:`apply_network_update` instead; anything
        else is a programming error surfaced as a typed exception.
        """
        raise UnsupportedNetworkUpdateError(
            "cluster serving cannot absorb a bare network-change "
            "notification: shard worker processes hold replica networks, so "
            "live mutations must flow through apply_network_update (the "
            "replica-sync NetworkUpdateCommand broadcast), not "
            "notify_network_changed"
        )

    def __init__(
        self,
        config: DispatcherConfig | None = None,
        inner: str = "pruneGreedyDP",
        seed: int = 0,
        max_pending: int = 1024,
        dispatch_timeout: float = 60.0,
        retry_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        max_restarts: int = 2,
        restart_delay_s: float = 0.0,
    ) -> None:
        super().__init__(config, inner)
        if retry_attempts < 1:
            raise ConfigurationError(f"retry_attempts must be >= 1, got {retry_attempts}")
        if retry_backoff_s < 0:
            raise ConfigurationError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}"
            )
        if max_restarts < 0:
            raise ConfigurationError(f"max_restarts must be >= 0, got {max_restarts}")
        if restart_delay_s < 0:
            raise ConfigurationError(
                f"restart_delay_s must be >= 0, got {restart_delay_s}"
            )
        self.seed = seed
        self.max_pending = max_pending
        self.dispatch_timeout = dispatch_timeout
        self.retry_policy = RetryPolicy(attempts=retry_attempts, backoff_s=retry_backoff_s)
        #: how long a started worker may take to acknowledge ready
        self._ready_timeout = dispatch_timeout * retry_attempts
        self.max_restarts = max_restarts
        self.restart_delay_s = on_grid(restart_delay_s, "restart_delay_s")
        self._handles: list[_ShardHandle] = []
        self._closed = False
        self._started = False
        #: retry-jitter stream, independent of all workload randomness.
        self._retry_rng = make_rng(derive_spawned_seed(seed, "cluster-retry"))
        #: authoritative Request objects by id (replies reference ids only).
        self._requests: dict[int, Request] = {}
        #: workers added after setup, with their add clocks — a respawned
        #: replica gets them through ShardInit.extra_workers and, for those
        #: added after its payload was pickled, its handle's additions.
        self._added_workers: list[tuple[Worker, float]] = []
        # cluster-specific counters
        self.admission_rejections = 0
        self.worker_failures = 0
        self.commands_sent = 0
        # recovery counters + event log (ordering is test- and user-visible)
        self.worker_restarts = 0
        self.retries = 0
        self.degraded_dispatches = 0
        self.recovery_log: list[tuple[str, int]] = []
        # live network updates: cumulative journal + telemetry
        self._applied_updates: list[NetworkUpdate] = []
        self.network_updates_applied = 0
        self.update_ack_retries = 0

    # ------------------------------------------------------------- lifecycle

    def setup(self, instance: "URPSMInstance", fleet: "FleetState") -> None:
        """Partition the city and fork one worker process per shard."""
        self._partition(instance, fleet)
        self._handles = []
        try:
            for shard_id in range(self.num_shards):
                init = self._shard_init(shard_id)
                handle = _ShardHandle(shard_id, link.start_worker(shard_id, init))
                for worker_id in fleet.states:
                    state = fleet.peek_state(worker_id)
                    handle.cursor[worker_id] = (state.plan_version, state.online)
                self._handles.append(handle)
            for handle in self._handles:
                error = link.wait_ready(handle.link, self._ready_timeout)
                if error is not None:
                    raise DispatchError(
                        f"shard worker {handle.shard_id} died during startup:\n{error}"
                    )
        except Exception:
            self.close()
            raise
        self._started = True

    def _shard_init(self, shard_id: int, incarnation: int = 0) -> ShardInit:
        """The build payload of a shard's worker: authoritative state as it stands."""
        respawn = ("incarnation", incarnation) if incarnation else ()
        return ShardInit(
            shard_id=shard_id,
            inner=self.inner,
            config=self.config,
            partition=self.partition,
            instance=self.instance,
            membership=dict(self._membership),
            seed=derive_spawned_seed(self.seed, "cluster-shard", shard_id, *respawn),
            extra_workers=tuple(self._added_workers),
            applied_updates=tuple(self._applied_updates),
        )

    def close(self) -> None:
        """Shut every worker process down; idempotent, never leaves orphans.

        Also reaps a replacement worker that was never adopted — a shutdown
        may land while a shard is mid-recovery, and must still exit hang-free
        and orphan-free.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            if handle.health == ShardHealth.UP:
                try:
                    handle.link.send(ShutdownCommand())
                except (BrokenPipeError, OSError):
                    pass
            handle.link.close(grace=1.5)
            if handle.respawn is not None and handle.respawn.link is not None:
                handle.respawn.link.close()

    def __enter__(self) -> "ClusterDispatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # last-resort reaping; close() is the real path
        try:
            self.close()
        except Exception:
            pass

    # --------------------------------------------------------- communication

    def _live(self) -> list[_ShardHandle]:
        """Process-backed (``up``) shards of an open dispatcher."""
        up = [handle for handle in self._handles if handle.health == ShardHealth.UP]
        return [] if self._closed else up

    def _log(self, event: str, shard_id: int) -> None:
        self.recovery_log.append((event, shard_id))

    def _send(self, handle: _ShardHandle, command) -> bool:
        """Send with bounded transient retries; ``False`` = worker marked down."""
        policy = self.retry_policy
        for attempt in range(policy.attempts):
            try:
                handle.link.send(command)
            except TRANSIENT_ERRORS:
                self.retries += 1
                self._log("retry", handle.shard_id)
                _time.sleep(policy.delay(attempt, self._retry_rng))
                continue
            except (BrokenPipeError, OSError):
                self._mark_dead(handle)
                return False
            self.commands_sent += 1
            return True
        self._mark_dead(handle)
        return False

    def _recv(self, handle: _ShardHandle):
        """Blocking receive with liveness polling; ``None`` = worker died.

        Each expired ``dispatch_timeout`` window burns one retry attempt
        (logged ``timeout`` then ``retry``); only after ``retry_attempts``
        expiries is the worker marked down — the timeout → retry → mark-down
        ordering the recovery log records. A runtime error reply also marks
        the worker down (its traceback lands in ``handle.last_error``) and
        fails over instead of raising.
        """
        policy = self.retry_policy
        timeouts_left = policy.attempts
        transient_left = policy.attempts
        deadline = _time.monotonic() + self.dispatch_timeout
        while True:
            try:
                if handle.link.poll(0.1):
                    reply = handle.link.recv()
                    if isinstance(reply, AckReply) and reply.error:
                        handle.last_error = reply.error
                        self._log("worker_error", handle.shard_id)
                        self._mark_dead(handle)
                        return None
                    return reply
            except TRANSIENT_ERRORS:
                transient_left -= 1
                if transient_left <= 0:
                    self._mark_dead(handle)
                    return None
                self.retries += 1
                self._log("retry", handle.shard_id)
                _time.sleep(
                    policy.delay(policy.attempts - transient_left, self._retry_rng)
                )
                continue
            except (EOFError, OSError):
                self._mark_dead(handle)
                return None
            if not handle.link.alive():
                # one last poll: the worker may have replied right before exiting
                try:
                    if handle.link.poll(0):
                        continue
                except (EOFError, OSError):
                    pass
                self._mark_dead(handle)
                return None
            if _time.monotonic() > deadline:
                timeouts_left -= 1
                self._log("timeout", handle.shard_id)
                if timeouts_left <= 0:
                    self._mark_dead(handle)
                    return None
                self.retries += 1
                self._log("retry", handle.shard_id)
                deadline = _time.monotonic() + self.dispatch_timeout

    def _roundtrip(self, handle: _ShardHandle, command):
        """Send ``command`` and receive its reply; ``None`` = the worker is down."""
        if handle.health != ShardHealth.UP or not self._send(handle, command):
            return None
        return self._recv(handle)

    def _mark_dead(self, handle: _ShardHandle) -> None:
        """Reap a dead worker and fail its shard over to in-process serving.

        The shard's deferred work stays *home*: worker-held re-deferrals
        return to the front of the buffered window at their true defer clock
        (the last flush clock), and the already-scheduled flush resolves the
        whole window through the failover shard — nothing is dropped,
        nothing re-routed, nothing decided twice.
        """
        if handle.health != ShardHealth.UP:
            return
        handle.health = ShardHealth.DEGRADED
        handle.pending_moves.clear()
        handle.additions.clear()
        handle.link.close()
        if not self._started or self._closed:
            # startup failure or shutdown race: no failover machinery needed
            handle.next_flush = None
            return
        self.worker_failures += 1
        self._log("worker_down", handle.shard_id)
        orphans = [
            self._requests[request_id]
            for request_id in handle.pending_ids
            if request_id in self._requests
        ]
        handle.window[:0] = [(request, handle.pending_clock) for request in orphans]
        handle.pending_ids = []
        self._failover(handle)
        self._respawn_or_degrade(handle, self.fleet.clock)

    def _respawn_or_degrade(self, handle: _ShardHandle, clock: float) -> None:
        """Fork the shard's next worker while its restart budget lasts, else
        degrade the shard for good.

        The rebuild payload is pickled here, before the live instance can
        change further: the replica is pinned to the network-update journal
        as it stands, and adoption replays the rest. The fork returns without
        waiting; the adoption gate reads the ready acknowledgement.
        """
        handle.respawn = None
        if handle.incarnation >= self.max_restarts:
            handle.health = ShardHealth.DEGRADED
            self._log("degraded_permanent", handle.shard_id)
            return
        handle.incarnation += 1
        init = self._shard_init(handle.shard_id, handle.incarnation)
        payload = pickle.dumps(init, protocol=pickle.HIGHEST_PROTOCOL)
        respawn = Respawn(
            not_before=clock + self.restart_delay_s,
            membership=init.membership,
            extra_count=len(init.extra_workers),
            updates_count=len(init.applied_updates),
        )
        try:
            respawn.link = link.start_worker(handle.shard_id, payload, handle.incarnation)
        except Exception:  # noqa: BLE001 - a failed fork is a failed ready
            respawn.error = traceback.format_exc()
        handle.respawn = respawn
        handle.health = ShardHealth.RECOVERING
        self._log("respawn_scheduled", handle.shard_id)

    # --------------------------------------------------------------- recovery

    def _poll_recovery(self, now: float) -> None:
        """Adopt due replacements — the deterministic recovery gate.

        Runs at the head of every ``dispatch``/``flush`` entry: a shard whose
        respawn is past ``restart_delay_s`` (simulated time) waits for its
        replacement's ready acknowledgement and switches back to
        process-backed serving *before* the entry is routed, so recovery
        points are a pure function of the workload. A replacement that fails
        to become ready is reaped and respawned (or the shard degraded).
        """
        if self._closed:
            return
        for handle in self._handles:
            respawn = handle.respawn
            if handle.health != ShardHealth.RECOVERING or now < respawn.not_before:
                continue
            error = respawn.error or link.wait_ready(respawn.link, self._ready_timeout)
            if error is None:
                self._adopt(handle, respawn)
                continue
            if respawn.link is not None:
                respawn.link.close()
            handle.last_error = error
            self._log("respawn_failed", handle.shard_id)
            self._respawn_or_degrade(handle, now)

    def _adopt(self, handle: _ShardHandle, respawn: Respawn) -> None:
        """Install a rebuilt worker process on its shard handle.

        Clearing the sync cursor makes the next command ship a full plan
        snapshot of every current member — snapshots are absolute and
        anchored at the command clock, so the fresh replica re-anchors
        exactly; earlier advance clocks are no-ops by protocol. Membership
        drift and the workers added since the respawn payload was pickled are
        queued as moves and additions for the next command.
        """
        degraded = handle.degraded
        handle.link, handle.respawn = respawn.link, None
        handle.health = ShardHealth.UP
        handle.last_error = None
        handle.cursor.clear()
        handle.stale = members_of(self._membership, handle.shard_id)
        # a down shard buffers no moves, clocks or additions (_mark_dead
        # emptied them): queue what the rebuilt replica has not seen
        handle.additions[:] = self._added_workers[respawn.extra_count :]
        # the failover shard's surviving re-deferrals return to the
        # buffered window at their defer clock; the rebuilt worker replays
        # them inside the next flush command. All state transfer happens
        # *before* any send — if the rebuilt worker dies immediately, the
        # resulting _mark_dead must see a fully-owned window.
        if degraded is not None:
            handle.window[:0] = [
                (self._requests[request_id], handle.pending_clock)
                for request_id in degraded.pending_ids()
                if request_id in self._requests
            ]
        handle.pending_ids = []
        handle.degraded = None
        handle.pending_moves[:] = [
            (worker_id, shard_id)
            for worker_id, shard_id in self._membership.items()
            if respawn.membership.get(worker_id) != shard_id
        ]
        self.worker_restarts += 1
        self._log("respawn_adopted", handle.shard_id)
        # replay network updates journaled after the respawn snapshot was
        # pickled: the rebuilt replica's network reflects exactly
        # ``respawn.updates_count`` updates, and each replay is hash-checked so
        # a diverged replica is killed, never adopted. The sync payload stays
        # behind: the cursor was just cleared, so full member snapshots
        # (re-timed on the replica's refreshed oracle) ship with the next
        # regular command, together with the queued moves and additions.
        for update in self._applied_updates[respawn.updates_count :]:
            reply = self._roundtrip(handle, NetworkUpdateCommand(self.fleet.clock, update))
            if reply is None or not self._replica_matches(handle, reply, update):
                return  # died or diverged during adoption; failed over
            handle.next_flush = reply.next_flush
            handle.replica_rebuilds += 1
            self._log("update_replayed", handle.shard_id)

    def _replica_matches(self, handle: _ShardHandle, reply, update: NetworkUpdate) -> bool:
        """Whether the replica's post-update content hash is the authoritative
        one; a diverged replica is marked down instead of serving a stale map."""
        if reply.content_hash == update.content_hash:
            return True
        handle.last_error = (
            f"replica content hash {reply.content_hash!r} diverged from "
            f"authoritative {update.content_hash!r} at update #{update.ordinal}"
        )
        self._log("update_hash_mismatch", handle.shard_id)
        self._mark_dead(handle)
        return False

    # ------------------------------------------------------------- plan sync

    def _prepare(self, now: float) -> None:
        """Every decision point: adopt due respawns, re-bucket."""
        self._poll_recovery(now)
        self._rebucket()

    def _relocate(self, worker_id: int, previous: int, shard_id: int, position: int) -> None:
        """Buffer a membership move for every live replica.

        The deltas ride on each shard's next command of any kind, so replica
        membership never depends on replica-side advancement; a shard serving
        in-process moves the worker at once and gets its grid cell refreshed.
        """
        target = self._handles[shard_id]
        if shard_id != previous:
            # the receiving shard stopped hearing about this worker's plan
            # while it belonged elsewhere; forget its cursor stamp so the
            # current snapshot ships together with the move
            target.cursor.pop(worker_id, None)
            target.stale.add(worker_id)
            for handle in self._handles:
                if handle.health == ShardHealth.UP:
                    handle.pending_moves.append((worker_id, shard_id))
                elif handle.degraded is not None:
                    handle.degraded.move(worker_id, shard_id)
        if target.degraded is not None:
            target.degraded.dispatcher.grid.update(worker_id, position)

    @staticmethod
    def _take(pending: list) -> tuple:
        """Empty one of a handle's buffers into the command about to ship."""
        if not pending:
            return ()
        taken = tuple(pending)
        pending.clear()
        return taken

    def _sync_payload(self, handle: _ShardHandle) -> tuple[WorkerPlan, ...]:
        """Member plans changed since ``handle`` was last commanded.

        A replica only reads the plans of its *own members* (its decisions
        never touch other shards' workers), so each plan change crosses one
        pipe, not K — a worker migrating in gets its snapshot shipped with
        the move because ``_relocate`` dropped its cursor stamp.
        Only workers the fleet reported as re-planned or re-shifted since
        (``drain_restamped``, filed under the shard that owns them now) are
        compared against the cursor, in fleet order.
        """
        fleet = self.fleet
        assert fleet is not None
        membership = self._membership
        for worker_id in fleet.drain_restamped():
            owner = membership.get(worker_id)
            if owner is not None:
                self._handles[owner].stale.add(worker_id)
        shard_id = handle.shard_id
        changed: list[WorkerPlan] = []
        cursor = handle.cursor
        for worker_id in fleet.in_fleet_order(handle.stale):
            if membership.get(worker_id) != shard_id:
                continue
            state = fleet.peek_state(worker_id)
            stamp = (state.plan_version, state.online)
            if cursor.get(worker_id) != stamp:
                cursor[worker_id] = stamp
                changed.append(plan_snapshot(state))
        handle.stale.clear()
        return tuple(changed)

    def _own_request(self, shipped: Request) -> Request:
        return self._requests.get(shipped.id, shipped)

    def _apply_plan(
        self, handle: _ShardHandle, plan: WorkerPlan
    ) -> "dict[int, ServiceRecord]":
        """Install a worker's new plan (computed by a replica) authoritatively.

        The replica ran the *real* inner dispatcher on bit-identical state, so
        its resulting route — anchor, stop sequence, concrete path — IS what
        an in-process run would have produced; the plan is adopted wholesale.
        Two pieces of bookkeeping need replaying rather than adopting:

        * the worker is first materialised to the clock along its *old* route
          (``state_of``), mirroring the replica's pre-decision advancement —
          that walk charges travelled cost and buffers completions on the
          authoritative side exactly as an in-process touch would;
        * movement the replica did *during* the decision is invisible here (a
          batch insertion can anchor a route in the past, and a later
          same-command touch walks the worker forward along the new legs,
          completing past-due stops) — ``plan.walked_cost`` carries that
          travelled delta, and service-record times completed replica-side
          are adopted.

        Deliveries completed during the decision are *returned* (request id →
        record) rather than buffered: the caller pushes them into the
        engine's completion buffer following the reply's ``completed_ids``
        stamping order, because metric means sum left-to-right.

        Stops and records are re-keyed onto the front door's own
        :class:`Request` objects so the engine's completion records and
        cancellation lookups keep referencing the instances it handed out.
        """
        from repro.core.route import Route
        from repro.simulation.fleet import ServiceRecord

        fleet = self.fleet
        assert fleet is not None
        state = fleet.state_of(plan.worker_id)
        stops = [
            Stop(vertex=stop.vertex, request=self._own_request(stop.request), kind=stop.kind)
            for stop in plan.stops
        ]
        # the replica's anchor is the front door's own after ``state_of``
        # (both advanced to this clock, and grid sums do not depend on the
        # steps), or the one it walked the worker to during the decision
        state.travelled_cost += plan.walked_cost
        state.replace_route(
            Route(
                worker=state.worker,
                origin=plan.origin,
                start_time=plan.start_time,
                stops=stops,
                concrete_path=plan.concrete_path,
            )
        )
        records: dict[int, ServiceRecord] = {}
        completed: dict[int, ServiceRecord] = {}
        for record in plan.records:
            existing = state.assigned_requests.get(record.request.id)
            if existing is not None:
                if existing.pickup_time is None and record.pickup_time is not None:
                    existing.pickup_time = record.pickup_time
                if existing.dropoff_time is None and record.dropoff_time is not None:
                    existing.dropoff_time = record.dropoff_time
                    completed[record.request.id] = existing
                records[record.request.id] = existing
            else:
                fresh = ServiceRecord(
                    request=self._own_request(record.request),
                    worker_id=plan.worker_id,
                    pickup_time=record.pickup_time,
                    dropoff_time=record.dropoff_time,
                )
                if fresh.dropoff_time is not None:
                    # assigned and delivered within one command
                    completed[record.request.id] = fresh
                records[record.request.id] = fresh
            fleet._assignment_hint[record.request.id] = plan.worker_id
        state.assigned_requests = records
        # the shard that produced this plan already holds it; record the new
        # authoritative stamp so the next sync does not echo it back
        handle.cursor[plan.worker_id] = (state.plan_version, state.online)
        return completed

    def _push_completions(
        self, records: "dict[int, ServiceRecord]", ordered_ids: tuple[int, ...]
    ) -> None:
        """Buffer decision-time deliveries in the replica's stamping order."""
        if not records:
            return
        completions = self.fleet._completions
        for request_id in ordered_ids:
            record = records.pop(request_id, None)
            if record is not None:
                completions.append(record)
        # a delivery the replica did not report in order still counts once
        completions.extend(records.values())

    # --------------------------------------------------------------- running

    def _ask(self, shard_id: int, request: Request, now: float) -> DispatchOutcome | None:
        """One shard's answer: a buffered deferral, a worker round trip, or
        the in-process failover.

        A worker that dies mid-command never mutated authoritative state (it
        only mutates through applied replies), so re-executing the decision
        degraded at the same clock on the same state reproduces exactly what
        the replica would have answered.
        """
        handle = self._handles[shard_id]
        self._requests[request.id] = request
        if self._batched:
            # a down shard still buffers its own window — the failover shard
            # (or the rebuilt worker) resolves it at the flush
            return self._defer_to(handle, request, now)
        handle.dispatch_calls += 1
        if handle.health == ShardHealth.UP:
            reply = self._roundtrip(
                handle,
                DispatchCommand(
                    now,
                    request,
                    self._sync_payload(handle),
                    moves=self._take(handle.pending_moves),
                    additions=self._take(handle.additions),
                ),
            )
            if reply is not None:
                handle.next_flush = reply.next_flush
                outcome = reply.outcome.to_outcome(request)
                if outcome.served:
                    self._push_completions(
                        self._apply_plan(handle, reply.plan), reply.completed_ids
                    )
                return outcome
        degraded = self._failover(handle)
        self.degraded_dispatches += 1
        self._log("degraded_dispatch", handle.shard_id)
        outcome = degraded.dispatcher.dispatch(request, now)
        handle.next_flush = degraded.dispatcher.next_flush_time()
        return outcome

    def _failover(self, handle: _ShardHandle) -> Shard:
        """The in-process shard serving ``handle``'s shard while its worker is down."""
        if handle.degraded is None:
            handle.degraded = Shard(
                handle.shard_id, self.inner, self.config, self.instance, self.fleet,
                self._membership,
            )
        return handle.degraded

    def _defer_to(
        self, handle: _ShardHandle, request: Request, now: float
    ) -> DispatchOutcome | None:
        """Buffer a request into a shard's batch window (no pipe traffic).

        Deferrals read no fleet state, so the window accumulates front-door
        side and ships inside the flush command; its depth is the bounded
        queue the backpressure policy enforces.
        """
        if len(handle.window) + len(handle.pending_ids) >= self.max_pending:
            self.admission_rejections += 1
            self.rejections += 1
            return DispatchOutcome(
                request=request, served=False, rejection_reason="saturated"
            )
        handle.dispatch_calls += 1
        handle.window.append((request, now))
        # exact float mirror of BatchDispatcher.defer
        if handle.next_flush is None:
            handle.next_flush = now + self.config.batch_interval
            if self._flush_scheduler is not None:
                self._flush_scheduler(handle.next_flush)
        return None

    # ------------------------------------------------------- batch protocol

    def next_flush_time(self) -> float | None:
        # degraded shards flush too (in-process), so every handle counts
        times = [
            handle.next_flush
            for handle in self._handles
            if handle.next_flush is not None
        ]
        return min(times) if times else None

    def flush(self, now: float) -> list[DispatchOutcome]:
        """Flush every due shard: parallel fan-out, deterministic apply order.

        Sync payloads for all due shards are computed *before* any command is
        sent (due shards never observe each other's flush results — their
        member sets are disjoint, exactly as in-process), then replies are
        received and applied in shard-id order, matching the in-process
        iteration order outcome for outcome. A shard that is down — or dies
        during this very flush — resolves its entire buffered window through
        the failover shard at the same clock, in its same shard-id slot:
        the authoritative fleet only ever mutates when a reply is applied, so
        the re-execution decides each request exactly once, bit-identically.
        """
        self._prepare(now)
        due: list[tuple[_ShardHandle, int, FlushCommand | None]] = []
        for handle in self._handles:
            if handle.next_flush is None or handle.next_flush > now:
                continue
            if handle.health == ShardHealth.UP:
                due.append(
                    (
                        handle,
                        len(handle.window),
                        FlushCommand(
                            now,
                            self._sync_payload(handle),
                            deferrals=tuple(handle.window),
                            moves=self._take(handle.pending_moves),
                            additions=self._take(handle.additions),
                        ),
                    )
                )
            else:
                due.append((handle, len(handle.window), None))
        for handle, _, command in due:
            if command is not None and handle.health == ShardHealth.UP:
                self._send(handle, command)
        outcomes: list[DispatchOutcome] = []
        for handle, shipped, command in due:
            reply = None
            if command is not None and handle.health == ShardHealth.UP:
                reply = self._recv(handle)
            if reply is not None:
                # only drop what this command actually shipped, never
                # deferrals appended to the buffer while the reply was in flight
                del handle.window[:shipped]
                handle.next_flush = reply.next_flush
                handle.pending_ids = [
                    request_id
                    for request_id in reply.pending_ids
                    if request_id in self._requests
                ]
                handle.pending_clock = now
                fresh: dict[int, "ServiceRecord"] = {}
                for worker_id in sorted(reply.plans):
                    fresh.update(self._apply_plan(handle, reply.plans[worker_id]))
                self._push_completions(fresh, reply.completed_ids)
                outcomes.extend(
                    payload.to_outcome(self._own_request_by_id(payload.request_id))
                    for payload in reply.outcomes
                )
                continue
            # down shard (or death during this flush): the whole current
            # window — including re-deferrals _mark_dead just returned home —
            # resolves in-process, exactly once
            deferrals = tuple(handle.window)
            handle.window.clear()
            outcomes.extend(self._flush_degraded(handle, deferrals, now))
        return self._tally(outcomes)

    def _flush_degraded(
        self, handle: _ShardHandle, deferrals, now: float
    ) -> list[DispatchOutcome]:
        """Run one shard's flush through the in-process failover shard."""
        degraded = self._failover(handle)
        self.degraded_dispatches += len(deferrals)
        self._log("degraded_flush", handle.shard_id)
        outcomes = degraded.flush(deferrals, now)
        # mirror exactly what a worker reply would piggyback
        handle.next_flush = degraded.dispatcher.next_flush_time()
        handle.pending_ids = degraded.pending_ids()
        handle.pending_clock = now
        return outcomes

    def _own_request_by_id(self, request_id: int) -> Request:
        request = self._requests.get(request_id)
        if request is None:
            raise DispatchError(f"unknown request id {request_id} in flush reply")
        return request

    def cancel(self, request: Request) -> bool:
        """Drop a deferred request; buffered windows cancel without a pipe trip.

        Only requests a worker still holds (re-deferrals surviving a flush)
        need the round trip; mirroring ``BatchDispatcher.cancel``, an emptied
        window keeps its scheduled flush (which then comes up empty).
        """
        for handle in self._handles:
            for index, (pending, _) in enumerate(handle.window):
                if pending.id == request.id:
                    del handle.window[index]
                    return True
        for handle in self._handles:
            if request.id not in handle.pending_ids:
                continue
            if handle.health != ShardHealth.UP:
                # the failover shard holds the re-deferred window in-process
                removed = False
                if handle.degraded is not None:
                    removed = handle.degraded.dispatcher.cancel(request)
                    handle.next_flush = handle.degraded.dispatcher.next_flush_time()
                if request.id in handle.pending_ids:
                    handle.pending_ids.remove(request.id)
                return removed
            reply = self._roundtrip(
                handle,
                CancelCommand(
                    self.fleet.clock,
                    request,
                    self._sync_payload(handle),
                    moves=self._take(handle.pending_moves),
                    additions=self._take(handle.additions),
                ),
            )
            if reply is None:
                # worker died mid-cancel; _mark_dead returned its held window
                # to handle.window — re-scan resolves against the buffer
                return self.cancel(request)
            handle.next_flush = reply.next_flush
            if reply.removed and request.id in handle.pending_ids:
                handle.pending_ids.remove(request.id)
            return reply.removed
        return False

    def notify_worker_added(self, worker_id: int) -> None:
        """Queue the new worker for every replica's next command.

        Down shards learn about the newcomer through their failover shard
        immediately, and a later respawn registers it from ``_added_workers``
        (:class:`~repro.cluster.messages.ShardInit` or the adopted handle's
        additions).
        """
        assert self.fleet is not None and self.partition is not None
        state = self.fleet.peek_state(worker_id)
        # record the bucketing each replica will derive for the newcomer, so
        # the next membership resync does not echo it back as a move
        home = self.partition.shard_of_vertex(state.position)
        self._membership[worker_id] = home
        addition = (state.worker, self.fleet.clock)
        self._added_workers.append(addition)
        for handle in self._handles:
            if handle.health == ShardHealth.UP:
                handle.additions.append(addition)
                handle.cursor[worker_id] = (state.plan_version, state.online)
            elif handle.degraded is not None and handle.shard_id == home:
                handle.degraded.add(worker_id, state.position)

    def apply_network_update(self, mutations, now: float) -> None:
        """Broadcast a live network mutation batch to every shard replica.

        Called by the engine *after* it mutated the authoritative network,
        refreshed the instance oracle and rebuilt every route — so the
        journal entry built here captures the post-mutation content hash and
        ``_sync_payload`` ships the post-rebuild route snapshots. The
        broadcast is a **barrier**: commands fan out to every UP shard, then
        acknowledgements are collected in shard order under the usual retry
        policy — a straggler burns ``retry_attempts`` timeout windows before
        its worker is marked down, and a replica whose post-replay content
        hash diverges from the authoritative one is killed rather than left
        serving on a stale map (both fail over to the in-process failover
        shard, which shares the already-updated authoritative state).
        """
        self._prepare(now)
        update = NetworkUpdate(
            ordinal=len(self._applied_updates),
            clock=now,
            mutations=tuple(mutations),
            content_hash=network_content_hash(self.instance.network),
        )
        # journal before broadcasting: any respawn scheduled from here on
        # snapshots an instance that already reflects this update
        self._applied_updates.append(update)
        self.network_updates_applied += 1
        retries_before = self.retries
        sent: list[_ShardHandle] = []
        for handle in self._handles:
            if handle.health != ShardHealth.UP:
                continue
            command = NetworkUpdateCommand(
                now,
                update,
                plans=self._sync_payload(handle),
                moves=self._take(handle.pending_moves),
                additions=self._take(handle.additions),
            )
            if self._send(handle, command):
                self._log("update_sent", handle.shard_id)
                sent.append(handle)
        for handle in sent:
            reply = self._recv(handle)
            if reply is None:
                continue  # marked down; degraded failover notified below
            handle.next_flush = reply.next_flush
            if not self._replica_matches(handle, reply, update):
                continue
            handle.replica_rebuilds += 1
            self._log("update_ack", handle.shard_id)
        self.update_ack_retries += self.retries - retries_before
        # shards serving in-process (recovering or permanently degraded) run
        # on the authoritative fleet and oracle — already updated — and only
        # need their inner dispatcher's grid re-derived
        for handle in self._handles:
            if handle.health != ShardHealth.UP and handle.degraded is not None:
                handle.degraded.dispatcher.notify_network_changed()
                self._log("update_degraded", handle.shard_id)

    # --------------------------------------------------------------- metrics

    def queue_depth(self) -> int:
        """Deferred requests awaiting a decision across all shards."""
        return sum(
            len(handle.window) + len(handle.pending_ids) for handle in self._handles
        )

    def memory_estimate_bytes(self) -> int:
        return 0  # worker grids live in the shard processes

    def oracle_counter_totals(self) -> OracleCounters | None:
        """Front-door oracle work + every live replica's (gathered via RPC).

        Replicas re-derive fleet materialisation locally, so these totals
        intentionally include that duplicated work — they describe what the
        cluster actually computed, not what a single process would have.
        """
        replies = [self._roundtrip(handle, StatsCommand()) for handle in self._live()]
        shared = self.oracle.counters
        totals = OracleCounters.merge([shared] + [
            reply.counters
            for reply in replies
            if isinstance(reply, StatsReply)
        ])
        totals.path_cache = shared.path_cache
        totals.backend = shared.backend
        return totals

    def extra_metrics(self) -> dict[str, float]:
        extra = super().extra_metrics()
        extra.update({
            "cluster_live_workers": float(len(self._live())),
            "cluster_admission_rejections": float(self.admission_rejections),
            "cluster_worker_failures": float(self.worker_failures),
            "cluster_worker_restarts": float(self.worker_restarts),
            "cluster_retries": float(self.retries),
            "cluster_degraded_dispatches": float(self.degraded_dispatches),
            "cluster_commands_sent": float(self.commands_sent),
            "cluster_network_updates": float(self.network_updates_applied),
            "cluster_update_ack_retries": float(self.update_ack_retries),
        })
        for handle in self._handles:
            extra[f"cluster_shard{handle.shard_id}_dispatch_calls"] = float(
                handle.dispatch_calls
            )
            extra[f"cluster_shard{handle.shard_id}_health"] = HEALTH_CODES[
                handle.health
            ]
            extra[f"cluster_shard{handle.shard_id}_replica_rebuilds"] = float(
                handle.replica_rebuilds
            )
        return extra

    def shard_health(self) -> tuple[str, ...]:
        """Per-shard health, shard-id order (``up``/``recovering``/``degraded``)."""
        return tuple(handle.health for handle in self._handles)

    def child_processes(self) -> list:
        """Every live child this dispatcher is responsible for reaping."""
        links = [handle.link for handle in self._handles]
        links += [
            handle.respawn.link
            for handle in self._handles
            if handle.respawn is not None and handle.respawn.link is not None
        ]
        return [started.process for started in links if started.alive()]
