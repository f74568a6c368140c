"""Shard worker process: a deterministic full-fleet replica + inner dispatcher.

Each worker process owns one spatial shard. It holds its *own*
:class:`~repro.simulation.fleet.FleetState` replica of the whole fleet and a
:class:`~repro.sharding.router.Shard` over it — the in-process shard the
sharded dispatcher and the front door's failover also run; every query goes
to the oracle of the replica's instance copy.

Determinism contract
--------------------

The cluster dispatcher always materialises exact positions
(``requires_exact_positions``), so the authoritative fleet is advanced to the
event clock before every dispatcher interaction. The replica reproduces the
slice of that state its decisions depend on from three ingredients, all
deterministic:

1. **plan snapshots** piggybacked on each command — absolute (origin, start
   time, stops, records) state of every worker whose plan changed since this
   shard was last commanded;
2. **membership moves** — the front door re-buckets moved workers against the
   partition (``ShardRouter._rebucket``, the loop in-process sharding runs,
   computed on the authoritative fleet) and piggybacks the ``(worker,
   shard)`` deltas, so membership never depends on replica-side advancement;
   and
3. **member advancement**: before a decision, the replica advances *its own
   members* to the command clock with one ``FleetState.advance_rows`` over the
   member rows — the very routine the front door's ``advance_all`` runs over
   all rows — and refreshes the grid cells of the members that moved. Only
   the **busy, due** members are walked (``RouteTable.busy_due``): for every
   other busy member ``advance_to(clock)`` has no side effect (the route
   table's window invariant), and an *idle* member's clock bump is idempotent
   (``start_time = clock``), so it happens when something reads the worker
   (``state_of`` / ``states_of``), on either side, with the same result. The
   front door may have advanced a member at several clocks (every arrival,
   deferred ones included, every flush, single-worker touches) where the
   replica advances once; both land on the same bits, because every time is
   on the grid of :mod:`repro.core.timegrid` and sums of grid values do not
   depend on how they are grouped. So when a decision's new plan anchors in
   the past, its next stop already due, the engine completes that stop at
   the decision clock and the replica at its next advancement, with the same
   result. Per command the replica pays one vector comparison over its
   member rows plus a walk per member that actually moves — not a Python
   visit per member, let alone per worker of the fleet; cancellations touch
   no positions at all, exactly like their in-process counterparts.

Workers that join the fleet arrive as ``(worker, add clock)`` additions on
the shard's next command; the replica registers them at their add clock
before it applies that command's moves and plans.
"""

from __future__ import annotations

import pickle
import random
import traceback

import numpy as np

from repro.cluster.messages import (
    AckReply,
    CancelCommand,
    CancelReply,
    DispatchCommand,
    DispatchReply,
    FlushCommand,
    FlushReply,
    NetworkUpdateCommand,
    OutcomePayload,
    RecordSnapshot,
    ShardInit,
    ShutdownCommand,
    StatsCommand,
    StatsReply,
    UpdateReply,
    WorkerPlan,
)
from repro.core.route import Route
from repro.network.oracle import OracleCounters
from repro.sharding.router import Shard
from repro.simulation.fleet import FleetState, ServiceRecord, WorkerState
from repro.utils.rng import make_rng


def plan_snapshot(state: WorkerState, walked_cost: float = 0.0) -> WorkerPlan:
    """Absolute snapshot of one worker's plan (both sides use this)."""
    route = state.route
    return WorkerPlan(
        worker_id=state.worker.id,
        origin=route.origin,
        start_time=route.start_time,
        stops=tuple(route.stops),
        records=tuple(
            RecordSnapshot(
                request=record.request,
                pickup_time=record.pickup_time,
                dropoff_time=record.dropoff_time,
            )
            for record in state.assigned_requests.values()
        ),
        online=state.online,
        plan_version=state.plan_version,
        concrete_path=route.concrete_path,
        walked_cost=walked_cost,
    )


class ShardWorkerRuntime:
    """The state machine a shard worker process runs."""

    def __init__(self, init: ShardInit) -> None:
        self.shard_id = init.shard_id
        self.partition = init.partition
        self.instance = init.instance
        # per-process deterministic seeding (spawn-key derived at the front
        # door); any library-level randomness inside a worker process draws
        # from streams fully determined by the platform seed and shard id.
        random.seed(init.seed)
        self.rng = make_rng(init.seed)
        self.fleet = FleetState(self.instance.workers, self.instance.oracle)
        # a respawned replica replays workers added after the original fork;
        # their exact member state arrives with the first command (the front
        # door cleared this shard's sync cursor at adoption)
        for worker, clock in init.extra_workers:
            self.fleet.add_worker(worker, at_time=clock)
        # network-update cursor: ``init.applied_updates`` are already baked
        # into the pickled instance (the respawn snapshot is taken from the
        # live, mutated network), so the replica only records how many it has
        # and rejects out-of-order NetworkUpdateCommands as protocol errors.
        self.updates_applied = len(init.applied_updates)
        self.shard = Shard(
            init.shard_id, init.inner, init.config, self.instance, self.fleet,
            init.membership,
        )
        self.view, self.inner = self.shard.view, self.shard.dispatcher
        self._handlers = {
            DispatchCommand: self.handle_dispatch,
            FlushCommand: self.handle_flush,
            CancelCommand: self.handle_cancel,
            NetworkUpdateCommand: self.handle_network_update,
            StatsCommand: self.handle_stats,
        }
        #: sorted route-table rows of the members; ``None`` after a membership
        #: move or a new table row (see :meth:`_member_rows`).
        self._rows: np.ndarray | None = None

    # ----------------------------------------------------------------- sync

    def _apply_plans(self, plans) -> None:
        for plan in plans:
            state = self.fleet.peek_state(plan.worker_id)
            route = Route(
                worker=state.worker,
                origin=plan.origin,
                start_time=plan.start_time,
                stops=list(plan.stops),
                concrete_path=plan.concrete_path,
            )
            state.replace_route(route)
            state.assigned_requests = {
                record.request.id: ServiceRecord(
                    request=record.request,
                    worker_id=plan.worker_id,
                    pickup_time=record.pickup_time,
                    dropoff_time=record.dropoff_time,
                )
                for record in plan.records
            }
            self.fleet.set_online(plan.worker_id, plan.online)
            state.plan_version = plan.plan_version

    def _register(self, additions) -> None:
        """Add the workers that joined the fleet, each at its add clock."""
        for worker, clock in additions:
            state = self.fleet.add_worker(worker, at_time=clock)
            if self.partition.shard_of_vertex(state.position) == self.shard_id:
                self.shard.add(worker.id, state.position)
            self._rows = None  # the new table row shifted the ones behind it

    def _apply_moves(self, moves) -> None:
        """Install the front door's membership deltas (authoritative)."""
        for worker_id, shard_id in moves:
            self.shard.move(worker_id, shard_id)
            self._rows = None

    def _member_rows(self) -> np.ndarray:
        """Route-table rows of this shard's members, cached between moves."""
        if self._rows is None:
            self._rows = np.sort(self.fleet.table.rows_of(list(self.view.members)))
        return self._rows

    def _advance_members(self, clock: float) -> None:
        """Advance this shard's members to ``clock``; re-cell the moved ones.

        One ``FleetState.advance_rows`` over the member rows — the routine
        the front door's ``advance_all`` runs over every row — so only busy,
        due members are walked. The grid then takes the position of every member
        marked moved since the last advancement: by these walks, by a plan
        snapshot, or during the previous decision. Completions and dirty
        plans are consumed — replicas have no event heap and no metrics.
        """
        fleet = self.fleet
        fleet.advance_rows(self._member_rows(), clock)
        grid = self.inner.grid
        members = self.view.members
        for worker_id in fleet.drain_moved():
            if worker_id in members:
                grid.update(worker_id, fleet.peek_state(worker_id).position)
        self._housekeeping()

    def _prepare(self, command, advance: bool) -> None:
        self._register(command.additions)
        self._apply_moves(command.moves)
        self._apply_plans(command.plans)
        if advance:
            self._advance_members(command.clock)
        else:
            self.fleet.set_clock(command.clock)

    def _housekeeping(self) -> None:
        """Consume fleet change-tracking the replica has no use for.

        Motion marks are *not* consumed here: they wait for the next
        :meth:`_advance_members`, which turns them into grid updates.
        """
        self.fleet.drain_completions()
        self.fleet.drain_dirty_plans()

    def _travelled_baseline(self) -> dict[int, float]:
        """Members' travelled costs before the inner call (see ``walked_cost``)."""
        states = self.fleet.states
        return {
            worker_id: states[worker_id].travelled_cost
            for worker_id in self.view.members
        }

    def _snapshot(self, worker_id: int, baseline: dict[int, float]) -> WorkerPlan:
        state = self.fleet.peek_state(worker_id)
        return plan_snapshot(
            state,
            walked_cost=state.travelled_cost
            - baseline.get(worker_id, state.travelled_cost),
        )

    # ------------------------------------------------------------- commands

    def handle_dispatch(self, command: DispatchCommand) -> DispatchReply:
        # batch inners defer — no candidate is touched, so no advancement
        self._prepare(command, advance=not self.inner.is_batched)
        baseline = self._travelled_baseline()
        outcome = self.inner.dispatch(command.request, command.clock)
        # deliveries stamped *during* the decision, in stamping order — the
        # pre-decision advancement already drained its own completions
        completed = tuple(
            record.request.id for record in self.fleet.drain_completions()
        )
        self._housekeeping()
        plan = None
        payload = None
        if outcome is not None:
            payload = OutcomePayload.from_outcome(outcome)
            if outcome.served and outcome.worker_id is not None:
                plan = self._snapshot(outcome.worker_id, baseline)
        return DispatchReply(
            outcome=payload,
            plan=plan,
            next_flush=self.inner.next_flush_time(),
            completed_ids=completed,
        )

    def handle_flush(self, command: FlushCommand) -> FlushReply:
        self._prepare(command, advance=True)
        baseline = self._travelled_baseline()
        # the window the front door buffered is replayed, then flushed
        outcomes = self.shard.flush(command.deferrals, command.clock)
        completed = tuple(
            record.request.id for record in self.fleet.drain_completions()
        )
        self._housekeeping()
        plans: dict[int, WorkerPlan] = {}
        for outcome in outcomes:
            if outcome.served and outcome.worker_id is not None:
                plans[outcome.worker_id] = self._snapshot(outcome.worker_id, baseline)
        return FlushReply(
            outcomes=tuple(OutcomePayload.from_outcome(outcome) for outcome in outcomes),
            plans=plans,
            pending_ids=tuple(self.shard.pending_ids()),
            next_flush=self.inner.next_flush_time(),
            completed_ids=completed,
        )

    def handle_cancel(self, command: CancelCommand) -> CancelReply:
        # the engine cancels without materialising positions; mirror that
        self._prepare(command, advance=False)
        removed = self.inner.cancel(command.request)
        self._housekeeping()
        return CancelReply(removed=removed, next_flush=self.inner.next_flush_time())

    def handle_network_update(self, command: NetworkUpdateCommand) -> UpdateReply:
        """Replay a live network mutation batch on this replica.

        Ordering mirrors the authoritative engine exactly:

        1. worker additions and membership moves, then member advancement
           to the command clock — all on the *old* topology, matching the
           engine's fleet materialisation before the mutation;
        2. the recorded mutations, then the replica oracle's
           ``refresh_topology`` (the oracle of the *authoritative* process
           refreshed first and saved the new-topology backend into the
           shared artifact store, so replicas warm-start when one is
           configured);
        3. only then the piggybacked plan snapshots: ``replace_route``
           re-times routes against the replica oracle, so the authoritative
           post-rebuild snapshots must meet the refreshed topology;
        4. a grid rebuild via the inner dispatcher's
           ``notify_network_changed``.

        The reply echoes the replica's post-replay network content hash; the
        front door treats a mismatch as worker death.
        """
        from repro.artifacts import network_content_hash
        from repro.exceptions import DispatchError

        update = command.update
        if update.ordinal != self.updates_applied:
            raise DispatchError(
                f"shard {self.shard_id} replica expected network update "
                f"#{self.updates_applied}, got #{update.ordinal}; replica is "
                "out of sync with the front-door journal"
            )
        self._register(command.additions)
        self._apply_moves(command.moves)
        self._advance_members(command.clock)
        for mutation in update.mutations:
            mutation.apply(self.instance.network)
        self.instance.oracle.refresh_topology()
        self._apply_plans(command.plans)
        self.inner.notify_network_changed()
        self._housekeeping()
        self.updates_applied += 1
        return UpdateReply(
            content_hash=network_content_hash(self.instance.network),
            next_flush=self.inner.next_flush_time(),
        )

    def handle_stats(self, command: StatsCommand) -> StatsReply:
        # merge() copies the counts without the attached caches
        return StatsReply(counters=OracleCounters.merge([self.instance.oracle.counters]))

    def handle(self, command):
        """Run one command; any failure comes back as ``AckReply(error=...)``."""
        kind = type(command)
        handler = self._handlers.get(kind)
        if handler is None:
            return AckReply(error=f"unknown command {kind.__name__}")
        try:
            return handler(command)
        except Exception:  # noqa: BLE001 - ship the traceback instead of dying silently
            return AckReply(error=traceback.format_exc())


def shard_worker_main(connection, init: ShardInit | bytes) -> None:
    """Entry point of a shard worker process: serve commands until shutdown.

    The first reply is the ready acknowledgement: ``AckReply()``, or
    ``AckReply(error=...)`` when the replica could not be built. A respawned
    worker gets its :class:`ShardInit` pickled: the front door serialises it
    the moment it marks the old worker down, which pins the replica to the
    network-update journal cursor recorded in the shard's respawn while the
    live instance keeps changing.
    """
    try:
        runtime = ShardWorkerRuntime(pickle.loads(init) if isinstance(init, bytes) else init)
    except Exception:  # noqa: BLE001 - surface the build failure to the front door
        connection.send(AckReply(error=traceback.format_exc()))
        connection.close()
        return
    connection.send(AckReply())  # ready
    while True:
        try:
            command = connection.recv()
        except (EOFError, OSError):
            break
        if isinstance(command, ShutdownCommand):
            connection.send(AckReply())
            break
        try:
            connection.send(runtime.handle(command))
        except (BrokenPipeError, OSError):
            break
    connection.close()


__all__ = [
    "ShardWorkerRuntime",
    "plan_snapshot",
    "shard_worker_main",
]
