"""Shard worker process: a deterministic full-fleet replica + inner dispatcher.

Each worker process owns one spatial shard. It holds its *own*
:class:`~repro.simulation.fleet.FleetState` replica of the whole fleet, the
shard's inner dispatcher over a
:class:`~repro.sharding.fleet_view.ShardFleetView`, and (optionally) a
shard-local distance oracle — the ``shard_oracle_backend`` machinery of the
sharded dispatcher, built per process.

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
   partition (the exact mirror of ``ShardedDispatcher._resync``, computed on
   the authoritative fleet) and piggybacks the ``(worker, shard)`` deltas, so
   membership never depends on replica-side advancement; and
3. **member advancement**: before a decision, the replica advances *its own
   members* through the authoritative ``advance_all`` clock sequence the
   command carries, then to the command clock, and refreshes the grid cells
   of the members that moved. What is replayed per clock is one
   ``FleetState.advance_rows`` over the member rows — the very routine the
   front door's ``advance_all`` runs over all rows — so per clock only the
   **busy, due** members are walked (``RouteTable.busy_due``): for every
   other busy member ``advance_to(clock)`` has no side effect (the route
   table's window invariant), and an *idle* member needs no replay at all —
   it does not move, and its clock bump is idempotent (``start_time =
   clock``; no float accumulates), so it happens when something reads the
   worker (``state_of`` / ``states_of``), on either side, with the same
   result. The busy members must see the exact clock *sequence*, not just
   the final clock: partial advancement between stops computes
   ``start_time = arr[0] + moved_cost``, associating edge costs by
   advancement step, so advancing straight to ``t2`` can differ in the last
   ULP from advancing via an intermediate ``t1`` — and the authoritative
   engine advances the fleet at *every* arrival (deferred ones included) and
   flush. Replaying that sequence keeps replica anchors bit-identical to the
   authoritative fleet's, which is what makes cluster replays bit-identical
   to in-process sharded runs at K>1 (at K=1 the in-process wrapper stays
   lazy, a different — equally valid — float association, and metrics agree
   to ~1e-9 relative instead). One gap remains: the engine also touches a
   *single* worker between two sequence clocks (a cancellation that comes
   too late to drop, a shift start); that regrouping is not replayed, so
   that worker's replica anchor may sit one ULP off until its plan is next
   shipped — which is why the front door keeps its own anchor bits when it
   adopts a replica's plan. Per clock the replica pays one vector comparison
   over its member rows plus a walk per member that actually moves — not a
   Python visit per member, let alone per worker of the fleet; cancellations
   touch no positions at all, exactly like their in-process counterparts.
"""

from __future__ import annotations

import random
import traceback

import numpy as np

from repro.cluster.messages import (
    AckReply,
    AddWorkerCommand,
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


def make_shard_oracle(instance, config, num_shards: int):
    """Shard-local oracle per ``shard_oracle_backend`` (``None`` = shared).

    Mirrors ``ShardedDispatcher._make_shard_oracle`` for a single shard: the
    oracle answers over the full network, so every backend stays value-exact
    with the shared one.

    When the instance oracle carries a content-addressed artifact store, the
    shard-local oracle shares its root: cold starts warm-load preprocessed
    backends, and — crucially for live network updates — a worker-side
    ``refresh_topology`` after the instance oracle already repaired or
    rebuilt (and saved) the mutated topology warm-starts from the store
    instead of redoing that work per shard.
    """
    mode = config.shard_oracle_backend
    if mode == "shared":
        return None
    from repro.network.backends import select_backend_name
    from repro.network.oracle import DistanceOracle

    if mode == "auto":
        hint = max(1, len(instance.requests) // max(1, num_shards))
        mode = select_backend_name(instance.network.csr.num_vertices, query_volume_hint=hint)
    store = getattr(instance.oracle, "artifact_store", None)
    artifact_dir = store.root if store is not None else None
    return DistanceOracle(instance.network, backend=mode, artifact_dir=artifact_dir)


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
        self.membership: dict[int, int] = dict(init.membership)
        members = {
            worker_id
            for worker_id, shard in self.membership.items()
            if shard == init.shard_id
        }
        self.shard_oracle = make_shard_oracle(self.instance, init.config, init.num_shards)

        from repro.dispatch import make_dispatcher  # lazy: registry import

        from repro.sharding.fleet_view import ShardFleetView

        self.view = ShardFleetView(self.fleet, init.shard_id, members, oracle=self.shard_oracle)
        #: sorted route-table rows of the members; ``None`` after a membership
        #: move or a new table row (see :meth:`_member_rows`).
        self._rows: np.ndarray | None = None
        self.inner = make_dispatcher(init.inner, init.config)
        self.inner.setup(self.instance, self.view)

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

    def _apply_moves(self, moves) -> None:
        """Install the front door's membership deltas (authoritative)."""
        grid = self.inner.grid
        members = self.view.members
        mine = self.shard_id
        if moves:
            self._rows = None
        for worker_id, shard_id in moves:
            previous = self.membership.get(worker_id, shard_id)
            self.membership[worker_id] = shard_id
            if previous == mine and shard_id != mine:
                members.discard(worker_id)
                grid.remove(worker_id)
            elif shard_id == mine and previous != mine:
                members.add(worker_id)

    def _member_rows(self) -> np.ndarray:
        """Route-table rows of this shard's members, cached between moves."""
        if self._rows is None:
            self._rows = np.sort(self.fleet.table.rows_of(list(self.view.members)))
        return self._rows

    def _advance_members(self, clocks) -> None:
        """Advance this shard's members through ``clocks``; re-cell the moved ones.

        ``clocks`` is the authoritative ``advance_all`` sequence the command
        carries followed by the command clock. Each clock is one
        ``FleetState.advance_rows`` over the member rows — the routine the
        front door's ``advance_all`` runs over every row — so only busy, due
        members are walked. The grid then takes the position of every member
        marked moved since the last advancement: by these walks, by a plan
        snapshot, or during the previous decision. Completions and dirty
        plans are consumed — replicas have no event heap and no metrics.
        """
        fleet = self.fleet
        rows = self._member_rows()
        for clock in clocks:
            fleet.advance_rows(rows, clock)
        grid = self.inner.grid
        members = self.view.members
        for worker_id in fleet.drain_moved():
            if worker_id in members:
                grid.update(worker_id, fleet.peek_state(worker_id).position)
        self._housekeeping()

    def _prepare(self, command, advance: bool) -> None:
        self._apply_moves(command.moves)
        self._apply_plans(command.plans)
        if advance:
            self._advance_members((*command.advance_clocks, command.clock))
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
        # replay the window the front door buffered: deferrals read no fleet
        # state, so replaying them here is value-identical to interleaving
        for request, clock in command.deferrals:
            self.inner.dispatch(request, clock)
        outcomes = self.inner.flush(command.clock)
        completed = tuple(
            record.request.id for record in self.fleet.drain_completions()
        )
        self._housekeeping()
        plans: dict[int, WorkerPlan] = {}
        for outcome in outcomes:
            if outcome.served and outcome.worker_id is not None:
                plans[outcome.worker_id] = self._snapshot(outcome.worker_id, baseline)
        pending = tuple(request.id for request in self.inner.pending_requests) if (
            self.inner.is_batched
        ) else ()
        return FlushReply(
            outcomes=tuple(OutcomePayload.from_outcome(outcome) for outcome in outcomes),
            plans=plans,
            pending_ids=pending,
            next_flush=self.inner.next_flush_time(),
            completed_ids=completed,
        )

    def handle_cancel(self, command: CancelCommand) -> CancelReply:
        # the engine cancels without materialising positions; mirror that
        self._prepare(command, advance=False)
        removed = self.inner.cancel(command.request)
        self._housekeeping()
        return CancelReply(removed=removed, next_flush=self.inner.next_flush_time())

    def handle_add_worker(self, command: AddWorkerCommand) -> AckReply:
        worker = command.worker
        self.fleet.set_clock(command.clock)
        self._apply_moves(command.moves)
        state = self.fleet.add_worker(worker, at_time=command.clock)
        shard_id = self.partition.shard_of_vertex(state.position)
        self.membership[worker.id] = shard_id
        if shard_id == self.shard_id:
            self.view.members.add(worker.id)
            self.inner.grid.insert(worker.id, state.position)
        self._rows = None  # the new table row shifted the ones behind it
        return AckReply(next_flush=self.inner.next_flush_time())

    def handle_network_update(self, command: NetworkUpdateCommand) -> UpdateReply:
        """Replay a live network mutation batch on this replica.

        Ordering mirrors the authoritative engine exactly:

        1. membership moves, then the ``advance_all`` clock sequence and
           member advancement to the command clock — all on the *old*
           topology, matching the engine's fleet materialisation before the
           mutation;
        2. the recorded mutations, then instance-oracle and shard-oracle
           ``refresh_topology`` (the instance oracle of the *authoritative*
           process refreshed first and saved the new-topology backend into
           the shared artifact store, so replicas warm-start when one is
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
        self._apply_moves(command.moves)
        self._advance_members((*command.advance_clocks, command.clock))
        for mutation in update.mutations:
            mutation.apply(self.instance.network)
        self.instance.oracle.refresh_topology()
        if self.shard_oracle is not None:
            self.shard_oracle.refresh_topology()
        self._apply_plans(command.plans)
        self.inner.notify_network_changed()
        self._housekeeping()
        self.updates_applied += 1
        return UpdateReply(
            content_hash=network_content_hash(self.instance.network),
            next_flush=self.inner.next_flush_time(),
        )

    def handle_stats(self, command: StatsCommand) -> StatsReply:
        counters = self.instance.oracle.counters
        merged = {
            "distance_queries": counters.distance_queries,
            "path_queries": counters.path_queries,
            "lower_bound_queries": counters.lower_bound_queries,
            "dijkstra_runs": counters.dijkstra_runs,
            "backend_queries": dict(counters.backend_queries),
            "backend_settled": dict(counters.backend_settled),
        }
        if self.shard_oracle is not None:
            local = self.shard_oracle.counters
            merged["distance_queries"] += local.distance_queries
            merged["path_queries"] += local.path_queries
            merged["lower_bound_queries"] += local.lower_bound_queries
            merged["dijkstra_runs"] += local.dijkstra_runs
            for name, value in local.backend_queries.items():
                merged["backend_queries"][name] = (
                    merged["backend_queries"].get(name, 0) + value
                )
            for name, value in local.backend_settled.items():
                merged["backend_settled"][name] = (
                    merged["backend_settled"].get(name, 0) + value
                )
        return StatsReply(counters=merged)


def shard_worker_main(connection, init: ShardInit) -> None:
    """Entry point of a shard worker process: serve commands until shutdown."""
    import time as _time

    try:
        runtime = ShardWorkerRuntime(init)
    except Exception:  # noqa: BLE001 - surface the build failure to the front door
        connection.send(AckReply(error=traceback.format_exc()))
        connection.close()
        return
    handlers = {
        DispatchCommand: runtime.handle_dispatch,
        FlushCommand: runtime.handle_flush,
        CancelCommand: runtime.handle_cancel,
        AddWorkerCommand: runtime.handle_add_worker,
        NetworkUpdateCommand: runtime.handle_network_update,
        StatsCommand: runtime.handle_stats,
    }
    # chaos-harness fault plan: sleep before replying to selected commands,
    # making the front door's dispatch_timeout path deterministically testable
    delays = dict(init.delay_replies)
    ordinal = -1
    connection.send(AckReply())  # ready
    while True:
        try:
            command = connection.recv()
        except (EOFError, OSError):
            break
        ordinal += 1
        if isinstance(command, ShutdownCommand):
            connection.send(AckReply())
            break
        handler = handlers.get(type(command))
        if handler is None:
            connection.send(AckReply(error=f"unknown command {type(command).__name__}"))
            continue
        try:
            reply = handler(command)
        except Exception:  # noqa: BLE001 - ship the traceback instead of dying silently
            kind = type(command)
            error = traceback.format_exc()
            if kind is DispatchCommand:
                reply = DispatchReply(outcome=None, plan=None, next_flush=None, error=error)
            elif kind is FlushCommand:
                reply = FlushReply(
                    outcomes=(), plans={}, pending_ids=(), next_flush=None, error=error
                )
            elif kind is CancelCommand:
                reply = CancelReply(removed=False, next_flush=None, error=error)
            elif kind is NetworkUpdateCommand:
                reply = UpdateReply(error=error)
            else:
                reply = AckReply(error=error)
        pause = delays.pop(ordinal, None)
        if pause:
            _time.sleep(pause)
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):
            break
    connection.close()


def shard_worker_from_payload(connection, payload: bytes) -> None:
    """Entry point for respawned workers: unpickle a pre-serialised init.

    The supervisor pickles the :class:`ShardInit` synchronously on the
    thread that observed the worker's death, *before* handing off to the
    spawn thread — the live instance keeps mutating (network updates, added
    workers) while the respawn is in flight, and serialising it at schedule
    time is what pins the replica snapshot to the journal cursor recorded in
    the respawn slot.
    """
    import pickle

    shard_worker_main(connection, pickle.loads(payload))


__all__ = [
    "ShardWorkerRuntime",
    "make_shard_oracle",
    "plan_snapshot",
    "shard_worker_from_payload",
    "shard_worker_main",
]
