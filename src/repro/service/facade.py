"""The online matching service facade.

:class:`MatchingService` inverts the batch-simulator architecture: instead of
a runner that owns a whole workload and replays it, the *service* owns the
event kernel (:class:`~repro.simulation.engine.EventEngine`), the fleet, the
dispatcher and the clock, and exposes an online session API:

* :meth:`MatchingService.submit` — one request in, one typed
  :class:`~repro.service.responses.AssignmentDecision` out;
* :meth:`MatchingService.cancel` — rider cancellation with a typed outcome;
* :meth:`MatchingService.add_worker` / :meth:`MatchingService.retire_worker`
  — live fleet changes;
* :meth:`MatchingService.advance_to` — move simulated time forward,
  processing everything that falls due (batch flushes, stop completions,
  shift changes);
* :meth:`MatchingService.drain` — close the session and return the full
  :class:`~repro.simulation.metrics.SimulationResult`;
* :meth:`MatchingService.snapshot` — point-in-time observability.

Offline batch runs are the same code path: :meth:`MatchingService.replay`
submits an instance's request stream one by one and drains — and is
metric-identical (served rate, unified cost, oracle counters) to the kernel's
own batch replay (:meth:`~repro.simulation.engine.EventEngine.run`), which
the service test-suite enforces for every registered dispatcher.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.core.instance import URPSMInstance
from repro.core.timegrid import on_grid
from repro.core.types import Request, Worker
from repro.dispatch.base import Dispatcher, DispatchOutcome
from repro.exceptions import DispatchError
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.service.responses import (
    AssignmentDecision,
    CancellationOutcome,
    CancellationStatus,
    DecisionStatus,
    ServiceSnapshot,
)
from repro.service.spec import PlatformSpec
from repro.simulation.engine import EventEngine
from repro.simulation.metrics import SimulationResult


class MatchingService:
    """A long-lived online matching session over one city and fleet.

    Args:
        instance: the URPSM instance providing network, oracle, fleet and —
            for replay sessions — the request stream.
        dispatcher: the matching algorithm.
        collect_completions: track waits / detour ratios of completions.
    """

    def __init__(
        self,
        instance: URPSMInstance,
        dispatcher: Dispatcher,
        *,
        collect_completions: bool = True,
    ) -> None:
        self._backend = EventEngine(
            instance, dispatcher, collect_completions=collect_completions
        )
        self._backend.on_outcome = self._note_outcome
        self._backend.on_cancellation = self._note_cancellation
        #: decisions produced but not yet handed to the caller (flush-resolved
        #: deferrals, plus the current submission until ``submit`` pops it).
        self._undelivered: dict[int, AssignmentDecision] = {}
        self._deferred_open: set[int] = set()
        self._submitted = 0
        self._network_updates_applied = 0
        self._result: SimulationResult | None = None
        self._backend.start()

    # ------------------------------------------------------------ construction

    @classmethod
    def from_spec(
        cls,
        spec: PlatformSpec,
        *,
        network: RoadNetwork | None = None,
        oracle: DistanceOracle | None = None,
    ) -> "MatchingService":
        """Build the whole platform (instance + dispatcher) from one spec.

        Specs with ``cluster=True`` build a
        :class:`~repro.cluster.service.ClusterMatchingService` (shard worker
        processes behind the same session API) instead of the in-process
        facade.
        """
        if (spec.cluster or spec.dispatcher.cluster) and cls is MatchingService:
            from repro.cluster.service import ClusterMatchingService  # lazy cycle guard

            return ClusterMatchingService.from_spec(spec, network=network, oracle=oracle)
        spec.validate()
        instance = spec.build_instance(network=network, oracle=oracle)
        return cls(
            instance,
            spec.build_dispatcher(),
            collect_completions=spec.collect_completions,
        )

    # ---------------------------------------------------------------- plumbing

    def _note_outcome(self, outcome: DispatchOutcome, now: float) -> None:
        decision = AssignmentDecision.from_outcome(outcome, decided_at=now)
        self._undelivered[outcome.request.id] = decision
        self._deferred_open.discard(outcome.request.id)

    def _note_cancellation(self, request: Request, status: str, now: float) -> None:
        # a cancellation that pulled the request out of a batch window is the
        # terminal resolution of a still-open DEFERRED decision — including
        # dynamics-seeded cancellations the client never initiated
        if status != CancellationStatus.REMOVED_FROM_BATCH.value:
            return
        if request.id in self._deferred_open:
            self._deferred_open.discard(request.id)
            self._undelivered[request.id] = AssignmentDecision(
                request_id=request.id,
                status=DecisionStatus.CANCELLED,
                decided_at=now,
            )

    def _ensure_open(self) -> None:
        if self._result is not None:
            raise DispatchError("the service session has been drained")

    # ------------------------------------------------------------- session API

    def submit(self, request: Request) -> AssignmentDecision:
        """Submit one request and return the service's decision.

        Immediate dispatchers return an accepted/rejected decision; batch
        dispatchers return a *deferred* decision whose resolution surfaces
        through :meth:`poll_decisions` once the batch window flushes (during
        a later ``submit``/``advance_to``/``drain``).
        """
        self._ensure_open()
        self._backend.submit(request)
        self._submitted += 1
        decision = self._undelivered.pop(request.id, None)
        if decision is not None:
            return decision
        self._deferred_open.add(request.id)
        return AssignmentDecision(
            request_id=request.id,
            status=DecisionStatus.DEFERRED,
            decided_at=self.clock,
        )

    def poll_decisions(self) -> list[AssignmentDecision]:
        """Drain decisions resolved since the last call (batch flushes)."""
        drained = list(self._undelivered.values())
        self._undelivered.clear()
        return drained

    def cancel(self, request_id: int) -> CancellationOutcome:
        """Cancel a submitted request; returns what the cancellation achieved."""
        self._ensure_open()
        status = CancellationStatus(self._backend.cancel_request(request_id))
        return CancellationOutcome(
            request_id=request_id, status=status, cancelled_at=self.clock
        )

    def add_worker(self, worker: Worker) -> None:
        """Add a new worker to the live fleet at the current clock."""
        self._ensure_open()
        self._backend.add_worker(worker)

    def retire_worker(self, worker_id: int) -> None:
        """Stop assigning to a worker (its route in progress still completes)."""
        self._ensure_open()
        self._require_known_worker(worker_id)
        self._backend.set_worker_online(worker_id, False)

    def reinstate_worker(self, worker_id: int) -> None:
        """Bring a retired worker back on shift."""
        self._ensure_open()
        self._require_known_worker(worker_id)
        self._backend.set_worker_online(worker_id, True)

    def _require_known_worker(self, worker_id: int) -> None:
        if worker_id not in self.fleet.states:
            raise DispatchError(f"unknown worker id {worker_id}")

    def apply_network_update(self, mutate) -> None:
        """Mutate the road network mid-session (street closure / reopening).

        ``mutate`` receives the live :class:`~repro.network.graph.RoadNetwork`.
        The engine re-derives every distance-dependent structure afterwards —
        oracle backend, worker routes, dispatcher spatial index — so the
        session keeps serving on the new topology. On the cluster path, the
        recorded edge mutations are additionally broadcast to every shard
        worker process under a barrier acknowledgement (see
        :meth:`~repro.cluster.dispatcher.ClusterDispatcher.apply_network_update`).
        """
        self._ensure_open()
        self._backend.apply_network_update(mutate)
        self._network_updates_applied += 1

    def close_edge(self, u: int, v: int):
        """Close the street between ``u`` and ``v``; returns the removed
        :class:`~repro.network.graph.Edge` (keep it to reopen later)."""
        removed = []
        self.apply_network_update(lambda network: removed.append(network.remove_edge(u, v)))
        return removed[0]

    def reopen_edge(self, edge) -> None:
        """Reopen a previously closed street from its removed ``edge`` record."""
        self.apply_network_update(
            lambda network: network.add_edge(
                edge.u, edge.v, length=edge.length, speed=edge.speed, road_class=edge.road_class
            )
        )

    def advance_to(self, now: float) -> list[AssignmentDecision]:
        """Advance simulated time to ``now``, processing everything due.

        Returns the decisions resolved while advancing (batch flushes that
        fell due), equivalent to calling :meth:`poll_decisions` right after.
        ``now`` is rounded up onto the time grid (:mod:`repro.core.timegrid`).
        """
        self._ensure_open()
        self._backend.advance_until(on_grid(now, "advance_to clock"))
        return self.poll_decisions()

    def drain(self) -> SimulationResult:
        """Close the session: resolve pending batches, finish every route.

        Returns the aggregated :class:`SimulationResult`; subsequent calls
        return the same result, and all other session methods raise.
        """
        if self._result is None:
            self._result = self._backend.finish()
        return self._result

    def _queue_depth(self) -> int:
        """Dispatcher commands sent but not yet acknowledged.

        The in-process facade calls its dispatcher synchronously, so nothing
        is ever in flight; the cluster facade overrides this with the
        front door's outstanding-ack count.
        """
        return 0

    def _recovery_stats(self) -> dict:
        """Self-healing counters for :class:`ServiceSnapshot`.

        The in-process facade has no worker processes to fail; the cluster
        facade overrides this with the front door's recovery telemetry.
        """
        return {}

    def _requests_inflight(self) -> int:
        """Accepted riders not yet dropped off (open service records)."""
        fleet = self._backend.fleet
        return sum(
            1
            for state in fleet.states.values()
            for record in state.assigned_requests.values()
            if not record.completed
        )

    def snapshot(self) -> ServiceSnapshot:
        """Point-in-time view of the platform (no state mutation)."""
        fleet = self._backend.fleet
        live = self._backend.metrics.live
        online = sum(1 for state in fleet.states.values() if state.online)
        return ServiceSnapshot(
            clock=self.clock,
            algorithm=self.dispatcher.name,
            workers_total=len(fleet),
            workers_online=online,
            workers_idle=int(fleet.table.idle.sum()),
            requests_submitted=self._submitted,
            decisions_pending=len(self._deferred_open) + len(self._undelivered),
            served=live.served_requests,
            rejected=live.rejected_requests,
            cancelled=live.cancelled_requests,
            events_processed=self._backend.events_processed,
            requests_inflight=self._requests_inflight(),
            queue_depth=self._queue_depth(),
            network_updates_applied=self._network_updates_applied,
            **self._recovery_stats(),
        )

    # ------------------------------------------------------------------ replay

    def replay(
        self,
        requests: Iterable[Request] | None = None,
        on_decision: Callable[[AssignmentDecision], None] | None = None,
    ) -> SimulationResult:
        """Stream a whole workload through the session and drain.

        Args:
            requests: the stream to replay (default: the instance's requests).
            on_decision: optional observer receiving every decision as it is
                made — submissions first, flush-resolved deferrals as they
                happen (the ``repro serve-replay`` printer).
        """
        self._ensure_open()
        stream = self.instance.requests if requests is None else requests
        for request in stream:
            decision = self.submit(request)
            if on_decision is not None:
                on_decision(decision)
                for resolved in self.poll_decisions():
                    on_decision(resolved)
        result = self.drain()
        if on_decision is not None:
            for resolved in self.poll_decisions():
                on_decision(resolved)
        return result

    # -------------------------------------------------------------- accessors

    @property
    def clock(self) -> float:
        """Current simulated time of the session."""
        return self._backend.clock

    @property
    def instance(self) -> URPSMInstance:
        """The problem instance backing the session."""
        return self._backend.instance

    @property
    def dispatcher(self) -> Dispatcher:
        """The matching algorithm."""
        return self._backend.dispatcher

    @property
    def fleet(self):
        """The live fleet state."""
        return self._backend.fleet

    @property
    def metrics(self):
        """The live metrics collector."""
        return self._backend.metrics

    @property
    def drained(self) -> bool:
        """Whether the session has been closed by :meth:`drain`."""
        return self._result is not None


def replay_workload(
    spec: PlatformSpec,
    *,
    network: RoadNetwork | None = None,
    oracle: DistanceOracle | None = None,
    on_decision: Callable[[AssignmentDecision], None] | None = None,
) -> SimulationResult:
    """Build a :class:`MatchingService` from ``spec`` and replay its workload.

    The one-call batch entry point: provably the same code path as online
    serving (it *is* online serving, fed from the generated stream).
    """
    service = MatchingService.from_spec(spec, network=network, oracle=oracle)
    return service.replay(on_decision=on_decision)


__all__ = ["MatchingService", "replay_workload"]
