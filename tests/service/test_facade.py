"""MatchingService: the online session API (decisions, dynamics, lifecycle)."""

import pytest

from repro.core.types import Request, Worker
from repro.exceptions import DispatchError
from repro.service import (
    CancellationStatus,
    DecisionStatus,
    MatchingService,
    PlatformSpec,
    RejectionReason,
)
from repro.workloads.scenarios import ScenarioConfig, build_instance

_SCENARIO = ScenarioConfig(city="small-grid", num_workers=8, num_requests=40, seed=3)


def _service(algorithm: str = "pruneGreedyDP", **knobs):
    spec = (PlatformSpec.builder()
            .city(_SCENARIO.city, seed=_SCENARIO.seed)
            .workload(num_workers=_SCENARIO.num_workers,
                      num_requests=_SCENARIO.num_requests)
            .dispatcher(algorithm, **knobs)
            .build())
    return MatchingService.from_spec(spec)


class TestDecisions:
    def test_immediate_dispatcher_returns_accept_with_worker_and_delta(self):
        service = _service()
        request = service.instance.requests[0]
        decision = service.submit(request)
        assert decision.status is DecisionStatus.ACCEPTED
        assert decision.accepted and not decision.deferred
        assert decision.request_id == request.id
        assert decision.worker_id is not None
        assert decision.route_delta > 0.0
        assert decision.candidates_considered > 0
        assert decision.decided_at == pytest.approx(request.release_time)
        # the assignment is visible on the fleet
        holder = service.fleet.find_assignment(request.id)
        assert holder is not None and holder.worker.id == decision.worker_id

    def test_impossible_request_rejected_with_reason(self):
        service = _service()
        template = service.instance.requests[0]
        hopeless = Request(
            id=990_001,
            origin=template.origin,
            destination=template.destination,
            release_time=template.release_time,
            deadline=template.release_time,  # zero time budget
            penalty=template.penalty,
        )
        decision = service.submit(hopeless)
        assert decision.status is DecisionStatus.REJECTED
        assert decision.reason in (
            RejectionReason.NO_CANDIDATES,
            RejectionReason.NO_FEASIBLE_INSERTION,
            RejectionReason.DECISION_PHASE,
        )
        assert not decision.accepted

    def test_batch_dispatcher_defers_then_resolves(self):
        service = _service("batch", batch_interval=6.0)
        request = service.instance.requests[0]
        decision = service.submit(request)
        assert decision.status is DecisionStatus.DEFERRED
        # nothing resolved yet
        assert service.poll_decisions() == []
        resolved = service.advance_to(request.release_time + 6.0)
        assert [d.request_id for d in resolved] == [request.id]
        assert resolved[0].status in (DecisionStatus.ACCEPTED, DecisionStatus.REJECTED)
        assert resolved[0].decided_at == pytest.approx(request.release_time + 6.0)

    def test_describe_mentions_the_worker(self):
        service = _service()
        decision = service.submit(service.instance.requests[0])
        assert f"worker {decision.worker_id}" in decision.describe()

    def test_non_monotone_submission_raises(self):
        service = _service()
        first, second = service.instance.requests[:2]
        service.submit(second)
        with pytest.raises(DispatchError, match="time-ordered"):
            service.submit(first)

    def test_duplicate_request_id_raises(self):
        service = _service()
        request = service.instance.requests[0]
        service.submit(request)
        clone = Request(
            id=request.id,
            origin=request.origin,
            destination=request.destination,
            release_time=request.release_time,
            deadline=request.deadline,
            penalty=request.penalty,
        )
        with pytest.raises(DispatchError, match="duplicate request id"):
            service.submit(clone)

    def test_resubmitting_the_same_request_object_raises(self):
        # a client retry must not double-dispatch the request
        service = _service()
        request = service.instance.requests[0]
        assert service.submit(request).accepted
        with pytest.raises(DispatchError, match="duplicate request id"):
            service.submit(request)


class TestCancellation:
    def test_cancel_deferred_request_removes_it_from_the_batch(self):
        service = _service("batch", batch_interval=60.0)
        request = service.instance.requests[0]
        service.submit(request)
        outcome = service.cancel(request.id)
        assert outcome.status is CancellationStatus.REMOVED_FROM_BATCH
        assert outcome.cancelled
        result = service.drain()
        assert result.cancelled_requests == 1
        assert result.served_requests + result.rejected_requests == 0

    def test_cancel_assigned_request_removes_it_from_the_route(self):
        service = _service()
        request = service.instance.requests[0]
        decision = service.submit(request)
        assert decision.accepted
        outcome = service.cancel(request.id)
        assert outcome.status is CancellationStatus.REMOVED_FROM_ROUTE
        assert service.fleet.find_assignment(request.id) is None
        result = service.drain()
        assert result.cancelled_requests == 1

    def test_cancel_unknown_request(self):
        service = _service()
        outcome = service.cancel(123_456)
        assert outcome.status is CancellationStatus.UNKNOWN_REQUEST
        assert not outcome.cancelled

    def test_cancel_before_submission_is_unknown_not_too_late(self):
        # instance requests are known up front for replay, but cancelling one
        # that was never submitted must not report "too late"
        service = _service()
        not_yet_submitted = service.instance.requests[5]
        outcome = service.cancel(not_yet_submitted.id)
        assert outcome.status is CancellationStatus.UNKNOWN_REQUEST
        # the request can still be submitted (and decided) afterwards
        decision = service.submit(not_yet_submitted)
        assert not decision.deferred

    def test_cancel_after_delivery_is_too_late(self):
        service = _service()
        request = service.instance.requests[0]
        assert service.submit(request).accepted
        service.advance_to(request.deadline + 10_000.0)
        outcome = service.cancel(request.id)
        assert outcome.status is CancellationStatus.TOO_LATE

    def test_cancelling_a_deferred_request_resolves_its_decision(self):
        # a DEFERRED submission must reach a terminal state even when it is
        # withdrawn before the batch window flushes
        service = _service("batch", batch_interval=50_000.0)
        request = service.instance.requests[0]
        assert service.submit(request).deferred
        assert service.snapshot().decisions_pending == 1
        service.cancel(request.id)
        resolved = service.poll_decisions()
        assert [d.request_id for d in resolved] == [request.id]
        assert resolved[0].status is DecisionStatus.CANCELLED
        assert "cancelled" in resolved[0].describe()
        assert service.snapshot().decisions_pending == 0

    def test_dynamics_cancellations_leave_no_pending_decisions(self):
        # dynamics-seeded cancellations (no client cancel() call) must also
        # resolve open deferred decisions
        spec = (PlatformSpec.builder()
                .city("small-grid", seed=3)
                .workload(num_workers=8, num_requests=40, cancellation_rate=0.5)
                .dispatcher("batch")
                .build())
        service = MatchingService.from_spec(spec)
        decisions = []
        result = service.replay(on_decision=decisions.append)
        assert result.cancelled_requests > 0
        assert service.snapshot().decisions_pending == 0
        terminal = {d.request_id: d for d in decisions if not d.deferred}
        submitted = {request.id for request in service.instance.requests}
        assert set(terminal) == submitted


class TestFleetEvents:
    def test_retire_all_workers_rejects_subsequent_requests(self):
        service = _service()
        for worker in service.instance.workers:
            service.retire_worker(worker.id)
        decision = service.submit(service.instance.requests[0])
        assert decision.status is DecisionStatus.REJECTED
        assert decision.reason is RejectionReason.NO_CANDIDATES

    def test_added_worker_can_receive_assignments(self):
        service = _service()
        for worker in service.instance.workers:
            service.retire_worker(worker.id)
        request = service.instance.requests[0]
        joined = Worker(id=10_001, initial_location=request.origin, capacity=4)
        service.add_worker(joined)
        decision = service.submit(request)
        assert decision.accepted
        assert decision.worker_id == joined.id

    def test_added_worker_travel_counts_in_the_final_result(self):
        service = _service()
        for worker in service.instance.workers:
            service.retire_worker(worker.id)
        request = service.instance.requests[0]
        service.add_worker(Worker(id=10_001, initial_location=request.origin, capacity=4))
        assert service.submit(request).accepted
        result = service.drain()
        assert result.served_requests == 1
        assert result.total_travel_cost > 0.0

    def test_duplicate_worker_id_raises(self):
        service = _service()
        existing = service.instance.workers[0]
        with pytest.raises(DispatchError, match="already in the fleet"):
            service.add_worker(Worker(id=existing.id, initial_location=0, capacity=4))

    def test_reinstate_worker(self):
        service = _service()
        worker_id = service.instance.workers[0].id
        service.retire_worker(worker_id)
        assert not service.fleet.is_available(worker_id)
        service.reinstate_worker(worker_id)
        assert service.fleet.is_available(worker_id)

    def test_retire_unknown_worker_raises(self):
        service = _service()
        with pytest.raises(DispatchError, match="unknown worker id 999"):
            service.retire_worker(999)

    def test_reinstate_unknown_worker_raises(self):
        service = _service()
        with pytest.raises(DispatchError, match="unknown worker id"):
            service.reinstate_worker(-1)

    def test_retired_worker_finishes_its_active_route(self):
        service = _service()
        request = service.instance.requests[0]
        decision = service.submit(request)
        assert decision.accepted
        service.retire_worker(decision.worker_id)
        # no new assignments, but the route in progress still completes
        assert not service.fleet.is_available(decision.worker_id)
        result = service.drain()
        assert result.served_requests == 1

    def test_reinstate_after_drain_raises(self):
        service = _service()
        worker_id = service.instance.workers[0].id
        service.retire_worker(worker_id)
        service.drain()
        with pytest.raises(DispatchError, match="drained"):
            service.reinstate_worker(worker_id)


class TestLifecycle:
    def test_advance_to_moves_the_clock(self):
        service = _service()
        service.advance_to(1234.5)
        assert service.clock == pytest.approx(1234.5)

    def test_snapshot_reports_session_state(self):
        service = _service("batch", batch_interval=50_000.0)
        submitted = service.instance.requests[:3]
        for request in submitted:
            service.submit(request)
        snapshot = service.snapshot()
        assert snapshot.algorithm == "batch"
        assert snapshot.workers_total == _SCENARIO.num_workers
        assert snapshot.workers_online == _SCENARIO.num_workers
        assert snapshot.requests_submitted == 3
        assert snapshot.decisions_pending == 3
        assert snapshot.served == 0 and snapshot.rejected == 0
        assert snapshot.clock == pytest.approx(submitted[-1].release_time)

    def test_drain_is_idempotent_and_closes_the_session(self):
        service = _service()
        for request in service.instance.requests[:5]:
            service.submit(request)
        result = service.drain()
        assert service.drain() is result
        assert service.drained
        with pytest.raises(DispatchError, match="drained"):
            service.submit(service.instance.requests[5])
        with pytest.raises(DispatchError, match="drained"):
            service.advance_to(1e9)
        with pytest.raises(DispatchError, match="drained"):
            service.retire_worker(service.instance.workers[0].id)

    def test_replay_streams_the_whole_workload(self):
        service = _service()
        decisions = []
        result = service.replay(on_decision=decisions.append)
        assert result.total_requests == _SCENARIO.num_requests
        final = {d.request_id: d for d in decisions if not d.deferred}
        assert len(final) == _SCENARIO.num_requests

    def test_direct_instance_construction(self):
        # the facade also accepts a prebuilt instance + dispatcher
        from repro.dispatch import DispatcherConfig, PruneGreedyDP

        instance = build_instance(_SCENARIO)
        service = MatchingService(
            instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=2000.0))
        )
        assert service.submit(instance.requests[0]).accepted

    def test_engine_keyword_is_refused(self):
        # the event kernel is the only engine; there is nothing to choose
        from repro.dispatch import DispatcherConfig, PruneGreedyDP

        instance = build_instance(_SCENARIO)
        with pytest.raises(TypeError, match="engine"):
            MatchingService(instance, PruneGreedyDP(DispatcherConfig()), engine="event")
