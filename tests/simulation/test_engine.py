"""Tests for the event-driven simulation kernel.

Covers the acceptance criteria of the kernel refactor:

* metric identity with the seed's request loop (the test-only reference in
  ``tests/simulation/seed_loop.py``) on dynamics-free instances, per
  algorithm;
* batch-flush edge cases (window expiring exactly at a release time, empty
  flushes, batches resolved after the last arrival);
* the bounded final drain (a dispatcher whose ``next_flush_time`` never
  returns ``None`` raises instead of hanging);
* rider cancellations and staggered worker shifts.
"""

import pytest

from repro.core.instance import Cancellation, InstanceDynamics, URPSMInstance, WorkerShift
from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.dispatch import (
    Batch,
    DispatcherConfig,
    GreedyDP,
    NearestWorker,
    PruneGreedyDP,
    make_dispatcher,
)
from repro.dispatch.base import Dispatcher
from repro.exceptions import ConfigurationError, DispatchError
from repro.service import MatchingService
from repro.simulation.engine import EventEngine
from repro.simulation.fleet import FleetState
from repro.workloads.requests import sample_cancellations
from repro.workloads.scenarios import ScenarioConfig, build_instance
from repro.workloads.workers import staggered_shifts
from tests.conftest import make_request, make_worker, route_with_requests
from tests.simulation.seed_loop import run_seed_loop


def _instance(network, oracle, requests, workers=None, alpha=1.0, dynamics=None):
    objective = ObjectiveConfig(alpha=alpha, penalty_policy=PenaltyPolicy.FIXED, penalty_value=100.0)
    return URPSMInstance(
        network=network,
        oracle=oracle,
        workers=workers or [make_worker(0, 0, capacity=4)],
        requests=requests,
        objective=objective,
        name="engine-test",
        dynamics=dynamics,
    )


def _run_event(instance, dispatcher):
    return EventEngine(instance, dispatcher).run()


# --------------------------------------------------------------------- A / B


class TestMetricIdentity:
    """The event kernel must reproduce the seed loop's metrics exactly."""

    @pytest.mark.parametrize(
        "make_dispatcher",
        [
            lambda: PruneGreedyDP(DispatcherConfig(grid_cell_metres=500.0)),
            lambda: GreedyDP(DispatcherConfig(grid_cell_metres=500.0)),
            lambda: Batch(DispatcherConfig(grid_cell_metres=500.0, batch_interval=6.0)),
            lambda: NearestWorker(DispatcherConfig(grid_cell_metres=500.0)),
            lambda: make_dispatcher("tshare", DispatcherConfig(grid_cell_metres=500.0)),
            lambda: make_dispatcher("kinetic", DispatcherConfig(grid_cell_metres=500.0)),
            lambda: make_dispatcher(
                "pruneGreedyDP+reopt", DispatcherConfig(grid_cell_metres=500.0)
            ),
        ],
        ids=["pruneGreedyDP", "GreedyDP", "batch", "nearest", "tshare", "kinetic",
             "pruneGreedyDP+reopt"],
    )
    def test_engines_agree_on_small_instance(self, small_instance, make_dispatcher):
        legacy = run_seed_loop(small_instance, make_dispatcher())
        event = _run_event(small_instance, make_dispatcher())
        assert event.served_requests == legacy.served_requests
        assert event.rejected_requests == legacy.rejected_requests
        assert event.total_requests == legacy.total_requests
        assert event.unified_cost == pytest.approx(legacy.unified_cost)
        assert event.total_travel_cost == pytest.approx(legacy.total_travel_cost)
        assert event.deadline_violations == legacy.deadline_violations
        assert event.mean_wait_seconds == pytest.approx(legacy.mean_wait_seconds)
        assert event.mean_detour_ratio == pytest.approx(legacy.mean_detour_ratio)

    def test_engines_agree_on_generated_scenario(self):
        config = ScenarioConfig(city="small-grid", num_workers=8, num_requests=40, seed=13)
        results = {}
        for engine, run in (("legacy", run_seed_loop), ("event", _run_event)):
            instance = build_instance(config)
            dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=1000.0))
            results[engine] = run(instance, dispatcher)
        assert results["event"].served_requests == results["legacy"].served_requests
        assert results["event"].unified_cost == pytest.approx(results["legacy"].unified_cost)

    def test_event_engine_is_deterministic(self, small_instance):
        first = _run_event(small_instance, Batch(DispatcherConfig(grid_cell_metres=500.0)))
        second = _run_event(small_instance, Batch(DispatcherConfig(grid_cell_metres=500.0)))
        assert first.served_requests == second.served_requests
        assert first.unified_cost == second.unified_cost
        assert first.total_travel_cost == second.total_travel_cost


# ------------------------------------------------------------- batch windows


class _RecordingBatch(Batch):
    """Batch dispatcher that logs the order of dispatch/flush interactions."""

    def __init__(self, config=None):
        super().__init__(config)
        self.log: list[tuple] = []

    def dispatch(self, request, now):
        self.log.append(("dispatch", now, request.id))
        return super().dispatch(request, now)

    def flush(self, now):
        self.log.append(("flush", now, tuple(r.id for r in self.pending_requests)))
        return super().flush(now)


class TestBatchFlushEdgeCases:
    def test_flush_deadline_equal_to_release_time(self, line_network, line_oracle):
        """A window expiring exactly at a release time flushes first; the new
        request opens the next window (deterministic equal-timestamp order)."""
        requests = [
            make_request(0, 1, 2, release=0.0),
            make_request(1, 2, 3, release=6.0),
        ]
        instance = _instance(line_network, line_oracle, requests)
        dispatcher = _RecordingBatch(DispatcherConfig(grid_cell_metres=200.0, batch_interval=6.0))
        result = _run_event(instance, dispatcher)
        assert result.total_requests == 2
        assert dispatcher.log == [
            ("dispatch", 0.0, 0),
            ("flush", 6.0, (0,)),
            ("dispatch", 6.0, 1),
            ("flush", 12.0, (1,)),
        ]

    def test_empty_flush_returns_no_outcomes(self, small_instance, fleet):
        dispatcher = Batch(DispatcherConfig(grid_cell_metres=500.0))
        dispatcher.setup(small_instance, fleet)
        assert dispatcher.flush(now=10.0) == []
        assert dispatcher.next_flush_time() is None

    def test_deferred_requests_resolved_after_last_arrival(self, line_network, line_oracle):
        """A window longer than the whole stream is drained after the stream."""
        requests = [
            make_request(0, 1, 2, release=0.0),
            make_request(1, 3, 4, release=5.0),
        ]
        instance = _instance(line_network, line_oracle, requests)
        dispatcher = _RecordingBatch(DispatcherConfig(grid_cell_metres=200.0, batch_interval=500.0))
        result = _run_event(instance, dispatcher)
        assert result.total_requests == 2
        assert dispatcher.log[-1] == ("flush", 500.0, (0, 1))

    def test_final_drain_matches_legacy(self, line_network, line_oracle):
        requests = [make_request(0, 1, 2, release=0.0), make_request(1, 3, 4, release=5.0)]
        results = {}
        for engine, run in (("legacy", run_seed_loop), ("event", _run_event)):
            instance = _instance(line_network, line_oracle, requests)
            dispatcher = Batch(DispatcherConfig(grid_cell_metres=200.0, batch_interval=500.0))
            results[engine] = run(instance, dispatcher)
        assert results["event"].served_requests == results["legacy"].served_requests
        assert results["event"].unified_cost == pytest.approx(results["legacy"].unified_cost)


class _NeverDrains(Dispatcher):
    """Pathological batch dispatcher: next_flush_time() never returns None.

    The seed loop's final flush spun forever on this; the kernel must raise
    instead.
    """

    name = "never-drains"

    @property
    def is_batched(self) -> bool:
        return True

    def dispatch(self, request, now):
        return None

    def next_flush_time(self):
        return 6.0

    def flush(self, now):
        return []


class TestBoundedFinalDrain:
    def test_non_terminating_batch_dispatcher_raises(self, line_network, line_oracle):
        requests = [make_request(0, 1, 2, release=0.0)]
        instance = _instance(line_network, line_oracle, requests)
        with pytest.raises(DispatchError, match="does not terminate"):
            _run_event(instance, _NeverDrains())

    def test_service_drain_raises_too(self, line_network, line_oracle):
        # the facade drives the same kernel incrementally and drains it on
        # replay, so an online client sees the same bounded drain
        requests = [make_request(0, 1, 2, release=0.0)]
        instance = _instance(line_network, line_oracle, requests)
        with pytest.raises(DispatchError, match="does not terminate"):
            MatchingService(instance, _NeverDrains()).replay()


# ------------------------------------------------------------- cancellations


class TestCancellations:
    def test_cancellation_before_pickup_frees_the_worker(self, line_network, line_oracle):
        # worker starts at 0; pickup at 4 takes 40s; cancel at t=10
        requests = [make_request(0, 4, 5, release=0.0)]
        dynamics = InstanceDynamics(cancellations=[Cancellation(request_id=0, time=10.0)])
        instance = _instance(line_network, line_oracle, requests, dynamics=dynamics)
        engine = EventEngine(instance, GreedyDP(DispatcherConfig(grid_cell_metres=200.0)))
        result = engine.run()
        assert result.cancelled_requests == 1
        assert result.served_requests == 0
        assert result.rejected_requests == 0
        assert result.total_requests == 1
        assert result.total_penalty == 0.0
        # the worker drove towards the pickup for 10 seconds, then stopped
        assert result.total_travel_cost == pytest.approx(10.0)
        assert all(state.is_idle for state in engine.fleet)

    def test_cancellation_after_pickup_is_ignored(self, line_network, line_oracle):
        # pickup happens at t=40; the cancellation at t=45 arrives too late
        requests = [make_request(0, 4, 5, release=0.0)]
        dynamics = InstanceDynamics(cancellations=[Cancellation(request_id=0, time=45.0)])
        instance = _instance(line_network, line_oracle, requests, dynamics=dynamics)
        result = _run_event(instance, GreedyDP(DispatcherConfig(grid_cell_metres=200.0)))
        assert result.cancelled_requests == 0
        assert result.served_requests == 1
        assert result.total_travel_cost == pytest.approx(50.0)

    def test_cancellation_of_batched_request_before_flush(self, line_network, line_oracle):
        requests = [make_request(0, 1, 2, release=0.0)]
        dynamics = InstanceDynamics(cancellations=[Cancellation(request_id=0, time=3.0)])
        instance = _instance(line_network, line_oracle, requests, dynamics=dynamics)
        result = _run_event(
            instance, Batch(DispatcherConfig(grid_cell_metres=200.0, batch_interval=6.0))
        )
        assert result.cancelled_requests == 1
        assert result.served_requests == 0
        assert result.total_requests == 1
        assert result.total_travel_cost == pytest.approx(0.0)

    def test_sample_cancellations_rate_and_window(self, line_network, line_oracle):
        requests = [
            make_request(index, 1, 3, release=10.0 * index, deadline=10.0 * index + 600.0)
            for index in range(50)
        ]
        none = sample_cancellations(requests, rate=0.0, seed=1)
        assert none == []
        all_cancelled = sample_cancellations(requests, rate=1.0, seed=1)
        assert len(all_cancelled) == 50
        by_id = {request.id: request for request in requests}
        for cancellation in all_cancelled:
            request = by_id[cancellation.request_id]
            assert request.release_time < cancellation.time < request.deadline
        times = [cancellation.time for cancellation in all_cancelled]
        assert times == sorted(times)
        assert sample_cancellations(requests, rate=1.0, seed=1) == all_cancelled


# ------------------------------------------------------------- worker shifts


class TestWorkerShifts:
    def test_staggered_shifts_cover_the_horizon(self):
        workers = [make_worker(index, 0) for index in range(10)]
        shifts = staggered_shifts(workers, horizon_seconds=7200.0, shift_seconds=3600.0, seed=3)
        assert len(shifts) == 10
        assert shifts[0].start == 0.0
        for shift in shifts:
            assert 0.0 <= shift.start <= 7200.0 - 3600.0
            assert shift.end == pytest.approx(shift.start + 3600.0)
        # staggering: not everyone starts at once
        assert len({shift.start for shift in shifts}) > 1

    def test_shift_covering_the_horizon_means_no_dynamics(self):
        """Always-on shifts are the same as no shifts: the instance must stay
        dynamics-free (and therefore runnable on the seed-loop reference)."""
        workers = [make_worker(0, 0)]
        assert staggered_shifts(workers, horizon_seconds=3600.0, shift_seconds=7200.0, seed=3) == []
        config = ScenarioConfig(
            city="small-grid", num_workers=4, num_requests=10, shift_hours=10.0, horizon_hours=2.0
        )
        instance = build_instance(config)
        assert instance.dynamics is None
        run_seed_loop(instance, GreedyDP(DispatcherConfig(grid_cell_metres=1000.0)))

    def test_multiple_shifts_per_worker_rejected(self, line_network, line_oracle):
        requests = [make_request(0, 1, 2, release=0.0)]
        dynamics = InstanceDynamics(
            shifts=[
                WorkerShift(worker_id=0, start=0.0, end=10.0),
                WorkerShift(worker_id=0, start=20.0, end=30.0),
            ]
        )
        instance = _instance(line_network, line_oracle, requests, dynamics=dynamics)
        with pytest.raises(ConfigurationError, match="more than one shift"):
            instance.validate()

    def test_offline_worker_gets_no_new_assignments(self, line_network, line_oracle):
        # worker 0 sits at the request origin but is off shift from t=50;
        # worker 1 (far away, always on) must serve the late request.
        workers = [make_worker(0, 1, capacity=4), make_worker(1, 5, capacity=4)]
        requests = [make_request(0, 1, 2, release=60.0, deadline=600.0)]
        dynamics = InstanceDynamics(shifts=[WorkerShift(worker_id=0, start=0.0, end=50.0)])
        instance = _instance(line_network, line_oracle, requests, workers=workers, dynamics=dynamics)
        engine = EventEngine(instance, GreedyDP(DispatcherConfig(grid_cell_metres=200.0)))
        result = engine.run()
        assert result.served_requests == 1
        assert not engine.fleet.peek_state(0).assigned_requests
        assert 0 in engine.fleet.peek_state(1).assigned_requests

    def test_worker_online_only_after_shift_start(self, line_network, line_oracle):
        # worker 1 sits at the origin but starts its shift at t=100;
        # worker 0 (far away, always on) must serve the early request.
        workers = [make_worker(0, 5, capacity=4), make_worker(1, 1, capacity=4)]
        requests = [make_request(0, 1, 2, release=0.0, deadline=600.0)]
        dynamics = InstanceDynamics(shifts=[WorkerShift(worker_id=1, start=100.0, end=None)])
        instance = _instance(line_network, line_oracle, requests, workers=workers, dynamics=dynamics)
        engine = EventEngine(instance, GreedyDP(DispatcherConfig(grid_cell_metres=200.0)))
        result = engine.run()
        assert result.served_requests == 1
        assert 0 in engine.fleet.peek_state(0).assigned_requests
        assert not engine.fleet.peek_state(1).assigned_requests

    def test_tshare_respects_shifts(self, line_network, line_oracle):
        """Regression: tshare's own cell walk must also skip off-shift workers."""
        from repro.dispatch import TShare

        workers = [make_worker(0, 1, capacity=4), make_worker(1, 5, capacity=4)]
        requests = [make_request(0, 1, 2, release=60.0, deadline=600.0)]
        dynamics = InstanceDynamics(shifts=[WorkerShift(worker_id=0, start=0.0, end=50.0)])
        instance = _instance(line_network, line_oracle, requests, workers=workers, dynamics=dynamics)
        engine = EventEngine(instance, TShare(DispatcherConfig(grid_cell_metres=200.0)))
        engine.run()
        assert not engine.fleet.peek_state(0).assigned_requests

    def test_dynamic_scenario_runs_end_to_end(self):
        config = ScenarioConfig(
            city="small-grid",
            num_workers=10,
            num_requests=60,
            seed=5,
            horizon_hours=2.0,
            cancellation_rate=0.3,
            shift_hours=1.0,
        )
        instance = build_instance(config)
        assert instance.dynamics is not None
        assert instance.dynamics.cancellations and instance.dynamics.shifts
        result = _run_event(instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=1000.0)))
        assert result.total_requests == 60
        assert (
            result.served_requests + result.rejected_requests + result.cancelled_requests == 60
        )
        assert result.cancelled_requests > 0
        # determinism of the dynamic run
        again = _run_event(
            build_instance(config), PruneGreedyDP(DispatcherConfig(grid_cell_metres=1000.0))
        )
        assert again.unified_cost == result.unified_cost
        assert again.cancelled_requests == result.cancelled_requests


# ----------------------------------------------------------------- lazy fleet


class TestLazyFleet:
    def test_state_of_materialises_to_clock(self, line_oracle):
        worker = make_worker(0, 0)
        fleet = FleetState([worker], line_oracle)
        request = make_request(0, 3, 5)
        route = route_with_requests(worker, line_oracle, [request])
        fleet.peek_state(0).adopt_route(route, request=request)
        fleet.set_clock(25.0)
        state = fleet.state_of(0)
        # edges take 10s: at t=25 the last vertex passed is 2 (reached at t=20)
        assert state.position == 2
        assert state.position_time == pytest.approx(20.0)

    def test_position_slack_reflects_staleness(self, line_oracle):
        worker = make_worker(0, 0)
        fleet = FleetState([worker], line_oracle)
        request = make_request(0, 3, 5)
        route = route_with_requests(worker, line_oracle, [request])
        fleet.peek_state(0).adopt_route(route, request=request)
        fleet.set_clock(25.0)
        fleet.state_of(0)  # materialised at t=20 (vertex 2)
        # 5 seconds of unobserved motion at 10 m/s
        assert fleet.position_slack_metres(10.0) == pytest.approx(50.0)

    def test_idle_workers_add_no_slack(self, line_oracle):
        # an idle worker never materialised since t=0 cannot have drifted
        fleet = FleetState([make_worker(0, 0), make_worker(1, 4)], line_oracle)
        fleet.set_clock(1_000.0)
        assert fleet.position_slack_metres(10.0) == 0.0

    def test_lazy_completions_are_buffered(self, line_oracle):
        worker = make_worker(0, 0)
        fleet = FleetState([worker], line_oracle)
        request = make_request(0, 1, 2)
        route = route_with_requests(worker, line_oracle, [request])
        fleet.peek_state(0).adopt_route(route, request=request)
        fleet.set_clock(100.0)
        fleet.state_of(0)
        records = fleet.drain_completions()
        assert len(records) == 1
        assert records[0].dropoff_time == pytest.approx(20.0)
        assert fleet.drain_completions() == []
