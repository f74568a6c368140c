"""Tests for scenario-program compilation (fleet/workload/surge/disruption lowering)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.scenarios import (
    DemandSurge,
    FleetClass,
    NetworkDisruption,
    ScenarioProgram,
    WorkloadClass,
    compile_program,
    get_preset,
)
from repro.scenarios.compile import BASE_CLASS
from repro.network.graph import connected_components
from repro.workloads.scenarios import ScenarioConfig, build_instance


@pytest.fixture(scope="module")
def config():
    return ScenarioConfig(city="small-grid", num_workers=8, num_requests=40,
                          horizon_hours=1.5, seed=11)


class TestEmptyProgram:
    def test_bit_identical_to_build_instance(self, config):
        base = build_instance(config)
        compiled = compile_program(config)
        assert compiled.instance.workers == base.workers
        assert compiled.instance.requests == base.requests
        assert compiled.timeline == ()
        assert set(compiled.request_classes.values()) == {BASE_CLASS}
        assert set(compiled.worker_classes.values()) == {BASE_CLASS}

    def test_compile_is_deterministic(self, config):
        program = get_preset("rush-hour-chaos")
        first = compile_program(config, program)
        second = compile_program(config, program)
        assert first.instance.requests == second.instance.requests
        assert first.instance.workers == second.instance.workers
        assert first.timeline == second.timeline


class TestFleetClasses:
    def test_classes_replace_scalar_fleet(self, config):
        program = ScenarioProgram(
            fleet=(
                FleetClass(name="sedan", count=5, capacity=2),
                FleetClass(name="van", count=3, capacity=6),
            )
        )
        compiled = compile_program(config, program)
        workers = compiled.instance.workers
        assert len(workers) == 8
        assert [worker.id for worker in workers] == list(range(8))
        by_class = {}
        for worker in workers:
            by_class.setdefault(compiled.worker_classes[worker.id], []).append(worker)
        assert len(by_class["sedan"]) == 5
        assert len(by_class["van"]) == 3
        # a class *is* its capacity (no Gaussian draw)
        assert {worker.capacity for worker in by_class["sedan"]} == {2}
        assert {worker.capacity for worker in by_class["van"]} == {6}

    def test_class_shifts_materialise(self, config):
        program = ScenarioProgram(
            fleet=(
                FleetClass(name="day", count=6, shift_hours=0.5),
                FleetClass(name="always", count=2),
            )
        )
        compiled = compile_program(config, program)
        dynamics = compiled.instance.dynamics
        assert dynamics is not None
        shifted = {shift.worker_id for shift in dynamics.shifts}
        day_ids = {wid for wid, label in compiled.worker_classes.items() if label == "day"}
        assert shifted and shifted <= day_ids


class TestWorkloadClasses:
    def test_classes_replace_scalar_stream(self, config):
        program = ScenarioProgram(
            workload=(
                WorkloadClass(name="ride", count=20),
                WorkloadClass(name="food", count=10, deadline_minutes=5.0, capacity=1),
            )
        )
        compiled = compile_program(config, program)
        requests = compiled.instance.requests
        assert len(requests) == 30
        assert [request.id for request in requests] == list(range(30))
        releases = [request.release_time for request in requests]
        assert releases == sorted(releases)
        food = [r for r in requests if compiled.request_classes[r.id] == "food"]
        assert len(food) == 10
        assert all(request.capacity == 1 for request in food)
        assert all(
            request.deadline == request.release_time + 300.0 for request in food
        )


class TestSurges:
    def test_surge_adds_burst_inside_window(self, config):
        surge = DemandSurge(name="concert", start_hours=0.5, duration_minutes=10.0,
                            count=15, capacity=2)
        compiled = compile_program(config, ScenarioProgram(surges=(surge,)))
        requests = compiled.instance.requests
        assert len(requests) == config.num_requests + 15
        surge_requests = [
            r for r in requests if compiled.request_classes[r.id] == "surge:concert"
        ]
        assert len(surge_requests) == 15
        start, end = 0.5 * 3600.0, 0.5 * 3600.0 + 600.0
        assert all(start <= r.release_time <= end for r in surge_requests)
        assert all(r.capacity == 2 for r in surge_requests)

    def test_surge_origins_are_concentrated(self, config):
        surge = DemandSurge(name="concert", start_hours=0.5, duration_minutes=10.0,
                            count=20, spread_fraction=0.02)
        compiled = compile_program(config, ScenarioProgram(surges=(surge,)))
        origins = {
            r.origin
            for r in compiled.instance.requests
            if compiled.request_classes[r.id] == "surge:concert"
        }
        # 20 bursty trips from a tight venue cluster reuse far fewer origins
        # than 20 city-wide trips would
        assert len(origins) <= 10


class TestDisruptions:
    def test_timeline_is_chronological_and_reopens(self, config):
        program = ScenarioProgram(
            disruptions=(
                NetworkDisruption(name="works", start_hours=0.25, duration_minutes=30.0,
                                  edge_count=2),
                NetworkDisruption(name="collapse", start_hours=1.0, edge_count=1),
            )
        )
        compiled = compile_program(config, program)
        times = [action.time for action in compiled.timeline]
        assert times == sorted(times)
        kinds = [(action.kind, action.disruption) for action in compiled.timeline]
        assert ("close", "works") in kinds
        assert ("reopen", "works") in kinds
        assert ("close", "collapse") in kinds
        close = next(a for a in compiled.timeline if a.disruption == "works" and
                     a.kind == "close")
        reopen = next(a for a in compiled.timeline if a.disruption == "works" and
                      a.kind == "reopen")
        assert reopen.edges == close.edges
        assert reopen.time == close.time + 1800.0

    def test_closures_never_disconnect(self, config):
        program = ScenarioProgram(
            disruptions=(
                NetworkDisruption(name=f"blast-{i}", start_hours=0.1 * (i + 1),
                                  edge_count=3)
                for i in range(3)
            )
        )
        program = ScenarioProgram(name="blasts",
                                  disruptions=tuple(program.disruptions))
        compiled = compile_program(config, program)
        network = compiled.instance.network
        for action in compiled.timeline:
            action.apply(network)
            components = connected_components(network)
            assert components.count == 1, f"disconnected after {action.disruption}"

    def test_apply_round_trip_restores_edges(self, config):
        program = ScenarioProgram(
            disruptions=(
                NetworkDisruption(name="works", start_hours=0.25, duration_minutes=10.0,
                                  edge_count=2),
            )
        )
        compiled = compile_program(config, program)
        network = compiled.instance.network
        close, reopen = compiled.timeline
        before = network.num_edges
        close.apply(network)
        assert network.num_edges == before - len(close.edges)
        reopen.apply(network)
        assert network.num_edges == before
        for spec in close.edges:
            edge = network.edge(spec.u, spec.v)
            assert edge.length == spec.length
            assert edge.speed == spec.speed


class TestValidationAtCompile:
    def test_invalid_program_rejected(self, config):
        program = ScenarioProgram(fleet=(FleetClass(name="bad", count=-1),))
        with pytest.raises(ConfigurationError):
            compile_program(config, program)
