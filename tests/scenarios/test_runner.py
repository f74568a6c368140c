"""Tests for running scenario programs through the serving code path."""

from dataclasses import replace

import pytest

from repro.dispatch.registry import DispatcherSpec
from repro.exceptions import UnsupportedNetworkUpdateError
from repro.scenarios import (
    NetworkDisruption,
    ScenarioProgram,
    get_preset,
    run_program,
)
from repro.service.facade import replay_workload
from repro.service.spec import PlatformSpec
from repro.workloads.scenarios import ScenarioConfig


@pytest.fixture(scope="module")
def config():
    return ScenarioConfig(city="small-grid", num_workers=8, num_requests=40,
                          horizon_hours=1.5, seed=11)


@pytest.fixture(scope="module")
def spec(config):
    return PlatformSpec(scenario=config)


class TestEmptyProgram:
    def test_reproduces_plain_replay_bit_for_bit(self, spec):
        plain = replay_workload(PlatformSpec(scenario=spec.scenario))
        empty = run_program(PlatformSpec(scenario=spec.scenario)).result
        assert empty.unified_cost == plain.unified_cost
        assert empty.total_travel_cost == plain.total_travel_cost
        assert empty.served_requests == plain.served_requests
        assert empty.rejected_requests == plain.rejected_requests
        assert empty.distance_queries == plain.distance_queries


class TestDisruptionRuns:
    def test_street_closures_preset_completes(self, spec):
        outcome = run_program(spec, get_preset("street-closures"))
        assert outcome.result.total_requests == 40
        assert outcome.compiled.has_disruptions
        assert outcome.result.served_requests > 0

    def test_disruption_changes_outcome(self, spec):
        baseline = run_program(spec).result
        disrupted = run_program(
            spec,
            ScenarioProgram(
                disruptions=(
                    NetworkDisruption(name="big", start_hours=0.2, edge_count=8),
                )
            ),
        ).result
        # the same workload routed around 8 missing streets costs differently
        assert disrupted.total_travel_cost != baseline.total_travel_cost

    def test_rerun_is_deterministic(self, spec):
        program = get_preset("street-closures")
        first = run_program(spec, program).result
        second = run_program(spec, program).result
        assert first.unified_cost == second.unified_cost
        assert first.total_travel_cost == second.total_travel_cost
        assert first.served_requests == second.served_requests


class TestClassStats:
    def test_multi_class_stats_cover_every_class(self, config):
        spec = PlatformSpec(
            scenario=ScenarioConfig(city="small-grid", num_workers=10,
                                    num_requests=30, horizon_hours=1.5, seed=3)
        )
        outcome = run_program(spec, get_preset("multi-class"))
        assert set(outcome.class_stats) >= {"ridesharing", "food", "parcel"}
        for label, stats in outcome.class_stats.items():
            assert stats["served"] <= stats["requests"], label
            assert 0.0 <= stats["served_rate"] <= 1.0, label

    def test_completion_observer_fires(self, spec):
        seen = []
        outcome = run_program(spec, on_completion=lambda record, now: seen.append(record))
        assert len(seen) == len(outcome.completions)
        assert len(seen) >= outcome.result.served_requests


class TestClusterRuns:
    def test_mixed_fleet_on_cluster(self, config):
        cluster_spec = PlatformSpec(
            scenario=config,
            dispatcher=DispatcherSpec.parse("cluster:pruneGreedyDP"),
        )
        outcome = run_program(cluster_spec, get_preset("mixed-fleet"))
        assert outcome.result.total_requests == 40
        assert len(outcome.compiled.instance.workers) == 100
        assert outcome.result.served_requests > 0

    def test_street_closures_on_cluster_bit_identical_to_sharded(self, config):
        program = get_preset("street-closures")
        sharded_spec = PlatformSpec(
            scenario=config,
            dispatcher=replace(
                DispatcherSpec.parse("sharded:pruneGreedyDP"), num_shards=4
            ),
        )
        cluster_spec = PlatformSpec(
            scenario=config,
            dispatcher=replace(
                DispatcherSpec.parse("cluster:pruneGreedyDP"), num_shards=4
            ),
        )
        sharded = run_program(sharded_spec, program).result
        cluster_outcome = run_program(cluster_spec, program)
        cluster = cluster_outcome.result
        # the PR 6 contract extends to disruption programs: bit-identical at
        # K>1 on served metrics (distance_queries differ by design — replicas
        # duplicate oracle work)
        assert cluster.served_requests == sharded.served_requests
        assert cluster.rejected_requests == sharded.rejected_requests
        assert cluster.unified_cost == sharded.unified_cost
        assert cluster.mean_wait_seconds == sharded.mean_wait_seconds
        assert cluster.mean_detour_ratio == sharded.mean_detour_ratio
        # the broadcast telemetry counts one update per timed action
        timeline = len(cluster_outcome.compiled.timeline)
        assert cluster.extra["cluster_network_updates"] == float(timeline)

    def test_bare_notify_raises_typed_error(self, config):
        cluster_spec = PlatformSpec(
            scenario=config,
            dispatcher=DispatcherSpec.parse("cluster:pruneGreedyDP"),
        )
        from repro.service.facade import MatchingService

        with MatchingService.from_spec(cluster_spec) as service:
            with pytest.raises(UnsupportedNetworkUpdateError):
                service.dispatcher.notify_network_changed()
