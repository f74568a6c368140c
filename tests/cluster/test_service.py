"""ClusterMatchingService: spec routing, serialisation, determinism."""

import pytest

from repro.cluster.service import ClusterMatchingService
from repro.exceptions import ConfigurationError
from repro.service import MatchingService, PlatformSpec
from repro.workloads.scenarios import ScenarioConfig

_SCENARIO = ScenarioConfig(city="small-grid", num_workers=10, num_requests=40, seed=13)


def _cluster_spec(num_shards: int = 2, **cluster_knobs) -> PlatformSpec:
    return (PlatformSpec.builder()
            .city(_SCENARIO.city, seed=_SCENARIO.seed)
            .workload(num_workers=_SCENARIO.num_workers,
                      num_requests=_SCENARIO.num_requests)
            .dispatcher("pruneGreedyDP")
            .cluster(num_shards=num_shards, **cluster_knobs)
            .build())


class TestSpecRouting:
    def test_from_spec_builds_cluster_facade(self):
        with MatchingService.from_spec(_cluster_spec()) as service:
            assert isinstance(service, ClusterMatchingService)
            assert service.dispatcher.name == "cluster:pruneGreedyDP"
            assert service.dispatcher.num_shards == 2

    def test_cluster_spec_round_trips_through_dict(self):
        spec = _cluster_spec(max_pending=7, dispatch_timeout=12.5)
        restored = PlatformSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.cluster
        assert restored.cluster_max_pending == 7
        assert restored.cluster_dispatch_timeout == 12.5

    def test_cluster_spec_dict_with_engine_key_fails_typed(self):
        # a cluster spec saved while specs still carried an engine
        stale = {**_cluster_spec().to_dict(), "engine": "event"}
        with pytest.raises(ConfigurationError, match="'engine'"):
            PlatformSpec.from_dict(stale)

    def test_cluster_spec_rejects_bad_backpressure_limit(self):
        with pytest.raises(ConfigurationError):
            _cluster_spec(max_pending=0)


class TestDeterminism:
    def test_same_spec_replays_identically(self):
        # satellite: per-worker RNG seeding (derive_spawned_seed) makes two
        # replays of one spec bit-identical despite process-level parallelism
        fingerprints = []
        for _ in range(2):
            with MatchingService.from_spec(_cluster_spec()) as service:
                result = service.replay()
            fingerprints.append((
                result.served_requests,
                result.rejected_requests,
                result.unified_cost,
                result.mean_wait_seconds,
                result.mean_detour_ratio,
            ))
        assert fingerprints[0] == fingerprints[1]
