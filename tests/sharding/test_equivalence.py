"""Sharded-vs-unsharded equivalence: exact at K=1, bounded degradation at K>1.

These are the acceptance tests of the sharding subsystem:

* with one shard the wrapper is pure plumbing — served rate, unified cost and
  every oracle counter must reproduce the unsharded dispatcher bit for bit,
  for immediate *and* batch inner algorithms;
* with K>1 dispatching is local-first, which may trade assignment quality for
  locality; on the smoke scenario the served rate must stay within a
  documented tolerance of the unsharded baseline (the same tolerance
  ``benchmarks/bench_sharding.py`` tracks over time).
"""

import pytest

from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.service import MatchingService
from repro.workloads.scenarios import ScenarioConfig, build_instance
from tests.simulation.seed_loop import run_seed_loop

#: maximum served-rate degradation tolerated at K>1 on the smoke scenario.
#: Local-first dispatch with escalation considers every worker before
#: rejecting, so in practice the delta is close to zero; the bound guards
#: against regressions in the escalation path.
SERVED_RATE_TOLERANCE = 0.05

_SMOKE = ScenarioConfig(city="small-grid", num_workers=14, num_requests=80, seed=2018)


def _fingerprint(result):
    return {
        "total": result.total_requests,
        "served": result.served_requests,
        "rejected": result.rejected_requests,
        "unified_cost": result.unified_cost,
        "travel_cost": result.total_travel_cost,
        "penalty": result.total_penalty,
        "distance_queries": result.distance_queries,
        "lower_bound_queries": result.lower_bound_queries,
        "candidates": result.candidates_considered,
        "insertions": result.insertions_evaluated,
        "dijkstra_runs": result.extra.get("dijkstra_runs"),
    }


def _run(algorithm: str, shards: int | None = None, strategy: str = "grid",
         config: ScenarioConfig = _SMOKE, seed_loop: bool = False):
    dispatcher_config = DispatcherConfig(
        grid_cell_metres=config.grid_km * 1000.0,
        num_shards=shards or 1,
        shard_strategy=strategy,
    )
    name = algorithm if shards is None else f"sharded:{algorithm}"
    instance, dispatcher = build_instance(config), make_dispatcher(name, dispatcher_config)
    if seed_loop:
        return run_seed_loop(instance, dispatcher)
    return MatchingService(instance, dispatcher).replay()


class TestK1Exactness:
    @pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "GreedyDP", "nearest", "batch"])
    def test_event_engine_bit_identical(self, algorithm):
        baseline = _run(algorithm)
        sharded = _run(algorithm, shards=1)
        assert _fingerprint(sharded) == _fingerprint(baseline)

    @pytest.mark.parametrize("algorithm", ["pruneGreedyDP", "batch"])
    def test_seed_loop_bit_identical(self, algorithm):
        # under the seed loop's full walk the wrapper is still pure plumbing
        baseline = _run(algorithm, seed_loop=True)
        sharded = _run(algorithm, shards=1, seed_loop=True)
        assert _fingerprint(sharded) == _fingerprint(baseline)

    def test_tshare_bit_identical(self):
        # tshare forces exact positions (fleet-wide materialisation per event)
        baseline = _run("tshare")
        sharded = _run("tshare", shards=1)
        assert _fingerprint(sharded) == _fingerprint(baseline)

    @pytest.mark.parametrize("strategy", ["grid", "kd"])
    def test_exact_for_both_strategies(self, strategy):
        baseline = _run("pruneGreedyDP")
        sharded = _run("pruneGreedyDP", shards=1, strategy=strategy)
        assert _fingerprint(sharded) == _fingerprint(baseline)

    def test_k1_with_dynamics_bit_identical(self):
        config = _SMOKE.with_overrides(cancellation_rate=0.15, shift_hours=2.0)
        baseline = _run("pruneGreedyDP", config=config)
        sharded = _run("pruneGreedyDP", shards=1, config=config)
        assert _fingerprint(sharded) == _fingerprint(baseline)
        assert sharded.cancelled_requests == baseline.cancelled_requests


class TestEngineIdentity:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_event_and_legacy_agree_at_k_greater_one(self, shards):
        # shard routing materialises exact positions, so the advancement
        # regime (lazy event kernel vs the seed loop's full walk) must not
        # leak into the metrics — the same contract the unsharded
        # dispatchers honour
        event = _run("pruneGreedyDP", shards=shards)
        legacy = _run("pruneGreedyDP", shards=shards, seed_loop=True)
        assert event.served_rate == legacy.served_rate
        assert event.unified_cost == pytest.approx(legacy.unified_cost, abs=1e-9)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_kd_shards_agree_with_the_seed_loop(self, shards):
        # the same contract under the kd-tree partition, whose shard
        # boundaries do not follow the grid cells
        event = _run("pruneGreedyDP", shards=shards, strategy="kd")
        legacy = _run("pruneGreedyDP", shards=shards, strategy="kd", seed_loop=True)
        assert event.served_rate == legacy.served_rate
        assert event.unified_cost == pytest.approx(legacy.unified_cost, abs=1e-9)


class TestBoundedDegradation:
    @pytest.mark.parametrize("shards", [2, 4, 8])
    def test_served_rate_within_tolerance(self, shards):
        baseline = _run("pruneGreedyDP")
        sharded = _run("pruneGreedyDP", shards=shards)
        assert sharded.total_requests == baseline.total_requests
        assert (
            baseline.served_rate - sharded.served_rate <= SERVED_RATE_TOLERANCE
        ), f"K={shards} served rate degraded beyond tolerance"

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharding_reduces_dispatcher_query_volume(self, shards):
        # the point of locality: fewer lower-bound probes per request
        baseline = _run("pruneGreedyDP")
        sharded = _run("pruneGreedyDP", shards=shards)
        assert sharded.lower_bound_queries < baseline.lower_bound_queries

    def test_escalation_prevents_extra_rejections_when_fleet_is_free(self):
        # generous deadlines: anything the unsharded dispatcher serves, the
        # sharded one must also serve somewhere (possibly cross-shard)
        config = _SMOKE.with_overrides(deadline_minutes=30.0, num_requests=40)
        baseline = _run("pruneGreedyDP", config=config)
        sharded = _run("pruneGreedyDP", shards=4, config=config)
        assert sharded.served_requests >= baseline.served_requests
