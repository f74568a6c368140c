"""Tests for scenario construction (city + fleet + requests -> instance)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.scenarios import (
    CITY_BUILDERS,
    ScenarioConfig,
    build_instance,
    build_network,
    dataset_statistics,
    make_oracle,
    paper_default_scenario,
)


class TestScenarioConfig:
    def test_with_overrides(self):
        base = ScenarioConfig(num_workers=100)
        changed = base.with_overrides(num_workers=50, deadline_minutes=5.0)
        assert changed.num_workers == 50
        assert changed.deadline_minutes == 5.0
        assert base.num_workers == 100  # original untouched

    def test_objective_reflects_alpha_and_penalty(self):
        config = ScenarioConfig(alpha=0.5, penalty_factor=20.0)
        objective = config.objective()
        assert objective.alpha == 0.5
        assert objective.penalty_for(2.0) == pytest.approx(40.0)

    def test_paper_default_scenario(self):
        config = paper_default_scenario("chengdu-like", num_requests=10)
        assert config.city == "chengdu-like"
        assert config.num_requests == 10
        assert config.deadline_minutes == 10.0
        assert config.grid_km == 2.0


class TestBuilders:
    def test_unknown_city_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown city"):
            build_network(ScenarioConfig(city="atlantis"))

    def test_all_registered_cities_build(self):
        for city in CITY_BUILDERS:
            network = build_network(ScenarioConfig(city=city, seed=3))
            assert network.num_vertices > 10

    def test_build_instance_small(self):
        config = ScenarioConfig(city="small-grid", num_workers=5, num_requests=20, seed=1)
        instance = build_instance(config)
        instance.validate()
        assert instance.num_workers == 5
        assert instance.num_requests == 20
        assert instance.objective.alpha == config.alpha

    def test_build_instance_reuses_network_and_oracle(self):
        config = ScenarioConfig(city="small-grid", num_workers=4, num_requests=10, seed=1)
        network = build_network(config)
        oracle = make_oracle(network, config)
        instance = build_instance(config, network=network, oracle=oracle)
        assert instance.network is network
        assert instance.oracle is oracle

    def test_same_seed_same_instance(self):
        config = ScenarioConfig(city="small-grid", num_workers=4, num_requests=15, seed=9)
        first = build_instance(config)
        second = build_instance(config)
        assert [(r.origin, r.destination) for r in first.requests] == [
            (r.origin, r.destination) for r in second.requests
        ]
        assert [w.initial_location for w in first.workers] == [
            w.initial_location for w in second.workers
        ]

    def test_different_seeds_differ(self):
        base = ScenarioConfig(city="small-grid", num_workers=4, num_requests=15)
        first = build_instance(base.with_overrides(seed=1))
        second = build_instance(base.with_overrides(seed=2))
        assert [(r.origin, r.destination) for r in first.requests] != [
            (r.origin, r.destination) for r in second.requests
        ]


class TestOracleSelection:
    def test_auto_uses_apsp_for_small_networks(self):
        config = ScenarioConfig(city="small-grid", seed=1)
        network = build_network(config)
        assert make_oracle(network, config).backend_name == "apsp"

    def test_explicit_backend(self):
        config = ScenarioConfig(city="small-grid", seed=1, oracle_backend="ch")
        network = build_network(config)
        assert make_oracle(network, config).backend_name == "ch"

    def test_a_retired_backend_name_fails_at_construction(self):
        with pytest.raises(
            ConfigurationError,
            match=r"unknown oracle_backend 'dijkstra'; available: \['auto', 'apsp', 'ch'\]",
        ):
            ScenarioConfig(city="small-grid", seed=1, oracle_backend="dijkstra")


class TestDatasetStatistics:
    def test_table4_fields(self):
        stats = dataset_statistics(ScenarioConfig(city="small-grid", num_requests=123, seed=1))
        assert stats["dataset"] == "small-grid"
        assert stats["requests"] == 123.0
        assert stats["vertices"] > 0
        assert stats["edges"] > 0
