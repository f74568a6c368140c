"""PlatformSpec: builder, validation, serialisation round-trips."""

import json

import pytest

from repro.dispatch.registry import DispatcherSpec
from repro.exceptions import ConfigurationError
from repro.network.generators import grid_city
from repro.network.oracle import DistanceOracle
from repro.service.spec import PlatformSpec
from repro.workloads.scenarios import ScenarioConfig


class TestBuilder:
    def test_fluent_builder_composes_everything(self):
        spec = (PlatformSpec.builder()
                .city("nyc-like", seed=7, city_seed=11)
                .workload(num_workers=25, num_requests=120, deadline_minutes=15.0)
                .oracle(backend="apsp")
                .dispatcher("batch", batch_interval=12.0)
                .sharding(num_shards=4, strategy="kd", escalate_k=3)
                .build())
        assert spec.scenario.city == "nyc-like"
        assert spec.scenario.seed == 7 and spec.scenario.city_seed == 11
        assert spec.scenario.num_workers == 25
        assert spec.scenario.oracle_backend == "apsp"
        assert spec.dispatcher.algorithm == "batch"
        assert spec.dispatcher.batch_interval == 12.0
        assert spec.dispatcher.num_shards == 4
        assert spec.dispatcher.shard_strategy == "kd"
        assert spec.dispatcher.is_sharded
        assert spec.dispatcher.name == "sharded:batch"

    def test_builder_accepts_sharded_names(self):
        spec = PlatformSpec.builder().dispatcher("sharded:tshare").build()
        assert spec.dispatcher.algorithm == "tshare"
        assert spec.dispatcher.is_sharded

    def test_builder_rejects_unknown_workload_field(self):
        with pytest.raises(ConfigurationError, match="num_worker"):
            PlatformSpec.builder().workload(num_worker=10)

    def test_builder_rejects_unknown_dispatcher_knob(self):
        with pytest.raises(ConfigurationError, match="batch_interval"):
            PlatformSpec.builder().dispatcher("batch", batch_intervall=3.0)

    def test_defaults_are_valid(self):
        spec = PlatformSpec()
        assert spec.validate() is spec
        assert spec.dispatcher.algorithm == "pruneGreedyDP"


class TestValidation:
    def test_unknown_city_with_suggestion(self):
        spec = PlatformSpec(scenario=ScenarioConfig(city="nyc-lik"))
        with pytest.raises(ConfigurationError, match="did you mean 'nyc-like'"):
            spec.validate()

    def test_unknown_algorithm_with_suggestion(self):
        with pytest.raises(ConfigurationError, match="did you mean"):
            PlatformSpec(dispatcher=DispatcherSpec(algorithm="pruneGreedy")).validate()

    def test_dispatcher_config_derives_grid_cell_from_scenario(self):
        spec = PlatformSpec(scenario=ScenarioConfig(grid_km=3.0))
        assert spec.dispatcher_config().grid_cell_metres == 3000.0

    def test_explicit_grid_cell_wins(self):
        spec = PlatformSpec(
            scenario=ScenarioConfig(grid_km=3.0),
            dispatcher=DispatcherSpec(grid_cell_metres=500.0),
        )
        assert spec.dispatcher_config().grid_cell_metres == 500.0


class TestSerialisation:
    def _spec(self) -> PlatformSpec:
        return (PlatformSpec.builder()
                .city("small-grid", seed=5)
                .workload(num_workers=9, num_requests=40)
                .dispatcher("batch", batch_interval=9.0)
                .sharding(num_shards=2)
                .build())

    def test_dict_round_trip(self):
        spec = self._spec()
        assert PlatformSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="did you mean 'cluster'"):
            PlatformSpec.from_dict({"clustr": True})

    def test_from_dict_rejects_unknown_scenario_key(self):
        with pytest.raises(ConfigurationError, match="did you mean 'num_workers'"):
            PlatformSpec.from_dict({"scenario": {"num_wrkers": 5}})

    def test_json_file_round_trip(self, tmp_path):
        spec = self._spec()
        path = tmp_path / "platform.json"
        spec.to_json(path)
        loaded = PlatformSpec.from_file(path)
        assert loaded == spec
        # the satellite contract: from_file <-> to_dict round-trips exactly
        assert loaded.to_dict() == spec.to_dict()
        assert json.loads(path.read_text(encoding="utf-8")) == spec.to_dict()

    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "platform.toml"
        path.write_text(
            """
[scenario]
city = "small-grid"
num_workers = 9
num_requests = 40
seed = 5

[dispatcher]
algorithm = "batch"
batch_interval = 9.0
num_shards = 2
sharded = true
""",
            encoding="utf-8",
        )
        loaded = PlatformSpec.from_file(path)
        expected = self._spec()
        assert loaded == expected
        # TOML and JSON payloads describing the same platform agree
        assert loaded.to_dict() == expected.to_dict()

    def test_from_file_rejects_unknown_suffix(self, tmp_path):
        path = tmp_path / "platform.yaml"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="use .json or .toml"):
            PlatformSpec.from_file(path)


class TestRetiredEngineKey:
    """Spec files from before the event kernel became the only engine fail
    typed, naming the field, instead of silently dropping it."""

    _MATCH = r"unknown platform spec field\(s\): 'engine'"

    def test_from_dict_names_the_engine_field(self):
        with pytest.raises(ConfigurationError, match=self._MATCH):
            PlatformSpec.from_dict({"engine": "event"})

    def test_json_file_with_engine_key(self, tmp_path):
        path = tmp_path / "platform.json"
        path.write_text(json.dumps({"engine": "legacy", "scenario": {}}), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=self._MATCH):
            PlatformSpec.from_file(path)

    def test_toml_file_with_engine_key(self, tmp_path):
        path = tmp_path / "platform.toml"
        path.write_text('engine = "event"\n\n[scenario]\nnum_workers = 9\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match=self._MATCH):
            PlatformSpec.from_file(path)


class TestOracleBackendNames:
    """Backend names are checked against one list when the spec is built,
    with a typed error naming the field, not deep inside the run."""

    @pytest.mark.parametrize("name", ["bogus", "hub_labels", "none", "dijkstra"])
    def test_unknown_scenario_backend_fails_at_validate(self, name):
        with pytest.raises(ConfigurationError, match=f"unknown oracle_backend '{name}'"):
            PlatformSpec.from_dict(
                {"scenario": {"city": "small-grid", "oracle_backend": name}}
            ).validate()

    def test_unknown_scenario_backend_gets_a_hint(self):
        with pytest.raises(ConfigurationError, match="did you mean 'apsp'"):
            PlatformSpec.builder().city("small-grid").oracle(backend="apssp").build()

    def test_unknown_oracle_backend_fails_typed(self):
        # the oracle itself, built without a spec, names the argument and the roster
        network = grid_city(rows=3, columns=3, block_metres=200.0, seed=1)
        with pytest.raises(
            ConfigurationError,
            match=r"unknown distance backend 'dijkstra'; backend must be one of \('apsp', 'ch'\)",
        ):
            DistanceOracle(network, backend="dijkstra")

    def test_retired_shard_oracle_key_fails_typed(self):
        # shards query the instance's oracle; there is no per-shard backend
        with pytest.raises(
            ConfigurationError,
            match=r"unknown dispatcher spec field\(s\): 'shard_oracle_backend'",
        ):
            PlatformSpec.from_dict(
                {"dispatcher": {"num_shards": 2, "shard_oracle_backend": "apsp"}}
            )

    @pytest.mark.parametrize("name", ["bogus", "hub_labels"])
    def test_unknown_shard_backend_fails_at_validate(self, name):
        # an unknown name fails as early as a known one: at loading, typed
        with pytest.raises(ConfigurationError, match="'shard_oracle_backend'"):
            PlatformSpec.from_dict(
                {"dispatcher": {"num_shards": 2, "shard_oracle_backend": name}}
            ).validate()

    @pytest.mark.parametrize("key, value", [
        ("oracle_precompute", "apsp"),
        ("use_hub_labels", True),
    ])
    def test_retired_oracle_keys_fail_typed(self, key, value):
        with pytest.raises(
            ConfigurationError, match=rf"unknown scenario field\(s\): '{key}'"
        ):
            PlatformSpec.from_dict({"scenario": {"city": "small-grid", key: value}})


class TestDispatcherSpecRoundTrip:
    def test_dispatcher_spec_dict_round_trip(self):
        spec = DispatcherSpec.parse("sharded:kinetic", num_shards=3, kinetic_node_budget=99)
        assert DispatcherSpec.from_dict(spec.to_dict()) == spec


class TestFileCitiesAndArtifacts:
    def test_file_city_validates(self):
        spec = PlatformSpec(scenario=ScenarioConfig(city="file:/data/town.geojson"))
        assert spec.validate() is spec

    def test_riverton_registry_city_validates(self):
        spec = PlatformSpec(scenario=ScenarioConfig(city="riverton"))
        assert spec.validate() is spec

    def test_empty_file_city_rejected(self):
        spec = PlatformSpec(scenario=ScenarioConfig(city="file:"))
        with pytest.raises(ConfigurationError, match="names no file"):
            spec.validate()

    def test_unknown_city_error_mentions_file_prefix(self):
        spec = PlatformSpec(scenario=ScenarioConfig(city="atlantis"))
        with pytest.raises(ConfigurationError, match="file:<path>"):
            spec.validate()

    def test_builder_oracle_artifact_dir(self):
        spec = (PlatformSpec.builder()
                .city("riverton")
                .oracle(backend="ch", artifact_dir="/tmp/repro-store")
                .build())
        assert spec.scenario.oracle_artifact_dir == "/tmp/repro-store"
        assert spec.scenario.oracle_backend == "ch"

    def test_artifact_dir_survives_dict_round_trip(self):
        spec = (PlatformSpec.builder()
                .city("small-grid")
                .oracle(backend="apsp", artifact_dir="store")
                .build())
        assert PlatformSpec.from_dict(spec.to_dict()) == spec
