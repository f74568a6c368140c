"""Wiring of real-map cities and the artifact store through CLI and runner."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import ScenarioRunner
from repro.workloads.scenarios import ScenarioConfig, build_network, make_oracle


@pytest.fixture()
def geojson_extract(tmp_path):
    path = tmp_path / "toytown.geojson"
    features = []
    for i in range(6):
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [[i * 100.0, 0.0], [(i + 1) * 100.0, 0.0]],
                },
                "properties": {"highway": "residential"},
            }
        )
    features.append(
        {
            "type": "Feature",
            "geometry": {
                "type": "LineString",
                "coordinates": [[200.0, 0.0], [200.0, 150.0]],
            },
            "properties": {"highway": "primary"},
        }
    )
    path.write_text(
        json.dumps({"type": "FeatureCollection", "features": features}),
        encoding="utf-8",
    )
    return path


class TestCityNameValidation:
    def test_registry_city_accepted(self):
        args = build_parser().parse_args(["simulate", "--city", "riverton"])
        assert args.city == "riverton"

    def test_file_city_accepted(self):
        args = build_parser().parse_args(["simulate", "--city", "file:/tmp/x.geojson"])
        assert args.city == "file:/tmp/x.geojson"

    def test_unknown_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--city", "atlantis"])

    def test_empty_file_city_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--city", "file:"])


class TestIngestCommand:
    def test_ingest_prints_report_and_hash(self, geojson_extract, capsys):
        exit_code = main(["ingest", str(geojson_extract), "--projection", "planar"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "network 'toytown'" in out
        assert "content hash:" in out
        assert "node snapping:" in out

    def test_ingest_writes_network_json(self, geojson_extract, tmp_path, capsys):
        output = tmp_path / "toytown.json.gz"
        exit_code = main(
            ["ingest", str(geojson_extract), "--projection", "planar",
             "--output", str(output)]
        )
        assert exit_code == 0
        assert output.exists()
        from repro.network.io import load_network

        network = load_network(output)
        assert network.name == "toytown"
        assert network.num_edges == 7

    def test_ingest_error_is_reported_not_raised(self, tmp_path, capsys):
        exit_code = main(["ingest", str(tmp_path / "missing.geojson")])
        captured = capsys.readouterr()
        assert exit_code == 1
        assert "error:" in captured.err


class TestPreprocessCommand:
    def test_build_then_load(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        argv = ["preprocess", "--city", "small-grid", "--seed", "3",
                "--artifact-dir", str(store_dir), "--backends", "ch"]
        assert main(argv) == 0
        assert "ch: built and saved" in capsys.readouterr().out
        assert main(argv) == 0
        assert "ch: loaded from store" in capsys.readouterr().out

    def test_list_entries(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["preprocess", "--city", "small-grid", "--seed", "3",
                     "--artifact-dir", str(store_dir), "--list"]) == 0
        assert "is empty" in capsys.readouterr().out
        main(["preprocess", "--city", "small-grid", "--seed", "3",
              "--artifact-dir", str(store_dir), "--backends", "ch"])
        capsys.readouterr()
        assert main(["preprocess", "--city", "small-grid", "--seed", "3",
                     "--artifact-dir", str(store_dir), "--list"]) == 0
        out = capsys.readouterr().out
        assert "small-grid" in out
        assert "ch: built in" in out

    def test_file_city_preprocess(self, geojson_extract, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["preprocess", "--city", f"file:{geojson_extract}",
                     "--artifact-dir", str(store_dir), "--backends", "apsp"]) == 0
        assert "apsp: built and saved" in capsys.readouterr().out


class TestScenarioArtifactWiring:
    def test_make_oracle_attaches_store(self, tmp_path):
        config = ScenarioConfig(
            city="small-grid", seed=3, oracle_backend="ch",
            oracle_artifact_dir=str(tmp_path / "store"),
        )
        network = build_network(config)
        first = make_oracle(network, config)
        assert first.artifact_store is not None
        assert not first.artifact_loaded
        second = make_oracle(network, config)
        assert second.artifact_loaded

    def test_simulate_with_artifact_dir(self, tmp_path, capsys):
        import re

        def mask_timings(text):
            return re.sub(r"\d+\.\d+e[+-]\d+", "<t>", text)

        argv = ["simulate", "--city", "small-grid", "--workers", "6",
                "--requests", "15", "--algorithm", "nearest", "--seed", "3",
                "--oracle-backend", "ch", "--artifact-dir", str(tmp_path / "store")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # second run loads the artifact: same metrics,
        second = capsys.readouterr().out  # only the runtime column may move
        assert mask_timings(second) == mask_timings(first)


class TestRunnerMemoKey:
    def test_distinct_stores_build_distinct_oracles(self, tmp_path):
        runner = ScenarioRunner()
        base = dict(city="small-grid", seed=3, oracle_backend="ch")
        a = runner.oracle_for(
            ScenarioConfig(**base, oracle_artifact_dir=str(tmp_path / "a"))
        )
        b = runner.oracle_for(
            ScenarioConfig(**base, oracle_artifact_dir=str(tmp_path / "b"))
        )
        assert a is not b

    def test_same_store_two_spellings_share_one_oracle(self, tmp_path):
        runner = ScenarioRunner()
        base = dict(city="small-grid", seed=3, oracle_backend="ch")
        store = tmp_path / "store"
        a = runner.oracle_for(
            ScenarioConfig(**base, oracle_artifact_dir=str(store))
        )
        b = runner.oracle_for(
            ScenarioConfig(**base, oracle_artifact_dir=str(tmp_path / "." / "store"))
        )
        assert a is b

    def test_no_store_still_memoises(self):
        runner = ScenarioRunner()
        config = ScenarioConfig(city="small-grid", seed=3, oracle_backend="ch")
        assert runner.oracle_for(config) is runner.oracle_for(config)
