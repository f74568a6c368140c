"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ConfigurationError


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.algorithm == "pruneGreedyDP"
        assert args.city == "chengdu-like"

    def test_figure_requires_known_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure99"])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--algorithm", "magic"])

    def test_sharding_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.shards == 0
        assert args.shard_strategy == "grid"
        assert args.escalate_k == 2

    def test_sweep_requires_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--parameter", "num_workers"])

    def test_sweep_rejects_unknown_parameter(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--parameter", "magic", "--values", "1"])

    def test_retired_engine_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--engine", "legacy"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --engine legacy" in capsys.readouterr().err


class TestCommands:
    def test_simulate_runs(self, capsys):
        exit_code = main([
            "simulate", "--city", "small-grid", "--workers", "6", "--requests", "20",
            "--algorithm", "GreedyDP", "--seed", "3",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "GreedyDP" in captured
        assert "unified_cost" in captured

    def test_compare_runs(self, capsys):
        exit_code = main([
            "compare", "--city", "small-grid", "--workers", "6", "--requests", "15",
            "--algorithms", "pruneGreedyDP", "tshare", "--seed", "3",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "pruneGreedyDP" in captured and "tshare" in captured

    def test_simulate_sharded(self, capsys):
        exit_code = main([
            "simulate", "--city", "small-grid", "--workers", "8", "--requests", "20",
            "--algorithm", "pruneGreedyDP", "--shards", "4", "--seed", "3",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "sharded:pruneGreedyDP" in captured
        assert "sharding_local_hits" in captured

    def test_sweep_runs_and_writes_json(self, capsys, tmp_path):
        output = tmp_path / "sweep.json"
        exit_code = main([
            "sweep", "--city", "small-grid", "--requests", "10", "--seed", "3",
            "--parameter", "num_workers", "--values", "4", "6",
            "--algorithms", "nearest", "--output", str(output),
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "num_workers = 4" in captured and "num_workers = 6" in captured
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert len(payload) == 2
        assert {row["value"] for row in payload} == {4, 6}

    def test_datasets_prints_tables(self, capsys):
        exit_code = main(["datasets", "--scale", "tiny"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 4" in captured and "Table 5" in captured

    def test_figure_with_json_output(self, capsys, tmp_path):
        output = tmp_path / "fig3.json"
        exit_code = main([
            "figure", "figure3", "--scale", "tiny", "--cities", "small-grid",
            "--algorithms", "pruneGreedyDP", "--output", str(output),
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "figure3" in captured
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["figure"] == "figure3"
        assert len(payload["points"]) == 5


class TestOnlineCommands:
    def test_algorithms_lists_the_registry(self, capsys):
        exit_code = main(["algorithms"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "pruneGreedyDP" in captured and "tshare" in captured
        assert "sharded:<name>" in captured

    def test_unknown_algorithm_error_carries_suggestions(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--algorithm", "pruneGreedy"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr().err
        assert "did you mean" in captured
        assert "pruneGreedyDP" in captured
        assert "repro algorithms" in captured

    def test_sharded_algorithm_names_accepted(self):
        args = build_parser().parse_args(["simulate", "--algorithm", "sharded:tshare"])
        assert args.algorithm == "sharded:tshare"

    def test_serve_replay_streams_decisions(self, capsys):
        exit_code = main([
            "serve-replay", "--city", "small-grid", "--workers", "6",
            "--requests", "8", "--algorithm", "batch", "--seed", "3",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "deferred to batch window" in captured
        assert "-> worker" in captured
        assert "session closed" in captured
        assert "unified_cost" in captured

    def test_serve_replay_quiet_and_limited(self, capsys):
        exit_code = main([
            "serve-replay", "--city", "small-grid", "--workers", "6",
            "--requests", "20", "--max-requests", "5", "--seed", "3", "--quiet",
        ])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "serving 5 requests" in captured
        assert "-> worker" not in captured

    def test_serve_replay_from_spec_file(self, capsys, tmp_path):
        spec_path = tmp_path / "platform.json"
        spec_path.write_text(json.dumps({
            "scenario": {"city": "small-grid", "num_workers": 6,
                         "num_requests": 8, "seed": 3},
            "dispatcher": {"algorithm": "nearest"},
        }), encoding="utf-8")
        exit_code = main(["serve-replay", "--spec", str(spec_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "nearest" in captured and "session closed" in captured

    def test_simulate_from_spec_file_matches_flags(self, capsys, tmp_path):
        spec_path = tmp_path / "platform.json"
        spec_path.write_text(json.dumps({
            "scenario": {"city": "small-grid", "num_workers": 6,
                         "num_requests": 20, "seed": 3},
            "dispatcher": {"algorithm": "GreedyDP"},
        }), encoding="utf-8")
        assert main(["simulate", "--spec", str(spec_path)]) == 0
        from_spec = capsys.readouterr().out
        assert main([
            "simulate", "--city", "small-grid", "--workers", "6", "--requests", "20",
            "--algorithm", "GreedyDP", "--seed", "3",
        ]) == 0
        from_flags = capsys.readouterr().out
        # identical deterministic columns (wall-clock response time may differ)
        def deterministic(output: str) -> list[str]:
            rows = [line.split() for line in output.splitlines() if line.strip()]
            return [" ".join(row[:4] + row[5:]) for row in rows]

        assert "GreedyDP" in from_spec
        assert deterministic(from_spec) == deterministic(from_flags)

    @pytest.mark.parametrize("command", ["simulate", "serve-replay"])
    def test_spec_file_with_retired_engine_key_fails_typed(self, command, tmp_path):
        spec_path = tmp_path / "platform.json"
        spec_path.write_text(json.dumps({
            "scenario": {"city": "small-grid", "num_workers": 6,
                         "num_requests": 8, "seed": 3},
            "engine": "event",
        }), encoding="utf-8")
        with pytest.raises(ConfigurationError, match=r"unknown platform spec field\(s\): 'engine'"):
            main([command, "--spec", str(spec_path)])
