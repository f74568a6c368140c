"""Tests for figure serialisation (the JSON ``repro figure --output`` writes)."""

import json

from repro.experiments.figures import FigureResult
from repro.experiments.io import SCHEMA_VERSION, figure_to_dict, result_to_dict, save_figure_json
from repro.experiments.runner import SweepPoint
from repro.simulation.metrics import SimulationResult


def _result(algorithm="pruneGreedyDP", unified=123.0, served=40, total=50):
    return SimulationResult(
        algorithm=algorithm,
        instance_name="unit-test",
        alpha=1.0,
        total_requests=total,
        served_requests=served,
        rejected_requests=total - served,
        total_travel_cost=100.0,
        total_penalty=23.0,
        unified_cost=unified,
        total_dispatch_seconds=0.5,
        distance_queries=999,
    )


def _figure():
    figure = FigureResult(figure="figure3", parameter="num_workers")
    for value in (10, 20):
        point = SweepPoint(parameter="num_workers", value=value, city="chengdu-like")
        point.results = [_result("pruneGreedyDP", unified=100.0 / value), _result("tshare", unified=200.0 / value)]
        figure.points.append(point)
    return figure


class TestResultSerialisation:
    def test_carries_fields_and_derived_metrics(self):
        original = _result()
        payload = result_to_dict(original)
        assert payload["algorithm"] == original.algorithm
        assert payload["unified_cost"] == original.unified_cost
        assert payload["distance_queries"] == original.distance_queries
        assert payload["served_rate"] == original.served_rate == 0.8
        assert payload["response_time_s"] == original.response_time_seconds


class TestFigureSerialisation:
    def test_dict_layout(self):
        payload = figure_to_dict(_figure())
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["figure"] == "figure3" and payload["parameter"] == "num_workers"
        assert [point["value"] for point in payload["points"]] == [10, 20]
        assert [result["algorithm"] for result in payload["points"][0]["results"]] == [
            "pruneGreedyDP", "tshare",
        ]

    def test_json_file(self, tmp_path):
        path = tmp_path / "nested" / "figure.json"
        save_figure_json(_figure(), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload == json.loads(json.dumps(figure_to_dict(_figure())))
        assert payload["points"][1]["results"][0]["unified_cost"] == 5.0
