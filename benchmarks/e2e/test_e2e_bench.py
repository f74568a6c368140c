"""Tests of the serving benchmark itself: ``python -m pytest benchmarks/e2e -q``.

Everything runs at ``--smoke`` sizes, in this process.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

import check
import compare
import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text("utf-8"))
NAMES = [workload["name"] for workload in SPEC["workloads"]]

_records: dict[tuple[str, bool], dict] = {}


def smoke_record(name: str, trace: bool) -> dict:
    """One smoke run per (workload, mode), shared by the tests below."""
    if (name, trace) not in _records:
        _records[name, trace] = run.run_workload(name, seed=2018, seconds=0.0, trace=trace,
                                                 smoke=True)
    return _records[name, trace]


def test_benchmark_json_names_the_workloads_the_code_has():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_smoke_passes_the_correctness_check(name):
    record = smoke_record(name, trace=False)
    assert record["correct"], record["problems"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert not record["reportable"]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_exactly_the_metrics_of_benchmark_json(name, trace):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {key: m["unit"] for key, m in smoke_record(name, trace)["metrics"].items()}
    assert reported == declared


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_agrees_with_the_untraced_one(name):
    plain, traced = smoke_record(name, trace=False), smoke_record(name, trace=True)
    # run_workload itself fails a traced run whose shims counted other queries
    # than the oracle's own counter, or whose replays differ in any result
    assert traced["correct"], traced["problems"]
    assert traced["counts"] == plain["counts"]
    metrics = traced["metrics"]
    assert metrics["network.distance_queries"]["value"] == plain["counts"]["network.distance_queries"]
    assert metrics["engine.events_processed"]["value"] == plain["counts"]["engine.events_processed"]
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["trace.overhead_ratio"]["value"] > 0.0


def test_layers_run_where_the_readme_says():
    cluster = smoke_record("cluster_k2", trace=True)["metrics"]
    dense = smoke_record("dense_city", trace=True)["metrics"]
    closures = smoke_record("closures_batch", trace=True)["metrics"]
    assert cluster["cluster.send_calls"]["value"] > 0 and dense["cluster.send_calls"]["value"] == 0
    assert cluster["cluster.sent_bytes"]["value"] > 0
    assert closures["scenarios.update_calls"]["value"] == 2  # the closure and its reopening
    assert closures["network.refresh_calls"]["value"] == 2
    assert closures["dispatch.flush_calls"]["value"] > 0 and dense["dispatch.flush_calls"]["value"] == 0
    assert dense["insertion.best_insertion_calls"]["value"] > 0


def test_unknown_workload_fails_with_the_valid_names(capsys):
    with pytest.raises(SystemExit) as raised:
        run.main(["--workload", "rush_hour"])
    assert raised.value.code == 2
    message = capsys.readouterr().err
    assert "rush_hour" in message
    for name in NAMES:
        assert name in message


def test_checker_self_test():
    check.self_test()


def test_a_corrupted_record_fails_the_run(monkeypatch, capsys):
    real_check_fleet = check.check_fleet

    def corrupting_check_fleet(fleet, **options):
        record = next(r for state in fleet.states.values()
                      for r in state.assigned_requests.values() if r.dropoff_time is not None)
        record.pickup_time, record.dropoff_time = record.dropoff_time + 1.0, record.pickup_time
        return real_check_fleet(fleet, **options)

    monkeypatch.setattr(check, "check_fleet", corrupting_check_fleet)
    status = run.main(["--workload", "dense_city", "--smoke", "--trace", "0"])
    last_line = capsys.readouterr().out.splitlines()[-1]
    result = json.loads(last_line)
    assert status == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_compare_accepts_a_file_against_itself_and_rejects_a_regression(capsys):
    entry = smoke_record("dense_city", trace=False)
    merged = {"env": {"seed": 2018}, "workloads": {
        name: {"end_to_end": {k: m["value"] for k, m in entry["metrics"].items()},
               "attempted": entry["attempted"], "failed": entry["failed"]}
        for name in NAMES
    }}
    assert compare.compare(merged, merged, SPEC) == 0

    # at one seed the quality metrics are exact, and held to a tenth of a percent
    costlier = copy.deepcopy(merged)
    costlier["workloads"]["dense_city"]["end_to_end"]["unified_cost"] *= 1.005
    assert compare.compare(merged, costlier, SPEC) == 1
    costlier["env"]["seed"] = 7  # another seed draws another stream: BENCHMARK.json's bound
    assert compare.compare(merged, costlier, SPEC) == 0

    slower = copy.deepcopy(merged)
    slower["workloads"]["metro_sparse"]["end_to_end"]["submit_p99_ms"] *= 1.5
    assert compare.compare(merged, slower, SPEC) == 1
    assert compare.compare(slower, merged, SPEC) == 0  # an improvement is not a regression

    failing = copy.deepcopy(merged)
    failing["workloads"]["cluster_k2"]["failed"] = 3
    assert compare.compare(merged, failing, SPEC) == 1

    incomplete = copy.deepcopy(merged)
    del incomplete["workloads"]["closures_batch"]
    assert compare.compare(merged, incomplete, SPEC) >= 1
    assert "REGRESSION" in capsys.readouterr().out
