"""The paper-claims gate's checker (``tools/check_paper_claims.py``) on
hand-built sweeps: a sweep that keeps every claim passes, and each seeded
fault turns it red, naming the figure, city and point. The 50-point sweep
itself runs in CI's ``paper-claims`` job, not here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_paper_claims.py"
_spec = importlib.util.spec_from_file_location("check_paper_claims", _TOOL)
claims = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(claims)

_VALUES = {
    "figure3": [10, 20, 40, 60, 80],
    "figure4": [3, 4, 6, 10, 20],
    "figure5": [1.0, 2.0, 3.0, 4.0, 5.0],
    "figure6": [5.0, 10.0, 15.0, 20.0, 25.0],
    "figure7": [2.0, 5.0, 10.0, 20.0, 30.0],
}


def _sweep() -> list[dict]:
    """A sweep that keeps every claim: pruneGreedyDP == GreedyDP on fewer
    queries, tshare serves the fewest with the larger index, and every
    pruneGreedyDP series moves the way its figure says."""
    rows = []
    for figure, values in _VALUES.items():
        for city in ("chengdu-like", "nyc-like"):
            for step, value in enumerate(values):
                cost = 1000.0 + 10.0 * step if figure == "figure7" else 1000.0 - 10.0 * step
                served = 0.8 + 0.01 * step
                metrics = {
                    "pruneGreedyDP": (cost, served, 100, 64),
                    "GreedyDP": (cost, served, 200, 64),
                    "batch": (cost + 50.0, 0.7, 150, 64),
                    "kinetic": (cost + 20.0, 0.75, 300, 64),
                    "tshare": (cost + 100.0, 0.5, 250, 5000 - 100 * step),
                }
                for algorithm, (unified, rate, queries, memory) in metrics.items():
                    rows.append({
                        "figure": figure, "city": city, "value": value,
                        "algorithm": algorithm, "unified_cost": unified,
                        "served_rate": rate, "distance_queries": queries,
                        "index_memory_bytes": memory,
                    })
    return rows


def _edit(rows, figure, value, algorithm, city="chengdu-like", **metrics):
    for row in rows:
        if (row["figure"], row["city"], row["value"], row["algorithm"]) == (
            figure, city, value, algorithm
        ):
            row.update(metrics)
    return rows


def test_a_sweep_keeping_every_claim_passes():
    rows = _sweep()
    expected = claims.recorded(rows)
    assert len(expected["points"]) == 50
    assert len(expected["tshare_serves_fewest"]) == 50
    assert claims.problems(expected, rows) == []


def _red(rows, expected=None) -> list[str]:
    found = claims.problems(expected or claims.recorded(_sweep()), rows)
    assert found, "the seeded fault passed the gate"
    return found


def test_prune_issuing_as_many_queries_as_greedy_is_red():
    found = _red(_edit(_sweep(), "figure6", 25.0, "pruneGreedyDP", distance_queries=200))
    assert found == ["figure6 chengdu-like @ 25.0: pruneGreedyDP issues 200 queries, "
                     "GreedyDP 200"]


@pytest.mark.parametrize("metric, value", [("unified_cost", 990.5), ("served_rate", 0.79)])
def test_a_changed_prune_decision_is_red(metric, value):
    found = _red(_edit(_sweep(), "figure4", 4, "pruneGreedyDP", **{metric: value}))
    assert any(f"figure4 chengdu-like @ 4: pruneGreedyDP's {metric}" in line for line in found)


def test_a_non_monotone_figure3_series_is_red():
    rows = _sweep()
    for algorithm in ("pruneGreedyDP", "GreedyDP"):
        _edit(rows, "figure3", 40, algorithm, city="nyc-like", unified_cost=995.0)
    found = _red(rows)
    assert found == ["figure3 nyc-like: pruneGreedyDP's cost does not fall strictly: "
                     "[1000.0, 990.0, 995.0, 970.0, 960.0]"]


def test_a_new_tshare_exception_is_red():
    found = _red(_edit(_sweep(), "figure5", 5.0, "tshare", city="nyc-like", served_rate=0.9))
    assert found == ["figure5 nyc-like @ 5.0: tshare no longer serves strictly the fewest"]


def test_a_point_dropped_from_the_pinned_tshare_set_is_red():
    expected = claims.recorded(_sweep())
    expected["tshare_serves_fewest"].remove(["figure6", "chengdu-like", 20.0])
    found = _red(_sweep(), expected)
    assert found == ["figure6 chengdu-like @ 20.0: tshare serves strictly the fewest, "
                     "the file does not pin it"]


def test_a_missing_point_is_red():
    rows = [row for row in _sweep()
            if (row["figure"], row["city"], row["value"]) != ("figure7", "nyc-like", 30.0)]
    found = _red(rows)
    assert found[0] == "figure7 nyc-like @ 30.0: missing from the sweep"


def test_a_missing_algorithm_is_red():
    rows = [row for row in _sweep()
            if (row["figure"], row["value"], row["algorithm"]) != ("figure3", 10, "kinetic")]
    assert "figure3 nyc-like @ 10: no result for kinetic" in _red(rows)


@pytest.mark.parametrize("figure, value, algorithm, metrics, claim", [
    ("figure3", 80, "pruneGreedyDP", {"served_rate": 0.5}, "serves less at the largest fleet"),
    ("figure4", 20, "pruneGreedyDP", {"unified_cost": 1030.0}, "largest capacity > 1.02x"),
    ("figure4", 4, "tshare", {"served_rate": 0.95}, "serves less than tshare at capacity 4"),
    ("figure5", 3.0, "tshare", {"index_memory_bytes": 64}, "tshare's index is not the larger"),
    ("figure5", 5.0, "tshare", {"index_memory_bytes": 9000}, "shrinks on the finest grid"),
    ("figure5", 1.0, "pruneGreedyDP", {"unified_cost": 1200.0}, "spread past 1.15x"),
    ("figure6", 25.0, "pruneGreedyDP", {"served_rate": 0.6}, "serves less at the longest"),
    ("figure6", 25.0, "pruneGreedyDP", {"unified_cost": 1001.0}, "costs more at the longest"),
    ("figure7", 30.0, "pruneGreedyDP", {"unified_cost": 999.0}, "falls with the penalty"),
    ("figure7", 30.0, "tshare", {"unified_cost": 1000.0}, "> 1.01x tshare's"),
])
def test_each_figure_claim_is_gated(figure, value, algorithm, metrics, claim):
    rows = _edit(_sweep(), figure, value, algorithm, **metrics)
    if algorithm == "pruneGreedyDP":  # keep == GreedyDP: only the figure claim breaks
        _edit(rows, figure, value, "GreedyDP", **metrics)
    found = [line for line in _red(rows) if "tshare serves" not in line
             and "tshare no longer" not in line]
    assert len(found) == 1 and found[0].startswith(f"{figure} chengdu-like: ")
    assert claim in found[0]
