"""Hold the figure sweeps to the paper's Section 6 claims.

Runs Figures 3-7 at the ``small`` scale and seed 2018 in both cities through
:data:`repro.experiments.FIGURES` and one default
:class:`~repro.experiments.ScenarioRunner` (what ``repro figure`` runs): 50
points of five algorithms each. Every claim below is a pure function of the
code and the seed (no timing enters it), so each is held exactly:

* at every point, pruneGreedyDP issues fewer shortest-distance queries than
  GreedyDP and ``==`` its unified cost and served rate (Lemma 8 saves
  queries, never a decision);
* at exactly the points the file pins, tshare serves strictly the fewest
  requests, so a new exception (or a point that stops being one) is red;
* Figure 3: pruneGreedyDP's unified cost falls strictly as the fleet grows,
  and its served rate at the largest fleet is at least the smallest's;
* Figure 4: pruneGreedyDP's cost at the largest capacity is at most 1.02x
  its cost at the smallest, and at the default capacity it serves at least
  as much as tshare;
* Figure 5: tshare's grid index takes more memory than pruneGreedyDP's at
  every cell size and at least as much at the finest as at the coarsest, and
  pruneGreedyDP's costs lie within 1.15x of each other;
* Figure 6: at the longest deadline pruneGreedyDP serves at least as much,
  and costs at most as much, as at the shortest;
* Figure 7: pruneGreedyDP's cost at the largest penalty is at least its
  cost at the smallest, and at most 1.01x tshare's there.

The file pins the sweep's points (a missing point is red) and tshare's
points; nothing else. Usage::

    python tools/check_paper_claims.py PAPER_CLAIMS.json

    # a change that moves the points on purpose re-records them (and says why)
    python tools/check_paper_claims.py --write PAPER_CLAIMS.json

Exit status 1 names every claim that fails, at its figure, city and point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict

from repro.experiments import FIGURES, PAPER_ALGORITHMS, ExperimentConfig, ScenarioRunner

SCALE = "small"
SEED = 2018
CITIES = ("chengdu-like", "nyc-like")
METRICS = ("unified_cost", "served_rate", "distance_queries", "index_memory_bytes")
PRUNE, GREEDY, TSHARE = "pruneGreedyDP", "GreedyDP", "tshare"


def sweep_rows() -> list[dict]:
    """One row per (figure, city, value, algorithm) of the 50-point sweep."""
    experiment = ExperimentConfig(cities=CITIES, scale=SCALE, seed=SEED)
    runner = ScenarioRunner()
    rows = []
    for name, run in sorted(FIGURES.items()):
        for point in run(experiment, runner).points:
            for result in point.results:
                row = result.as_row()
                rows.append({
                    "figure": name, "city": point.city, "value": point.value,
                    "algorithm": result.algorithm, **{metric: row[metric] for metric in METRICS},
                })
    return rows


def _points(rows: list[dict]) -> dict[tuple, dict[str, dict]]:
    points: dict[tuple, dict[str, dict]] = defaultdict(dict)
    for row in rows:
        points[(row["figure"], row["city"], row["value"])][row["algorithm"]] = row
    return points


def _tshare_serves_fewest(at: dict[str, dict]) -> bool:
    others = [row["served_rate"] for algorithm, row in at.items() if algorithm != TSHARE]
    return at[TSHARE]["served_rate"] < min(others)


def recorded(rows: list[dict]) -> dict:
    """The claims file of a sweep: its points and tshare's, in sweep order."""
    points = _points(rows)
    return {
        "scale": SCALE,
        "seed": SEED,
        "points": [list(key) for key in points],
        "tshare_serves_fewest": [
            list(key) for key, at in points.items() if _tshare_serves_fewest(at)
        ],
    }


def _dumps(claims: dict) -> str:
    """The claims file's text: one point a line, so a re-record diffs by point."""
    blocks = [
        f' "{name}": [\n' + ",\n".join(f"  {json.dumps(key)}" for key in claims[name]) + "\n ]"
        for name in ("points", "tshare_serves_fewest")
    ]
    head = [f' "{name}": {json.dumps(claims[name])}' for name in ("scale", "seed")]
    return "{\n" + ",\n".join(head + blocks) + "\n}\n"


def _label(key: tuple) -> str:
    figure, city, value = key
    return f"{figure} {city} @ {value}"


def _series(points, figure: str, city: str, algorithm: str, metric: str) -> list[float]:
    """``metric`` of ``algorithm`` over the swept values, in ascending order."""
    return [
        at[algorithm][metric]
        for (name, where, _), at in sorted(points.items(), key=lambda item: item[0][2])
        if name == figure and where == city
    ]


def _figure_claims(points, figure: str, city: str) -> list[str]:
    """The claims of one figure's series in one city that fail."""
    cost = _series(points, figure, city, PRUNE, "unified_cost")
    served = _series(points, figure, city, PRUNE, "served_rate")
    if len(cost) < 2:
        return []
    failed = []
    if figure == "figure3":
        if any(later >= earlier for earlier, later in zip(cost, cost[1:])):
            failed.append(f"pruneGreedyDP's cost does not fall strictly: {cost}")
        if served[-1] < served[0]:
            failed.append(f"pruneGreedyDP serves less at the largest fleet: {served}")
    elif figure == "figure4":
        if cost[-1] > cost[0] * 1.02:
            failed.append(f"pruneGreedyDP's cost at the largest capacity > 1.02x: {cost}")
        default = ExperimentConfig().worker_capacity
        at = points.get((figure, city, default))
        if at is not None and at[PRUNE]["served_rate"] < at[TSHARE]["served_rate"]:
            failed.append(f"pruneGreedyDP serves less than tshare at capacity {default}")
    elif figure == "figure5":
        tshare_memory = _series(points, figure, city, TSHARE, "index_memory_bytes")
        prune_memory = _series(points, figure, city, PRUNE, "index_memory_bytes")
        if any(mine <= theirs for mine, theirs in zip(tshare_memory, prune_memory)):
            failed.append(f"tshare's index is not the larger: {tshare_memory} vs {prune_memory}")
        if tshare_memory[0] < tshare_memory[-1]:
            failed.append(f"tshare's index shrinks on the finest grid: {tshare_memory}")
        if max(cost) > min(cost) * 1.15:
            failed.append(f"pruneGreedyDP's costs spread past 1.15x: {cost}")
    elif figure == "figure6":
        if served[-1] < served[0]:
            failed.append(f"pruneGreedyDP serves less at the longest deadline: {served}")
        if cost[-1] > cost[0]:
            failed.append(f"pruneGreedyDP costs more at the longest deadline: {cost}")
    elif figure == "figure7":
        tshare_cost = _series(points, figure, city, TSHARE, "unified_cost")
        if cost[-1] < cost[0]:
            failed.append(f"pruneGreedyDP's cost falls with the penalty: {cost}")
        if cost[-1] > tshare_cost[-1] * 1.01:
            failed.append(f"pruneGreedyDP's cost > 1.01x tshare's at the largest penalty: "
                          f"{cost[-1]} vs {tshare_cost[-1]}")
    return [f"{figure} {city}: {claim}" for claim in failed]


def problems(expected: dict, rows: list[dict]) -> list[str]:
    """One line per claim the sweep ``rows`` break against the claims file."""
    found = []
    if (expected["scale"], expected["seed"]) != (SCALE, SEED):
        found.append(f"the file was recorded at scale {expected['scale']!r}, seed "
                     f"{expected['seed']}; the sweep runs {SCALE!r}, {SEED}")
    points = _points(rows)
    pinned = {tuple(key) for key in expected["points"]}
    for key in pinned - points.keys():
        found.append(f"{_label(key)}: missing from the sweep")
    for key in points.keys() - pinned:
        found.append(f"{_label(key)}: not in the claims file")
    complete = {}
    for key, at in points.items():
        missing = [algorithm for algorithm in PAPER_ALGORITHMS if algorithm not in at]
        if missing:
            found.append(f"{_label(key)}: no result for {', '.join(missing)}")
            continue
        complete[key] = at
        prune, greedy = at[PRUNE], at[GREEDY]
        if prune["distance_queries"] >= greedy["distance_queries"]:
            found.append(f"{_label(key)}: pruneGreedyDP issues {prune['distance_queries']} "
                         f"queries, GreedyDP {greedy['distance_queries']}")
        for metric in ("unified_cost", "served_rate"):
            if prune[metric] != greedy[metric]:
                found.append(f"{_label(key)}: pruneGreedyDP's {metric} {prune[metric]!r} "
                             f"!= GreedyDP's {greedy[metric]!r}")
    fewest = {key for key, at in complete.items() if _tshare_serves_fewest(at)}
    tshare = {tuple(key) for key in expected["tshare_serves_fewest"]}
    for key in tshare - fewest:
        if key in complete:
            found.append(f"{_label(key)}: tshare no longer serves strictly the fewest")
    for key in fewest - tshare:
        found.append(f"{_label(key)}: tshare serves strictly the fewest, the file does not pin it")
    for figure, city in sorted({(figure, city) for figure, city, _ in complete}):
        found.extend(_figure_claims(complete, figure, city))
    return sorted(found)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("claims", help="the committed claims file (JSON)")
    parser.add_argument("--write", action="store_true",
                        help="rewrite the claims file from a sweep instead of checking")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    rows = sweep_rows()
    elapsed = time.perf_counter() - started
    if args.write:
        with open(args.claims, "w", encoding="utf-8") as handle:
            handle.write(_dumps(recorded(rows)))
        return 0
    with open(args.claims, encoding="utf-8") as handle:
        expected = json.load(handle)
    found = problems(expected, rows)
    for problem in found:
        print(f"check_paper_claims: {problem}")
    if not found:
        print(f"check_paper_claims: {len(_points(rows))} points hold every claim "
              f"({elapsed:.0f} s sweep)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
