"""End-to-end benchmark of the sharded dispatch subsystem (PR 3's tentpole).

Runs pruneGreedyDP unsharded as the baseline, then wrapped in the
:class:`~repro.sharding.dispatcher.ShardedDispatcher` at K ∈ {1, 2, 4, 8},
on the same instance. For every K the script records

* wall-clock (best of ``--repeats``) and the speedup over the baseline;
* served rate / unified cost and their deltas vs the baseline (the quality
  price of dispatching locally instead of globally);
* the sharding counters (local hits, escalations, cross-shard assignments)
  and the merged per-shard oracle totals.

**Gate:** K=1 must reproduce the unsharded baseline exactly — same served
requests, unified cost and distance-query counter. The sharded wrapper is
only allowed to trade quality for locality when K > 1; at K=1 any deviation
is a bug, and the script exits non-zero (CI runs the smoke scenario).

The script appends one entry per scenario to ``BENCH_sharding.json`` so
successive PRs can track the scaling trajectory.

Usage::

    python benchmarks/bench_sharding.py                   # standard @ 300 workers
    python benchmarks/bench_sharding.py --scenario smoke  # CI-sized, <1 min
    python benchmarks/bench_sharding.py --strategy kd --shards 1 2 4
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _trajectory import append_trajectory  # noqa: E402
from repro.dispatch import DispatcherConfig, make_dispatcher  # noqa: E402
from repro.service import MatchingService  # noqa: E402
from repro.workloads.scenarios import (  # noqa: E402
    ScenarioConfig,
    build_instance,
    build_network,
    make_oracle,
    paper_default_scenario,
)

#: named benchmark scenarios; "standard" is the paper-default city at the
#: fleet size where candidate sets get large, "smoke" fits a CI minute.
SCENARIOS = {
    "standard": lambda workers: paper_default_scenario(num_workers=workers or 300),
    "nyc": lambda workers: ScenarioConfig(
        city="nyc-like", num_workers=workers or 300, num_requests=600, seed=2018
    ),
    "smoke": lambda workers: ScenarioConfig(
        city="small-grid", num_workers=workers or 30, num_requests=150, seed=2018
    ),
}


def run_once(config, network, shards: int, strategy: str):
    """One full simulation; returns (wall seconds, result)."""
    oracle = make_oracle(network, config)
    instance = build_instance(config, network=network, oracle=oracle)
    dispatcher_config = DispatcherConfig(
        grid_cell_metres=config.grid_km * 1000.0,
        num_shards=max(shards, 1),
        shard_strategy=strategy,
    )
    name = "pruneGreedyDP" if shards == 0 else "sharded:pruneGreedyDP"
    dispatcher = make_dispatcher(name, dispatcher_config)
    service = MatchingService(instance, dispatcher)
    started = time.perf_counter()
    result = service.replay()
    wall = time.perf_counter() - started
    return wall, result


def fingerprint(result) -> dict:
    """The metrics K=1 must agree on with the unsharded baseline."""
    return {
        "served": result.served_requests,
        "served_rate": result.served_rate,
        "unified_cost": result.unified_cost,
        "distance_queries": result.distance_queries,
    }


def bench_scenario(
    name: str, workers: int | None, repeats: int, shard_counts: list[int], strategy: str
) -> dict:
    config = SCENARIOS[name](workers)
    network = build_network(config)

    def best_of(shards: int):
        walls, last_result = [], None
        for repeat in range(repeats):
            wall, last_result = run_once(config, network, shards, strategy)
            walls.append(wall)
            label = "unsharded" if shards == 0 else f"K={shards}"
            print(
                f"  [{name}] repeat {repeat + 1}/{repeats} {label:>9}: {wall:6.2f}s  "
                f"served {last_result.served_requests}/{last_result.total_requests}"
            )
        return min(walls), last_result

    baseline_wall, baseline = best_of(0)
    baseline_print = fingerprint(baseline)

    sweep_entries = []
    k1_identical = True
    for shards in shard_counts:
        wall, result = best_of(shards)
        result_print = fingerprint(result)
        identical = result_print == baseline_print
        if shards == 1:
            k1_identical = k1_identical and identical
        sweep_entries.append(
            {
                "shards": shards,
                "wall_s": round(wall, 4),
                "speedup": round(baseline_wall / wall, 3) if wall > 0 else float("inf"),
                "served_rate": result.served_rate,
                "served_rate_delta": result.served_rate - baseline.served_rate,
                "unified_cost": result.unified_cost,
                "unified_cost_delta": result.unified_cost - baseline.unified_cost,
                "distance_queries": result.distance_queries,
                "identical_to_baseline": identical,
                "local_hits": result.extra.get("sharding_local_hits"),
                "escalations": result.extra.get("sharding_escalations"),
                "cross_shard_assignments": result.extra.get(
                    "sharding_cross_shard_assignments"
                ),
                "boundary_vertices": result.extra.get("sharding_boundary_vertices"),
            }
        )
        print(
            f"  [{name}] K={shards}: {wall:.2f}s ({baseline_wall / wall:.2f}x), "
            f"served_rate {result.served_rate:.4f} "
            f"({result.served_rate - baseline.served_rate:+.4f}), "
            f"identical: {identical}"
        )

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scenario": name,
        "city": config.city,
        "workers": config.num_workers,
        "requests": config.num_requests,
        "repeats": repeats,
        "strategy": strategy,
        "baseline_wall_s": round(baseline_wall, 4),
        "baseline": baseline_print,
        "sweep": sweep_entries,
        "k1_identical": k1_identical,
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["all"],
        default="standard",
        help="named scenario to run (default: standard; 'all' runs every one)",
    )
    parser.add_argument("--workers", type=int, default=None, help="override the fleet size")
    parser.add_argument(
        "--repeats", type=int, default=3, help="runs per configuration (best-of)"
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4, 8], help="shard counts to sweep"
    )
    parser.add_argument(
        "--strategy", default="grid", choices=["grid", "kd"], help="partitioning strategy"
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_sharding.json",
        help="perf-trajectory JSON file to append to",
    )
    args = parser.parse_args(argv)

    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    entries = []
    for name in names:
        print(f"== sharding benchmark: {name} ==")
        entries.append(
            bench_scenario(name, args.workers, args.repeats, args.shards, args.strategy)
        )
    append_trajectory(args.output, "sharding", entries)

    if not all(entry["k1_identical"] for entry in entries):
        print("FAIL: sharded K=1 metrics diverge from the unsharded baseline")
        return 1
    for entry in entries:
        summary = ", ".join(
            f"K={point['shards']}: {point['speedup']}x" for point in entry["sweep"]
        )
        print(f"{entry['scenario']}: baseline {entry['baseline_wall_s']}s; {summary}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
