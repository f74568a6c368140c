"""Benchmark of the pluggable distance-oracle backends (PR 5's tentpole).

For each scenario the same canonical workload (generated once with the
Dijkstra-fallback oracle — the seed's behaviour) is replayed under every
distance backend:

* **dijkstra**   — the baseline: cached bidirectional point-to-point searches
  plus the truncated multi-target fallback;
* **apsp**       — dense all-pairs matrix (skipped past
  ``APSP_VERTEX_LIMIT`` vertices, where the O(N^2) build/memory stops being
  sensible);
* **ch**         — contraction hierarchy with bucket-joined many-to-many;
* **hub_labels** — array-native pruned 2-hop labels (skipped on the largest
  scenario by default: the pruned construction is the one O(N * label^2)
  step left in Python — pass ``--all-backends`` to include it anyway).

Every backend must reproduce the Dijkstra baseline **bit for bit** on served
requests, unified cost, mean waits and mean detours — the speedup is never
allowed to buy a behaviour change (exit code 1 if any backend diverges).
Query counters are allowed to differ (a ulp-level distance difference can
flip a pruning early-exit) and are reported, not asserted.

Each run also measures build time and raw batched-query throughput
(``distances_many`` over seeded random batches, caches cleared first), and
appends one entry per scenario to ``BENCH_oracle.json`` so successive PRs can
track the oracle over time.

Usage::

    python benchmarks/bench_oracle.py                    # standard + nyc-like
    python benchmarks/bench_oracle.py --scenario smoke   # CI-sized, <60 s
    python benchmarks/bench_oracle.py --scenario metro   # past the APSP limit
    python benchmarks/bench_oracle.py --scenario all --repeats 5
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _trajectory import append_trajectory  # noqa: E402
from repro.core.instance import URPSMInstance  # noqa: E402
from repro.dispatch import DispatcherConfig  # noqa: E402
from repro.dispatch.greedy_dp import PruneGreedyDP  # noqa: E402
from repro.network.backends import APSP_VERTEX_LIMIT, BACKEND_NAMES  # noqa: E402
from repro.network.oracle import DistanceOracle  # noqa: E402
from repro.service import MatchingService  # noqa: E402
from repro.workloads.scenarios import (  # noqa: E402
    ScenarioConfig,
    build_instance,
    build_network,
    paper_default_scenario,
)

#: named benchmark scenarios; "nyc-like" carries the ">= 3x vs the Dijkstra
#: fallback" acceptance bar, "metro" is the city where the dense matrix is
#: ruled out by policy, "smoke" fits a CI minute.
SCENARIOS = {
    "standard": lambda workers: paper_default_scenario(num_workers=workers or 300),
    "nyc-like": lambda workers: ScenarioConfig(
        city="nyc-like", num_workers=workers or 300, num_requests=600, seed=2018
    ),
    "metro": lambda workers: ScenarioConfig(
        city="metro-grid", num_workers=workers or 400, num_requests=800, seed=2018
    ),
    "smoke": lambda workers: ScenarioConfig(
        city="small-grid", num_workers=workers or 30, num_requests=150, seed=2018
    ),
}

#: hub-label construction is the one heavyweight Python build left; skip it
#: by default on scenarios past this many vertices (``--all-backends`` forces).
HUB_BUILD_VERTEX_LIMIT = 2_000


def fingerprint(result) -> dict:
    """The metrics every backend must agree on exactly."""
    return {
        "served": result.served_requests,
        "served_rate": result.served_rate,
        "unified_cost": result.unified_cost,
        "mean_wait_seconds": result.mean_wait_seconds,
        "mean_detour_ratio": result.mean_detour_ratio,
    }


def simulate(config, network, canonical, oracle):
    """One full simulation of the canonical workload under ``oracle``."""
    instance = URPSMInstance(
        network=network,
        oracle=oracle,
        workers=canonical.workers,
        requests=canonical.requests,
        objective=canonical.objective,
        name=canonical.name,
        dynamics=canonical.dynamics,
    )
    dispatcher = PruneGreedyDP(DispatcherConfig(grid_cell_metres=config.grid_km * 1000.0))
    service = MatchingService(instance, dispatcher)
    started = time.perf_counter()
    result = service.replay()
    wall = time.perf_counter() - started
    return wall, result, oracle.counters.snapshot()


def query_throughput(oracle, network, batches: int = 50, batch_size: int = 32) -> float:
    """Raw batched ``distances_many`` queries/second on seeded random batches."""
    rng = np.random.default_rng(20180712)
    vertices = sorted(network.vertices())
    picks = rng.integers(0, len(vertices), size=(batches, batch_size + 1))
    oracle.clear_caches()
    total = batches * batch_size
    started = time.perf_counter()
    for row in picks:
        source = vertices[int(row[0])]
        targets = [vertices[int(i)] for i in row[1:]]
        oracle.distances_many(source, targets)
    elapsed = time.perf_counter() - started
    oracle.clear_caches()
    return total / elapsed if elapsed > 0 else float("inf")


def backend_names_for(config, network, all_backends: bool) -> list[tuple[str, str | None]]:
    """(backend, skip_reason) per backend for a scenario."""
    plan: list[tuple[str, str | None]] = []
    for name in BACKEND_NAMES:
        reason = None
        if not all_backends:
            if name == "apsp" and network.num_vertices > APSP_VERTEX_LIMIT:
                reason = f"dense matrix past APSP_VERTEX_LIMIT ({APSP_VERTEX_LIMIT})"
            elif name == "hub_labels" and network.num_vertices > HUB_BUILD_VERTEX_LIMIT:
                reason = "pruned label build too slow at this scale (use --all-backends)"
        plan.append((name, reason))
    # the baseline runs first so every other backend can compare against it
    plan.sort(key=lambda item: item[0] != "dijkstra")
    return plan


def bench_scenario(name: str, workers: int | None, repeats: int, all_backends: bool) -> dict:
    config = SCENARIOS[name](workers)
    network = build_network(config)
    # the canonical workload: generated once with the Dijkstra fallback (the
    # seed's behaviour), shared by every backend run — request penalties are
    # inputs, not something a backend may perturb
    canonical = build_instance(
        config, network=network, oracle=DistanceOracle(network, backend="dijkstra")
    )
    print(
        f"== oracle benchmark: {name} ({config.city}, {network.num_vertices} vertices, "
        f"{config.num_workers} workers, {config.num_requests} requests) =="
    )

    backends: dict[str, dict] = {}
    baseline_print = None
    baseline_wall = None
    for backend, skip_reason in backend_names_for(config, network, all_backends):
        if skip_reason is not None:
            print(f"  {backend:>10}: skipped ({skip_reason})")
            backends[backend] = {"skipped": skip_reason}
            continue
        built = time.perf_counter()
        oracle = DistanceOracle(network, backend=backend)
        build_seconds = time.perf_counter() - built
        throughput = query_throughput(oracle, network)
        walls = []
        result = counters = None
        for _ in range(repeats):
            oracle.clear_caches()
            wall, result, counters = simulate(config, network, canonical, oracle)
            walls.append(wall)
        best = min(walls)
        entry = {
            "build_s": round(build_seconds, 4),
            "queries_per_s": round(throughput, 1),
            "wall_s": round(best, 4),
            "metrics": fingerprint(result),
            "distance_queries": counters["distance_queries"],
            "dijkstra_runs": counters["dijkstra_runs"],
            "distance_cache_hit_rate": counters.get("distance_cache_hit_rate"),
        }
        if backend == "dijkstra":
            baseline_print = entry["metrics"]
            baseline_wall = best
        entry["speedup"] = round(baseline_wall / best, 3) if baseline_wall else None
        entry["identical_metrics"] = (
            entry["metrics"] == baseline_print if baseline_print is not None else None
        )
        backends[backend] = entry
        print(
            f"  {backend:>10}: build {entry['build_s']:7.2f}s  "
            f"{entry['queries_per_s']:>12,.0f} q/s  run {best:6.2f}s  "
            f"{entry['speedup']:5.2f}x  served {entry['metrics']['served']}  "
            f"identical={entry['identical_metrics']}"
        )

    ran = [b for b in backends.values() if "skipped" not in b]
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scenario": name,
        "city": config.city,
        "vertices": network.num_vertices,
        "workers": config.num_workers,
        "requests": config.num_requests,
        "repeats": repeats,
        "backends": backends,
        "best_speedup": max((b["speedup"] or 0.0) for b in ran),
        "identical_metrics": all(b["identical_metrics"] for b in ran),
        "python": platform.python_version(),
    }
    print(
        f"  [{name}] best speedup {entry['best_speedup']:.2f}x vs the Dijkstra fallback; "
        f"metrics identical: {entry['identical_metrics']}"
    )
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["all", "default"],
        default="default",
        help="named scenario ('default' runs standard + nyc-like, 'all' every one)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="override the fleet size"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="simulation runs per backend (best-of)"
    )
    parser.add_argument(
        "--all-backends", action="store_true",
        help="run every backend even where the policy would skip it",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_oracle.json",
        help="perf-trajectory JSON file to append to",
    )
    args = parser.parse_args(argv)

    if args.scenario == "all":
        names = sorted(SCENARIOS)
    elif args.scenario == "default":
        names = ["standard", "nyc-like"]
    else:
        names = [args.scenario]
    entries = [
        bench_scenario(name, args.workers, args.repeats, args.all_backends)
        for name in names
    ]
    append_trajectory(args.output, "oracle", entries)

    if not all(entry["identical_metrics"] for entry in entries):
        print("FAIL: a backend's simulation metrics diverge from the Dijkstra baseline")
        return 1
    for entry in entries:
        print(f"{entry['scenario']}: best {entry['best_speedup']}x over the Dijkstra fallback")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
