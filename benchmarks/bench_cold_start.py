"""Cold-start benchmark of the content-addressed preprocessing store (PR 8).

For each scenario the persistable distance backends (dense APSP where the
network is small enough, contraction hierarchy, hub labels) are measured
through the full artifact life cycle:

1. **fresh** — build the backend from the network (the cold start every
   process paid before the store existed);
2. **save** — persist the built state into the content-addressed store;
3. **warm** — construct a new oracle with ``artifact_dir=`` pointing at the
   store and let it load the cached build.

The loaded backend must answer a seeded random query battery (scalar pairs,
one-to-many batches, shared-endpoint batches) **bit for bit** identically to
the freshly built one, and a full simulation run under each must produce
identical metrics — the warm start is never allowed to buy a behaviour
change (exit code 1 on any divergence).

On ``metro-grid`` the warm start carries the acceptance bar: loading the
contraction hierarchy from disk must be **>= 10x faster** than building it
(exit code 1 otherwise; the ``--smoke`` profile skips the bar along with the
metro-sized scenario).

Each run appends one entry per scenario to ``BENCH_cold_start.json``.

Usage::

    python benchmarks/bench_cold_start.py              # metro-grid + riverton
    python benchmarks/bench_cold_start.py --smoke      # CI-sized, < 60 s
    python benchmarks/bench_cold_start.py --scenario riverton
"""

from __future__ import annotations

import argparse
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from _trajectory import append_trajectory  # noqa: E402
from repro.artifacts import ArtifactStore, network_content_hash  # noqa: E402
from repro.core.instance import URPSMInstance  # noqa: E402
from repro.dispatch import DispatcherConfig  # noqa: E402
from repro.dispatch.greedy_dp import PruneGreedyDP  # noqa: E402
from repro.network.backends import APSP_VERTEX_LIMIT  # noqa: E402
from repro.network.oracle import DistanceOracle  # noqa: E402
from repro.service import MatchingService  # noqa: E402
from repro.workloads.scenarios import (  # noqa: E402
    ScenarioConfig,
    build_instance,
    build_network,
)

#: scenarios; "metro" carries the >= 10x warm-start acceptance bar, and
#: "riverton" exercises the bundled real-map fixture end to end.
SCENARIOS = {
    "metro": ScenarioConfig(
        city="metro-grid", num_workers=100, num_requests=200, seed=2018
    ),
    "riverton": ScenarioConfig(
        city="riverton", num_workers=40, num_requests=120, seed=2018
    ),
    "smoke": ScenarioConfig(
        city="small-grid", num_workers=30, num_requests=120, seed=2018
    ),
}

#: the warm CH load on metro-grid must beat the fresh build by this factor.
METRO_WARM_SPEEDUP_BAR = 10.0

QUERY_BATTERY_PAIRS = 400
QUERY_BATTERY_BATCHES = 20


def query_battery(oracle: DistanceOracle, network, seed: int = 20180808):
    """Seeded random queries through every batched API; returns the floats."""
    rng = np.random.default_rng(seed)
    vertices = sorted(network.vertices())
    n = len(vertices)
    us = [vertices[i] for i in rng.integers(0, n, size=QUERY_BATTERY_PAIRS)]
    vs = [vertices[i] for i in rng.integers(0, n, size=QUERY_BATTERY_PAIRS)]
    outputs = [oracle.distance_pairs(us, vs)]
    for _ in range(QUERY_BATTERY_BATCHES):
        row = rng.integers(0, n, size=33)
        source = vertices[int(row[0])]
        targets = [vertices[int(i)] for i in row[1:]]
        outputs.append(oracle.distances_many(source, targets))
        to_origin, to_destination = oracle.endpoint_distances(
            targets, source, vertices[int(row[1])]
        )
        outputs.append(to_origin)
        outputs.append(to_destination)
    return outputs


def batteries_identical(fresh, warm) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(fresh, warm))


def fingerprint(result) -> dict:
    """The metrics the fresh and warm oracle runs must agree on exactly."""
    return {
        "served": result.served_requests,
        "served_rate": result.served_rate,
        "unified_cost": result.unified_cost,
        "mean_wait_seconds": result.mean_wait_seconds,
        "mean_detour_ratio": result.mean_detour_ratio,
    }


def simulate(config, network, canonical, oracle) -> dict:
    """One simulation of the canonical workload under ``oracle``."""
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
    return fingerprint(MatchingService(instance, dispatcher).replay())


def backends_for(network) -> list[str]:
    names = []
    if network.num_vertices <= APSP_VERTEX_LIMIT:
        names.append("apsp")
    names.extend(["ch", "hub_labels"])
    return names


def bench_scenario(name: str, store_root: Path) -> dict:
    config = SCENARIOS[name]
    network = build_network(config)
    content_hash = network_content_hash(network)
    store = ArtifactStore(store_root / name)
    # the canonical workload is generated once with the no-preprocessing
    # Dijkstra oracle and reused by every fresh/warm comparison run
    canonical = build_instance(
        config, network=network, oracle=DistanceOracle(network, backend="dijkstra")
    )
    print(
        f"== cold start: {name} ({config.city}, {network.num_vertices} vertices, "
        f"{network.num_edges} edges, hash {content_hash[:12]}) =="
    )

    backends: dict[str, dict] = {}
    all_identical = True
    for backend in backends_for(network):
        started = time.perf_counter()
        fresh = DistanceOracle(network, backend=backend)
        fresh_build_s = time.perf_counter() - started

        started = time.perf_counter()
        artifact_path = store.save_backend(network, fresh.backend, content_hash=content_hash)
        save_s = time.perf_counter() - started

        started = time.perf_counter()
        warm = DistanceOracle(network, backend=backend, artifact_dir=store.root)
        warm_load_s = time.perf_counter() - started
        if not warm.artifact_loaded:
            raise RuntimeError(f"{name}/{backend}: warm oracle did not load the artifact")

        bitwise = batteries_identical(
            query_battery(fresh, network), query_battery(warm, network)
        )
        fresh_metrics = simulate(config, network, canonical, fresh)
        warm_metrics = simulate(config, network, canonical, warm)
        metrics_identical = fresh_metrics == warm_metrics
        identical = bitwise and metrics_identical
        all_identical = all_identical and identical

        entry = {
            "fresh_build_s": round(fresh_build_s, 4),
            "save_s": round(save_s, 4),
            "warm_load_s": round(warm_load_s, 4),
            "warm_speedup": round(fresh_build_s / warm_load_s, 2) if warm_load_s > 0 else None,
            "artifact_bytes": artifact_path.stat().st_size,
            "bitwise_identical": bitwise,
            "metrics_identical": metrics_identical,
            "metrics": fresh_metrics,
        }
        backends[backend] = entry
        print(
            f"  {backend:>10}: fresh {fresh_build_s:7.3f}s  save {save_s:6.3f}s  "
            f"warm {warm_load_s:6.3f}s  ({entry['warm_speedup']}x)  "
            f"bitwise={bitwise}  metrics={metrics_identical}"
        )

    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "scenario": name,
        "city": config.city,
        "vertices": network.num_vertices,
        "edges": network.num_edges,
        "content_hash": content_hash,
        "backends": backends,
        "identical": all_identical,
        "python": platform.python_version(),
    }
    if name == "metro":
        ch = backends["ch"]
        entry["metro_warm_speedup"] = ch["warm_speedup"]
        entry["meets_10x_bar"] = (
            ch["warm_load_s"] > 0
            and ch["fresh_build_s"] / ch["warm_load_s"] >= METRO_WARM_SPEEDUP_BAR
        )
        print(
            f"  [metro] warm CH start {ch['warm_speedup']}x vs fresh build "
            f"(bar: >= {METRO_WARM_SPEEDUP_BAR}x, met: {entry['meets_10x_bar']})"
        )
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        choices=sorted(SCENARIOS) + ["default"],
        default="default",
        help="named scenario ('default' runs metro + riverton)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI profile: small-grid + riverton, no metro 10x bar",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_cold_start.json",
        help="perf-trajectory JSON file to append to",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        names = ["smoke", "riverton"]
    elif args.scenario == "default":
        names = ["metro", "riverton"]
    else:
        names = [args.scenario]

    with tempfile.TemporaryDirectory(prefix="repro-cold-start-") as tmp:
        entries = [bench_scenario(name, Path(tmp)) for name in names]
    append_trajectory(args.output, "cold_start", entries)

    failed = False
    for entry in entries:
        if not entry["identical"]:
            print(f"FAIL: {entry['scenario']}: warm-loaded backend diverges from fresh build")
            failed = True
        if entry.get("meets_10x_bar") is False:
            print(
                f"FAIL: {entry['scenario']}: warm CH start "
                f"{entry['metro_warm_speedup']}x < {METRO_WARM_SPEEDUP_BAR}x bar"
            )
            failed = True
    if failed:
        return 1
    for entry in entries:
        print(f"{entry['scenario']}: all artifact loads bit-identical to fresh builds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
