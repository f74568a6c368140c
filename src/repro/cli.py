"""Command-line interface for the URPSM reproduction.

Eleven sub-commands cover the common workflows::

    python -m repro simulate     --city chengdu-like --algorithm pruneGreedyDP
    python -m repro serve-replay --city chengdu-like --algorithm batch
    python -m repro compare      --city nyc-like --scale tiny
    python -m repro sweep        --parameter num_workers --values 20 40 80 --jobs 4
    python -m repro figure       figure3 --scale tiny --output results/fig3.json
    python -m repro datasets     --scale small
    python -m repro ingest       extracts/manhattan.geojson --output cities/manhattan.json.gz
    python -m repro preprocess   --city metro-grid --artifact-dir .repro-artifacts
    python -m repro algorithms
    python -m repro scenarios    rush-hour-chaos
    python -m repro stress       --scenarios 30 --seed 2018 --output BENCH_stress.json

``simulate`` runs one algorithm on one scenario; ``serve-replay`` streams the
same workload through the online :class:`~repro.service.facade.
MatchingService` and prints every incremental decision; ``compare`` runs the
paper's five algorithms on the same scenario and prints the comparison table;
``sweep`` fans a parameter sweep out over a process pool (``--jobs``) with
deterministic per-point seeds; ``figure`` reproduces one of Figures 3-7 and
optionally writes the raw series to JSON/CSV/Markdown; ``datasets`` prints
the Table 4 statistics of the synthetic cities; ``ingest`` normalises a real
GeoJSON/CSV road extract into the repo's network schema; ``preprocess``
builds (or lists) the content-addressed distance-backend artifacts of a
city; ``algorithms`` lists every registered dispatcher; ``scenarios`` lists
or describes the declarative scenario presets (heterogeneous fleets, demand
surges, network disruptions, multi-class workloads; see
:mod:`repro.scenarios`); ``stress`` sweeps seeded random scenario programs
against the dispatcher registry and fails on crashes, non-determinism or
invariant violations.

Scenario commands accept real maps everywhere a registry city is accepted:
``--city file:<path>`` ingests the referenced extract, and ``--artifact-dir``
attaches the preprocessing store so precomputed oracle backends load from
disk when cached.

Scenario commands accept ``--shards K`` to wrap the chosen algorithm(s) in
the sharded dispatcher (spatial partitioning + cross-shard escalation; see
``repro.sharding``); ``K=1`` reproduces the unsharded run exactly.
``simulate`` and ``serve-replay`` alternatively accept ``--spec FILE`` — a
JSON/TOML :class:`~repro.service.spec.PlatformSpec` describing the whole
platform declaratively.

Every scenario run — simulate, compare, sweep, figure — constructs a
:class:`~repro.service.facade.MatchingService` from a
:class:`~repro.service.spec.PlatformSpec` and replays the workload through
it, so batch CLI runs execute the exact online-serving code path.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.dispatch import DispatcherSpec, list_dispatchers
from repro.exceptions import ConfigurationError
from repro.experiments.config import ExperimentConfig, PAPER_ALGORITHMS, SCALES
from repro.experiments.figures import FIGURES
from repro.experiments.io import figure_to_markdown, save_figure_csv, save_figure_json
from repro.experiments.parallel import ParallelSweepRunner
from repro.experiments.reporting import format_figure, format_results, format_table
from repro.experiments.runner import ScenarioRunner
from repro.experiments.tables import table4_datasets, table5_parameters
from repro.service.facade import MatchingService
from repro.service.spec import PlatformSpec
from repro.sharding.partitioner import STRATEGIES
from repro.workloads.scenarios import CITY_BUILDERS, FILE_CITY_PREFIX, ScenarioConfig


def _algorithm_name(name: str) -> str:
    """Argparse type validating registry names with close-match suggestions."""
    try:
        DispatcherSpec.parse(name)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(
            f"{exc} — run 'repro algorithms' to list every registered dispatcher"
        ) from exc
    return name


def _city_name(name: str) -> str:
    """Argparse type accepting registry cities and ``file:<path>`` extracts."""
    if name.startswith(FILE_CITY_PREFIX):
        if not name[len(FILE_CITY_PREFIX):]:
            raise argparse.ArgumentTypeError(
                f"'{FILE_CITY_PREFIX}' names no file; use {FILE_CITY_PREFIX}<path>"
            )
        return name
    if name in CITY_BUILDERS:
        return name
    raise argparse.ArgumentTypeError(
        f"unknown city {name!r}; available: {sorted(CITY_BUILDERS)} "
        f"or '{FILE_CITY_PREFIX}<path>' for a GeoJSON/CSV extract"
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'A Unified Approach to Route Planning for Shared Mobility'",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="run one algorithm on one scenario")
    _add_scenario_arguments(simulate)
    simulate.add_argument("--algorithm", default="pruneGreedyDP", type=_algorithm_name,
                          help="registry name ('repro algorithms' lists them); "
                               "'sharded:<inner>' wraps in the sharded dispatcher")
    simulate.add_argument("--spec", type=Path, default=None,
                          help="load the whole platform from a JSON/TOML PlatformSpec "
                               "file instead of the scenario flags")

    serve_replay = subparsers.add_parser(
        "serve-replay",
        help="stream the workload through the online MatchingService and print "
             "every incremental decision",
    )
    _add_scenario_arguments(serve_replay)
    serve_replay.add_argument("--algorithm", default="pruneGreedyDP", type=_algorithm_name)
    serve_replay.add_argument("--spec", type=Path, default=None,
                              help="load the whole platform from a JSON/TOML "
                                   "PlatformSpec file instead of the scenario flags")
    serve_replay.add_argument("--max-requests", type=int, default=None,
                              help="stop after streaming this many requests")
    serve_replay.add_argument("--quiet", action="store_true",
                              help="suppress per-decision lines (print the summary only)")
    serve_replay.add_argument("--cluster", action="store_true",
                              help="serve through shard worker processes (one per "
                                   "spatial shard; size the worker pool with "
                                   "--shards K) instead of the in-process dispatcher")
    serve_replay.add_argument("--max-pending", type=int, default=1024,
                              help="cluster backpressure: outstanding per-shard "
                                   "commands admitted before requests are rejected "
                                   "as saturated")
    serve_replay.add_argument("--retry-attempts", type=int, default=3,
                              help="cluster self-healing: bounded retries per "
                                   "shard-worker pipe operation before the worker "
                                   "is marked down")
    serve_replay.add_argument("--max-restarts", type=int, default=2,
                              help="cluster self-healing: respawn budget per shard "
                                   "worker (0 disables respawn; exhausted shards "
                                   "serve degraded in-process)")
    serve_replay.add_argument("--restart-delay", type=float, default=0.0,
                              help="cluster self-healing: simulated seconds after "
                                   "a worker death before its respawn is adopted")

    compare = subparsers.add_parser("compare", help="compare the paper's algorithms on one scenario")
    _add_scenario_arguments(compare)
    compare.add_argument("--algorithms", nargs="*", default=PAPER_ALGORITHMS,
                         type=_algorithm_name)

    sweep = subparsers.add_parser(
        "sweep", help="run a parameter sweep over a process pool (--jobs)"
    )
    _add_scenario_arguments(sweep)
    sweep.add_argument("--parameter", default="num_workers",
                       choices=sorted(field.name for field in dataclasses.fields(ScenarioConfig)),
                       help="ScenarioConfig field to sweep")
    sweep.add_argument("--values", nargs="+", required=True,
                       help="values of the swept parameter (coerced to the field type)")
    sweep.add_argument("--algorithms", nargs="*", default=["pruneGreedyDP"],
                       type=_algorithm_name)
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial; results are identical either way)")
    sweep.add_argument("--replicates", type=int, default=1,
                       help="independent workload seeds per sweep value")
    sweep.add_argument("--output", type=Path, default=None,
                       help="write the per-run rows to this JSON file")

    figure = subparsers.add_parser("figure", help="reproduce one of Figures 3-7")
    figure.add_argument("name", choices=sorted(FIGURES))
    figure.add_argument("--scale", default="tiny", choices=sorted(SCALES))
    figure.add_argument("--cities", nargs="*", default=["chengdu-like", "nyc-like"],
                        choices=sorted(CITY_BUILDERS))
    figure.add_argument("--algorithms", nargs="*", default=PAPER_ALGORITHMS,
                        type=_algorithm_name)
    figure.add_argument("--seed", type=int, default=2018)
    figure.add_argument("--output", type=Path, default=None,
                        help="write the raw series to this path (.json, .csv or .md)")

    datasets = subparsers.add_parser("datasets", help="print Table 4 / Table 5 of the paper")
    datasets.add_argument("--scale", default="small", choices=sorted(SCALES))
    datasets.add_argument("--seed", type=int, default=2018)

    ingest = subparsers.add_parser(
        "ingest",
        help="normalise a real GeoJSON/CSV road extract into the network schema",
    )
    ingest.add_argument("input", type=Path,
                        help="road extract: .geojson/.json FeatureCollection or .csv "
                             "edge list, optionally .gz-compressed")
    ingest.add_argument("--nodes", type=Path, default=None,
                        help="node table (id,x,y) for CSV edge lists referencing node ids")
    ingest.add_argument("--output", type=Path, default=None,
                        help="write the normalised network as JSON (.json or .json.gz)")
    ingest.add_argument("--name", default=None, help="network name (default: file stem)")
    ingest.add_argument("--snap-metres", type=float, default=1.0,
                        help="node-deduplication grid pitch in metres")
    ingest.add_argument("--speed-factor", type=float, default=0.8,
                        help="effective-speed fraction of the legal limit (paper: 0.8)")
    ingest.add_argument("--projection", default="auto",
                        choices=["auto", "geographic", "planar"],
                        help="coordinate handling: detect lon/lat, force the local "
                             "planar projection, or pass planar input through")
    ingest.add_argument("--keep-all-components", action="store_true",
                        help="skip largest-connected-component extraction")

    preprocess = subparsers.add_parser(
        "preprocess",
        help="build content-addressed distance-backend artifacts for a city",
    )
    preprocess.add_argument("--city", default="chengdu-like", type=_city_name)
    preprocess.add_argument("--seed", type=int, default=2018,
                            help="city seed (ignored by ingested file:/riverton cities)")
    preprocess.add_argument("--artifact-dir", type=Path, required=True,
                            help="root of the content-addressed artifact store")
    preprocess.add_argument("--backends", nargs="+", default=["apsp", "ch", "hub_labels"],
                            choices=["apsp", "ch", "hub_labels"],
                            help="which backends to preprocess")
    preprocess.add_argument("--list", action="store_true", dest="list_entries",
                            help="list the store's entries instead of building")

    subparsers.add_parser("algorithms", help="list every registered dispatch algorithm")

    scenarios = subparsers.add_parser(
        "scenarios",
        help="list or describe the declarative scenario presets",
    )
    scenarios.add_argument("name", nargs="?", default=None,
                           help="preset to describe (omit to list every preset)")
    scenarios.add_argument("--json", action="store_true", dest="as_json",
                           help="print the preset as a JSON scenario program")

    stress = subparsers.add_parser(
        "stress",
        help="sweep seeded random scenario programs against the dispatcher registry",
    )
    stress.add_argument("--scenarios", type=int, default=30,
                        help="number of fuzzed scenarios to generate")
    stress.add_argument("--seed", type=int, default=2018,
                        help="master seed; the whole sweep is a pure function of it")
    stress.add_argument("--reruns", type=int, default=1,
                        help="extra reruns per combination for the determinism check")
    stress.add_argument("--dispatchers", nargs="+", default=None, type=_algorithm_name,
                        help="dispatcher names to sweep (default: every registry "
                             "algorithm plus sharded: and cluster: variants)")
    stress.add_argument("--shards", type=int, default=2,
                        help="shard count for sharded:/cluster: combinations")
    stress.add_argument("--output", type=Path, default=None,
                        help="write the full stress report as JSON")
    stress.add_argument("--quiet", action="store_true",
                        help="suppress per-combination progress lines")

    return parser


def _add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--city", default="chengdu-like", type=_city_name,
                        help="registry city or 'file:<path>' to ingest a "
                             "GeoJSON/CSV road extract")
    parser.add_argument("--artifact-dir", type=Path, default=None,
                        help="root of the content-addressed preprocessing store; "
                             "precomputed oracle backends load from / save to it")
    parser.add_argument("--workers", type=int, default=40)
    parser.add_argument("--requests", type=int, default=250)
    parser.add_argument("--capacity", type=int, default=4)
    parser.add_argument("--deadline-minutes", type=float, default=10.0)
    parser.add_argument("--penalty-factor", type=float, default=10.0)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--grid-km", type=float, default=2.0)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--oracle-backend", default="auto",
                        choices=["auto", "apsp", "ch", "hub_labels", "dijkstra"],
                        help="distance backend: dense all-pairs matrix, contraction "
                             "hierarchy, flat hub labels, or cached Dijkstra; 'auto' "
                             "picks by network size (all are value-exact)")
    parser.add_argument("--cancellation-rate", type=float, default=0.0,
                        help="per-request rider-cancellation probability")
    parser.add_argument("--shift-hours", type=float, default=0.0,
                        help="staggered worker duty-window length in hours; 0 = always on")
    parser.add_argument("--shards", type=int, default=0,
                        help="spatial shards for the sharded dispatcher; 0 = unsharded, "
                             "1 = sharded wrapper reproducing the unsharded run exactly")
    parser.add_argument("--shard-strategy", default="grid", choices=sorted(STRATEGIES),
                        help="spatial partitioning strategy of the sharded dispatcher")
    parser.add_argument("--escalate-k", type=int, default=2,
                        help="nearest neighbouring shards tried after the origin shard")


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    return ScenarioConfig(
        city=args.city,
        num_workers=args.workers,
        num_requests=args.requests,
        worker_capacity=args.capacity,
        deadline_minutes=args.deadline_minutes,
        penalty_factor=args.penalty_factor,
        alpha=args.alpha,
        grid_km=args.grid_km,
        seed=args.seed,
        oracle_backend=getattr(args, "oracle_backend", None),
        cancellation_rate=args.cancellation_rate,
        shift_hours=args.shift_hours,
        oracle_artifact_dir=(
            str(args.artifact_dir) if getattr(args, "artifact_dir", None) is not None else None
        ),
    )


def _dispatcher_spec_from_args(
    args: argparse.Namespace, algorithm: str = "pruneGreedyDP"
) -> DispatcherSpec:
    """The structured dispatcher selection implied by the scenario flags."""
    spec = DispatcherSpec.parse(algorithm)
    return dataclasses.replace(
        spec,
        sharded=spec.sharded or args.shards > 0,
        num_shards=max(args.shards, 1),
        shard_strategy=args.shard_strategy,
        shard_escalate_k=args.escalate_k,
    ).validate()


def _platform_from_args(
    args: argparse.Namespace, algorithm: str = "pruneGreedyDP"
) -> PlatformSpec:
    """One declarative PlatformSpec for the scenario + dispatcher flags."""
    return PlatformSpec(
        scenario=_scenario_from_args(args),
        dispatcher=_dispatcher_spec_from_args(args, algorithm),
        cluster=getattr(args, "cluster", False),
        cluster_max_pending=getattr(args, "max_pending", 1024),
        cluster_retry_attempts=getattr(args, "retry_attempts", 3),
        cluster_max_restarts=getattr(args, "max_restarts", 2),
        cluster_restart_delay_s=getattr(args, "restart_delay", 0.0),
    ).validate()


def _sharded_names(args: argparse.Namespace, names: Sequence[str]) -> list[str]:
    """Prefix algorithm names with the sharded wrapper when --shards is set."""
    if args.shards <= 0:
        return list(names)
    return [f"sharded:{name}" for name in names]


# ------------------------------------------------------------------- commands


def command_simulate(args: argparse.Namespace) -> int:
    if args.spec is not None:
        spec = PlatformSpec.from_file(args.spec)
    else:
        spec = _platform_from_args(args, args.algorithm)
    result = MatchingService.from_spec(spec).replay()
    print(format_results([result]))
    return 0


def command_serve_replay(args: argparse.Namespace) -> int:
    if args.spec is not None:
        spec = PlatformSpec.from_file(args.spec)
    else:
        spec = _platform_from_args(args, args.algorithm)
    service = MatchingService.from_spec(spec)
    requests = service.instance.requests
    if args.max_requests is not None:
        requests = requests[: args.max_requests]
    print(
        f"serving {len(requests)} requests through {service.dispatcher.name} "
        f"on {spec.scenario.city}"
    )
    on_decision = None if args.quiet else (lambda decision: print(decision.describe()))
    result = service.replay(requests, on_decision=on_decision)
    snapshot = service.snapshot()
    print(
        f"\nsession closed at t={snapshot.clock:.1f}s: "
        f"{snapshot.served} served / {snapshot.rejected} rejected"
        + (f" / {snapshot.cancelled} cancelled" if snapshot.cancelled else "")
    )
    print(format_results([result]))
    return 0


def command_algorithms(args: argparse.Namespace) -> int:
    print("registered dispatch algorithms:")
    for name in list_dispatchers():
        print(f"  {name}")
    print(
        "\nany algorithm can be wrapped in the sharded dispatcher as "
        "'sharded:<name>' (or with --shards K on scenario commands), or run "
        "on shard-worker processes as 'cluster:<name>' (serve-replay "
        "--cluster)."
    )
    return 0


def command_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import get_preset, list_presets

    if args.name is None:
        print("scenario presets:")
        for name in list_presets():
            preset = get_preset(name)
            shape = ", ".join(
                f"{len(components)} {kind}"
                for kind, components in (
                    ("fleet classes", preset.fleet),
                    ("workload classes", preset.workload),
                    ("surges", preset.surges),
                    ("disruptions", preset.disruptions),
                )
                if components
            ) or "empty (plain base config)"
            print(f"  {name:<18} {shape}")
            print(f"  {'':<18} {preset.description}")
        print(
            "\ndescribe one with 'repro scenarios <name>'; run one with "
            "repro.scenarios.run_program(PlatformSpec(...), get_preset(name))."
        )
        return 0
    try:
        preset = get_preset(args.name)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(preset.to_json(), end="")
        return 0
    print(f"{preset.name}: {preset.description}")
    for kind, components in (
        ("fleet classes", preset.fleet),
        ("workload classes", preset.workload),
        ("surges", preset.surges),
        ("disruptions", preset.disruptions),
    ):
        if not components:
            continue
        print(f"  {kind}:")
        for component in components:
            print(f"    {component}")
    if preset.is_empty:
        print("  (empty program: compiles to exactly the base config)")
    return 0


def command_stress(args: argparse.Namespace) -> int:
    from repro.scenarios import run_stress

    progress = None if args.quiet else lambda line: print(line, file=sys.stderr)
    report = run_stress(
        args.scenarios,
        args.dispatchers,
        master_seed=args.seed,
        reruns=args.reruns,
        num_shards=args.shards,
        progress=progress,
    )
    print(
        f"stress sweep: {args.scenarios} scenarios x {len(report.dispatchers)} "
        f"dispatchers (seed {args.seed}) -> "
        f"{len(report.crashes)} crashes, {len(report.nondeterministic)} "
        f"non-deterministic, {len(report.violations)} invariant violations, "
        f"{len(report.cliffs)} served-rate cliffs"
    )
    for crash in report.crashes:
        print(f"  CRASH scenario {crash['scenario']} x {crash['dispatcher']}: "
              f"{crash['error']}")
    for entry in report.nondeterministic:
        print(f"  NONDETERMINISTIC scenario {entry['scenario']} x {entry['dispatcher']}")
    for violation in report.violations:
        print(f"  VIOLATION scenario {violation['scenario']} x "
              f"{violation['dispatcher']}: {violation['kind']}")
    for cliff in report.cliffs:
        print(f"  cliff: scenario {cliff['scenario']} x {cliff['dispatcher']} served "
              f"{cliff['served_rate']:.2f} vs best {cliff['best_rate']:.2f}")
    if args.output is not None:
        args.output.write_text(json.dumps(report.to_dict(), indent=2) + "\n",
                               encoding="utf-8")
        print(f"report written to {args.output}")
    return 0 if report.ok else 1


def command_compare(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    runner = ScenarioRunner(platform=_platform_from_args(args))
    results = runner.compare(config, _sharded_names(args, args.algorithms))
    print(format_results(results))
    return 0


def command_sweep(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    values = [_coerce_sweep_value(args.parameter, raw) for raw in args.values]
    runner = ParallelSweepRunner(platform=_platform_from_args(args), jobs=args.jobs)
    points = runner.sweep(
        args.parameter, values, config, _sharded_names(args, args.algorithms),
        replicates=args.replicates,
    )
    rows: list[dict] = []
    for point in points:
        label = f"-- {args.parameter} = {point.value}"
        if args.replicates > 1:
            label += f" (replicate {point.replicate})"
        print(label + " --")
        print(format_results(point.results))
        for result in point.results:
            row = result.as_row()
            row.update({
                "parameter": args.parameter,
                "value": point.value,
                "replicate": point.replicate,
            })
            rows.append(row)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
        print(f"\nwritten: {args.output}")
    return 0


def _coerce_sweep_value(parameter: str, raw: str) -> float | int | str:
    """Coerce a CLI sweep value to the ScenarioConfig field's type."""
    for field in dataclasses.fields(ScenarioConfig):
        if field.name != parameter:
            continue
        if field.type in ("int", "int | None"):
            return int(raw)
        if field.type == "float":
            return float(raw)
        if field.type == "bool":
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"invalid boolean sweep value {raw!r} for {parameter!r}")
        return raw
    raise ValueError(f"unknown scenario parameter {parameter!r}")


def command_figure(args: argparse.Namespace) -> int:
    experiment = ExperimentConfig(
        cities=tuple(args.cities),
        algorithms=tuple(args.algorithms),
        scale=args.scale,
        seed=args.seed,
    )
    figure = FIGURES[args.name](experiment, ScenarioRunner())
    print(format_figure(figure))
    if args.output is not None:
        _write_figure(figure, args.output)
        print(f"\nwritten: {args.output}")
    return 0


def _write_figure(figure, output: Path) -> None:
    suffix = output.suffix.lower()
    if suffix == ".json":
        save_figure_json(figure, output)
    elif suffix == ".csv":
        save_figure_csv(figure, output)
    elif suffix in (".md", ".markdown"):
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(figure_to_markdown(figure), encoding="utf-8")
    else:
        raise ValueError(f"unsupported output format {suffix!r}; use .json, .csv or .md")


def command_datasets(args: argparse.Namespace) -> int:
    experiment = ExperimentConfig(scale=args.scale, seed=args.seed)
    print("Table 4 — dataset statistics (synthetic stand-ins)")
    print(format_table(table4_datasets(experiment)))
    print()
    print("Table 5 — parameter settings")
    print(format_table(table5_parameters(experiment)))
    return 0


def command_ingest(args: argparse.Namespace) -> int:
    from repro.ingest import IngestError, IngestOptions, ingest_file
    from repro.artifacts import network_content_hash
    from repro.network.io import save_network

    try:
        options = IngestOptions(
            snap_metres=args.snap_metres,
            speed_factor=args.speed_factor,
            projection=args.projection,
            keep_all_components=args.keep_all_components,
        )
        network, report = ingest_file(
            args.input, name=args.name, options=options, nodes_path=args.nodes
        )
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"ingested {args.input} -> network {network.name!r}")
    for line in report.lines():
        print(f"  {line}")
    print(f"  content hash:        {network_content_hash(network)}")
    if args.output is not None:
        save_network(network, args.output)
        print(f"written: {args.output}")
    return 0


def command_preprocess(args: argparse.Namespace) -> int:
    import time

    from repro.artifacts import ArtifactStore, network_content_hash
    from repro.workloads.scenarios import build_network

    store = ArtifactStore(args.artifact_dir)
    if args.list_entries:
        entries = store.entries()
        if not entries:
            print(f"artifact store {args.artifact_dir} is empty")
            return 0
        for entry in entries:
            net = entry.get("network", {})
            print(
                f"{entry.get('content_hash', '?')[:12]}  "
                f"{net.get('name', '?')} "
                f"({net.get('num_vertices', '?')} vertices, "
                f"{net.get('num_edges', '?')} edges)"
            )
            for name, info in sorted(entry.get("backends", {}).items()):
                print(f"    {name}: built in {info.get('build_seconds', 0.0):.3f}s")
        return 0

    config = ScenarioConfig(city=args.city, seed=args.seed)
    network = build_network(config)
    content_hash = network_content_hash(network)
    print(
        f"preprocessing {args.city} ({network.num_vertices} vertices, "
        f"{network.num_edges} edges; hash {content_hash[:12]}) -> {args.artifact_dir}"
    )
    for name in args.backends:
        started = time.perf_counter()
        _backend, loaded = store.load_or_build(name, network, None, content_hash=content_hash)
        elapsed = time.perf_counter() - started
        action = "loaded from store" if loaded else "built and saved"
        print(f"  {name}: {action} in {elapsed:.3f}s")
    return 0


_COMMANDS = {
    "simulate": command_simulate,
    "serve-replay": command_serve_replay,
    "compare": command_compare,
    "sweep": command_sweep,
    "figure": command_figure,
    "datasets": command_datasets,
    "ingest": command_ingest,
    "preprocess": command_preprocess,
    "algorithms": command_algorithms,
    "scenarios": command_scenarios,
    "stress": command_stress,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
