"""Drive a compiled scenario through the serving code path.

:func:`run_program` compiles a :class:`~repro.scenarios.program.ScenarioProgram`
against a :class:`~repro.service.spec.PlatformSpec` and replays it through the
:class:`~repro.service.facade.MatchingService` incremental protocol — the same
submit/advance/drain session API online serving uses — interleaving the
compiled network-action timeline with the request stream. Scheduled closures
land between submissions via :meth:`MatchingService.apply_network_update`, so
oracle/grid re-derivation follows automatically.

The empty program degenerates to ``MatchingService.replay()`` semantics and is
bit-for-bit identical to a plain spec run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.scenarios.compile import BASE_CLASS, CompiledScenario, compile_program
from repro.scenarios.program import ScenarioProgram
from repro.service.facade import MatchingService
from repro.service.spec import PlatformSpec
from repro.simulation.fleet import ServiceRecord
from repro.simulation.metrics import SimulationResult


@dataclass
class ScenarioRunResult:
    """Outcome of one scenario-program run.

    Attributes:
        result: the standard aggregated simulation result.
        compiled: the compiled scenario that was driven (instance, timeline,
            class labels).
        completions: per-request service records, in completion order.
        class_stats: per fleet/workload-class aggregates keyed by label.
    """

    result: SimulationResult
    compiled: CompiledScenario
    completions: list[ServiceRecord] = field(default_factory=list)
    class_stats: dict[str, dict[str, float]] = field(default_factory=dict)


def run_program(
    spec: PlatformSpec,
    program: ScenarioProgram | None = None,
    *,
    network: RoadNetwork | None = None,
    oracle: DistanceOracle | None = None,
    on_completion: Callable[[ServiceRecord, float], None] | None = None,
) -> ScenarioRunResult:
    """Compile ``program`` onto ``spec`` and replay it end to end.

    Args:
        spec: the platform (scenario config + dispatcher + serving path).
        program: the scenario program; ``None``/empty reproduces the plain run.
        network, oracle: optional pre-built city (sweep reuse). Disruption
            programs mutate the network and dirty the oracle — do not share
            them across disruption runs.
        on_completion: optional observer invoked as ``(record, now)`` for
            every completed/expired service record.

    Disruption programs run on every serving path, including ``cluster:``
    specs — the front door broadcasts each timed closure/reopening to its
    shard worker processes via the replica-sync update protocol, so cluster
    replays stay bit-identical to the in-process ``sharded:`` path at K>1.
    """
    program = (program or ScenarioProgram(name="baseline")).validate()
    spec.validate()

    compiled = compile_program(spec.scenario, program, network=network, oracle=oracle)
    service = _build_service(spec, compiled)

    completions: list[ServiceRecord] = []

    def _observe(record: ServiceRecord, now: float) -> None:
        completions.append(record)
        if on_completion is not None:
            on_completion(record, now)

    service._backend.on_completion = _observe

    timeline = list(compiled.timeline)
    cursor = 0
    try:
        for request in compiled.instance.requests:
            while cursor < len(timeline) and timeline[cursor].time <= request.release_time:
                action = timeline[cursor]
                service.advance_to(action.time)
                service.apply_network_update(action.apply)
                cursor += 1
            service.submit(request)
        while cursor < len(timeline):
            action = timeline[cursor]
            service.advance_to(action.time)
            service.apply_network_update(action.apply)
            cursor += 1
        result = service.drain()
    finally:
        close = getattr(service, "close", None)
        if close is not None:
            close()

    return ScenarioRunResult(
        result=result,
        compiled=compiled,
        completions=completions,
        class_stats=_class_stats(compiled, completions),
    )


def _build_service(spec: PlatformSpec, compiled: CompiledScenario) -> MatchingService:
    """A serving session over the *compiled* instance (not the spec's own)."""
    if spec.cluster or spec.dispatcher.cluster:
        from repro.cluster.service import ClusterMatchingService  # lazy cycle guard

        return ClusterMatchingService.build(
            compiled.instance,
            inner=spec.dispatcher.algorithm,
            num_shards=spec.dispatcher.num_shards,
            config=spec.dispatcher_config(),
            strategy=spec.dispatcher.shard_strategy,
            escalate_k=spec.dispatcher.shard_escalate_k,
            seed=spec.scenario.seed,
            max_pending=spec.cluster_max_pending,
            dispatch_timeout=spec.cluster_dispatch_timeout,
            retry_attempts=spec.cluster_retry_attempts,
            retry_backoff_s=spec.cluster_retry_backoff_s,
            max_restarts=spec.cluster_max_restarts,
            restart_delay_s=spec.cluster_restart_delay_s,
            collect_completions=spec.collect_completions,
        )
    return MatchingService(
        compiled.instance,
        spec.build_dispatcher(),
        collect_completions=spec.collect_completions,
    )


def _class_stats(
    compiled: CompiledScenario, completions: list[ServiceRecord]
) -> dict[str, dict[str, float]]:
    """Per-class request counts, served counts and mean waits."""
    stats: dict[str, dict[str, float]] = {}
    for request_id, label in compiled.request_classes.items():
        entry = stats.setdefault(
            label, {"requests": 0.0, "served": 0.0, "served_rate": 0.0, "mean_wait_seconds": 0.0}
        )
        entry["requests"] += 1.0
    waits: dict[str, list[float]] = {}
    for record in completions:
        if not record.completed:
            continue
        label = compiled.request_classes.get(record.request.id, BASE_CLASS)
        entry = stats.setdefault(
            label, {"requests": 0.0, "served": 0.0, "served_rate": 0.0, "mean_wait_seconds": 0.0}
        )
        entry["served"] += 1.0
        waits.setdefault(label, []).append(record.pickup_time - record.request.release_time)
    for label, entry in stats.items():
        if entry["requests"]:
            entry["served_rate"] = entry["served"] / entry["requests"]
        class_waits = waits.get(label)
        if class_waits:
            entry["mean_wait_seconds"] = sum(class_waits) / len(class_waits)
    return stats


__all__ = ["ScenarioRunResult", "run_program"]
