"""Compile a :class:`ScenarioProgram` into engine-ready inputs.

:func:`compile_program` lowers a declarative program onto a base
:class:`~repro.workloads.scenarios.ScenarioConfig`, producing a
:class:`CompiledScenario`:

* a ready-to-serve :class:`~repro.core.instance.URPSMInstance` whose fleet,
  request stream and dynamics realise the program's fleet/workload/surge
  components (every generator seed derives from the config's master seed and
  the component name, so compilation is deterministic);
* a chronological ``timeline`` of :class:`NetworkAction` values — concrete
  street closures/reopenings resolved at compile time against a scratch copy
  of the network, each rejected if it would disconnect the graph;
* per-id class labels so results can be reported per fleet/workload class.

The empty program short-circuits to
:func:`~repro.workloads.scenarios.build_instance`, so plain runs stay
bit-for-bit identical through the scenario layer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

from repro.core.instance import InstanceDynamics, URPSMInstance, WorkerShift
from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.core.timegrid import on_grid
from repro.core.types import Request, Worker
from repro.exceptions import ConfigurationError
from repro.network.graph import Edge, RoadNetwork, induced_subnetwork
from repro.network.oracle import DistanceOracle
from repro.scenarios.program import NetworkDisruption, ScenarioProgram
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.distributions import HotspotModel, sample_request_capacity
from repro.workloads.requests import (
    RequestGeneratorConfig,
    generate_requests,
    sample_cancellations,
)
from repro.workloads.scenarios import (
    ScenarioConfig,
    build_instance,
    build_network,
    make_oracle,
)
from repro.workloads.workers import (
    WorkerGeneratorConfig,
    generate_workers,
    staggered_shifts,
)

BASE_CLASS = "base"
"""Class label of workers/requests produced by the scalar base config."""

_MIN_DIRECT_SECONDS = 30.0
_SURGE_ATTEMPTS = 20


@dataclass(frozen=True)
class EdgeSpec:
    """Plain-value snapshot of one road edge (for closing and reopening)."""

    u: int
    v: int
    length: float
    speed: float
    road_class: str

    @classmethod
    def of(cls, edge: Edge) -> "EdgeSpec":
        return cls(
            u=edge.u, v=edge.v, length=edge.length, speed=edge.speed, road_class=edge.road_class
        )


@dataclass(frozen=True)
class NetworkAction:
    """One scheduled road-network mutation (all edges of one disruption).

    Attributes:
        time: absolute simulation time in seconds.
        kind: ``"close"`` or ``"reopen"``.
        disruption: name of the originating disruption.
        edges: the concrete edges affected.
    """

    time: float
    kind: str
    disruption: str
    edges: tuple[EdgeSpec, ...]

    def apply(self, network: RoadNetwork) -> None:
        """Apply this action to ``network`` (engine mutation callback)."""
        if self.kind == "close":
            for spec in self.edges:
                network.remove_edge(spec.u, spec.v)
        elif self.kind == "reopen":
            for spec in self.edges:
                network.add_edge(
                    spec.u,
                    spec.v,
                    length=spec.length,
                    speed=spec.speed,
                    road_class=spec.road_class,
                )
        else:  # pragma: no cover - constructed only by compile_program
            raise ConfigurationError(f"unknown network action kind {self.kind!r}")


@dataclass
class CompiledScenario:
    """A scenario lowered to engine-ready inputs.

    Attributes:
        config: the base scalar config.
        program: the source program (validated).
        instance: the materialised problem instance.
        timeline: chronological network actions (empty without disruptions).
        worker_classes: ``worker id -> fleet class name``.
        request_classes: ``request id -> workload class / surge label``.
    """

    config: ScenarioConfig
    program: ScenarioProgram
    instance: URPSMInstance
    timeline: tuple[NetworkAction, ...]
    worker_classes: dict[int, str]
    request_classes: dict[int, str]

    @property
    def has_disruptions(self) -> bool:
        """Whether the timeline contains any scheduled network mutation."""
        return bool(self.timeline)


def compile_program(
    config: ScenarioConfig,
    program: ScenarioProgram | None = None,
    network: RoadNetwork | None = None,
    oracle: DistanceOracle | None = None,
) -> CompiledScenario:
    """Lower ``program`` onto ``config`` into a :class:`CompiledScenario`.

    Passing a pre-built ``network``/``oracle`` reuses the expensive city
    construction, exactly like :func:`build_instance`. Note that running a
    compiled scenario with disruptions *mutates* the network and dirties the
    oracle — reuse across runs is only safe for disruption-free programs.
    """
    program = (program or ScenarioProgram(name="baseline")).validate()
    if network is None:
        network = build_network(config)
    if oracle is None:
        oracle = make_oracle(network, config)

    if program.is_empty:
        instance = build_instance(config, network=network, oracle=oracle)
        return CompiledScenario(
            config=config,
            program=program,
            instance=instance,
            timeline=(),
            worker_classes={worker.id: BASE_CLASS for worker in instance.workers},
            request_classes={request.id: BASE_CLASS for request in instance.requests},
        )

    objective = config.objective()
    horizon_seconds = config.horizon_hours * 3600.0

    workers, worker_classes, shifts = _compile_fleet(config, program, network, horizon_seconds)
    labelled = _compile_workload(config, program, network, oracle, objective, horizon_seconds)
    labelled.extend(_compile_surges(config, program, network, oracle, objective))

    # one global stream: stable sort by release time, then dense re-identification
    labelled.sort(key=lambda pair: pair[0].release_time)
    requests: list[Request] = []
    request_classes: dict[int, str] = {}
    for new_id, (request, label) in enumerate(labelled):
        requests.append(replace(request, id=new_id))
        request_classes[new_id] = label

    dynamics = InstanceDynamics()
    if config.cancellation_rate > 0.0:
        dynamics.cancellations = sample_cancellations(
            requests,
            rate=config.cancellation_rate,
            seed=derive_seed(config.seed, "cancellations"),
        )
    dynamics.shifts = shifts

    instance = URPSMInstance(
        network=network,
        oracle=oracle,
        workers=workers,
        requests=requests,
        objective=objective,
        name=f"{config.city}-{program.name}-W{len(workers)}-R{len(requests)}",
        dynamics=None if dynamics.is_empty else dynamics,
    )
    instance.validate()

    timeline = _compile_disruptions(config, program, network)
    return CompiledScenario(
        config=config,
        program=program,
        instance=instance,
        timeline=timeline,
        worker_classes=worker_classes,
        request_classes=request_classes,
    )


# ------------------------------------------------------------------- fleet


def _compile_fleet(
    config: ScenarioConfig,
    program: ScenarioProgram,
    network: RoadNetwork,
    horizon_seconds: float,
) -> tuple[list[Worker], dict[int, str], list[WorkerShift]]:
    """Materialise the fleet: program classes, or the scalar base fleet."""
    if not program.fleet:
        workers = generate_workers(
            network,
            WorkerGeneratorConfig(
                count=config.num_workers,
                nominal_capacity=config.worker_capacity,
                seed=derive_seed(config.seed, "workers"),
            ),
        )
        shifts: list[WorkerShift] = []
        if config.shift_hours > 0.0:
            shifts = staggered_shifts(
                workers,
                horizon_seconds=horizon_seconds,
                shift_seconds=config.shift_hours * 3600.0,
                seed=derive_seed(config.seed, "shifts"),
            )
        return workers, {worker.id: BASE_CLASS for worker in workers}, shifts

    workers = []
    worker_classes: dict[int, str] = {}
    shifts = []
    next_id = 0
    for fleet_class in program.fleet:
        generated = generate_workers(
            network,
            WorkerGeneratorConfig(
                count=fleet_class.count,
                nominal_capacity=fleet_class.capacity,
                hotspot_share=fleet_class.hotspot_share,
                seed=derive_seed(config.seed, "fleet", fleet_class.name),
            ),
        )
        # a class *is* its capacity: pin it instead of the generator's draw
        renumbered = [
            replace(worker, id=next_id + offset, capacity=fleet_class.capacity)
            for offset, worker in enumerate(generated)
        ]
        for worker in renumbered:
            worker_classes[worker.id] = fleet_class.name
        if fleet_class.shift_hours > 0.0:
            shifts.extend(
                staggered_shifts(
                    renumbered,
                    horizon_seconds=horizon_seconds,
                    shift_seconds=fleet_class.shift_hours * 3600.0,
                    seed=derive_seed(config.seed, "shifts", fleet_class.name),
                )
            )
        workers.extend(renumbered)
        next_id += len(renumbered)
    return workers, worker_classes, shifts


# ----------------------------------------------------------------- workload


def _compile_workload(
    config: ScenarioConfig,
    program: ScenarioProgram,
    network: RoadNetwork,
    oracle: DistanceOracle,
    objective: ObjectiveConfig,
    horizon_seconds: float,
) -> list[tuple[Request, str]]:
    """Materialise the background request stream (classes or scalar base)."""
    if not program.workload:
        base = generate_requests(
            network,
            oracle,
            objective,
            RequestGeneratorConfig(
                count=config.num_requests,
                horizon_seconds=horizon_seconds,
                deadline_seconds=config.deadline_minutes * 60.0,
                seed=derive_seed(config.seed, "requests"),
            ),
        )
        return [(request, BASE_CLASS) for request in base]

    labelled: list[tuple[Request, str]] = []
    for workload_class in program.workload:
        class_objective = ObjectiveConfig(
            alpha=config.alpha,
            penalty_policy=PenaltyPolicy.PROPORTIONAL,
            penalty_value=(
                config.penalty_factor
                if workload_class.penalty_factor is None
                else workload_class.penalty_factor
            ),
        )
        deadline_minutes = (
            config.deadline_minutes
            if workload_class.deadline_minutes is None
            else workload_class.deadline_minutes
        )
        generated = generate_requests(
            network,
            oracle,
            class_objective,
            RequestGeneratorConfig(
                count=workload_class.count,
                horizon_seconds=horizon_seconds,
                deadline_seconds=deadline_minutes * 60.0,
                seed=derive_seed(config.seed, "workload", workload_class.name),
            ),
        )
        if workload_class.capacity is not None:
            generated = [
                replace(request, capacity=workload_class.capacity) for request in generated
            ]
        labelled.extend((request, workload_class.name) for request in generated)
    return labelled


# ------------------------------------------------------------------- surges


def _compile_surges(
    config: ScenarioConfig,
    program: ScenarioProgram,
    network: RoadNetwork,
    oracle: DistanceOracle,
    objective: ObjectiveConfig,
) -> list[tuple[Request, str]]:
    """Materialise every surge as a burst of venue-anchored requests."""
    labelled: list[tuple[Request, str]] = []
    vertices = sorted(network.vertices())
    for surge in program.surges:
        seed = derive_seed(config.seed, "surge", surge.name)
        rng = make_rng(seed)
        # one hotspot, no uniform share: every origin clusters at the venue
        venue = HotspotModel(
            network=network,
            num_hotspots=1,
            spread_fraction=surge.spread_fraction,
            uniform_share=0.0,
            rng=make_rng(seed + 1),
        )
        start = surge.start_hours * 3600.0
        duration = surge.duration_minutes * 60.0
        window_minutes = (
            config.deadline_minutes if surge.deadline_minutes is None else surge.deadline_minutes
        )
        window = on_grid(window_minutes * 60.0, "deadline window")
        releases = sorted(
            on_grid(float(start + rng.random() * duration), "release time")
            for _ in range(surge.count)
        )
        label = f"surge:{surge.name}"
        for index in range(surge.count):
            origin, destination, direct = _sample_surge_trip(venue, vertices, oracle, rng)
            release = releases[index]
            capacity = surge.capacity if surge.capacity is not None else sample_request_capacity(rng)
            labelled.append(
                (
                    Request(
                        id=index,  # placeholder; re-identified after the merge
                        origin=origin,
                        destination=destination,
                        release_time=release,
                        deadline=release + window,
                        penalty=objective.penalty_for(direct),
                        capacity=capacity,
                    ),
                    label,
                )
            )
    return labelled


def _sample_surge_trip(venue, vertices, oracle, rng) -> tuple[int, int, float]:
    """Venue-anchored origin, city-wide destination, non-trivial direct time."""
    origin, destination, direct = 0, 0, float("inf")
    for _ in range(_SURGE_ATTEMPTS):
        origin = venue.sample_vertex()
        destination = int(vertices[int(rng.integers(len(vertices)))])
        if destination == origin:
            continue
        direct = oracle.distance(origin, destination)
        if _MIN_DIRECT_SECONDS <= direct < float("inf"):
            return origin, destination, direct
    if destination == origin or direct == float("inf"):
        raise ConfigurationError(
            "could not sample a reachable surge trip; is the network connected?"
        )
    return origin, destination, direct


# -------------------------------------------------------------- disruptions


def _compile_disruptions(
    config: ScenarioConfig, program: ScenarioProgram, network: RoadNetwork
) -> tuple[NetworkAction, ...]:
    """Resolve disruptions to concrete, connectivity-safe edge closures.

    Resolution replays the close/reopen schedule in chronological order
    against a scratch copy of the network, so a candidate street is judged
    against the topology as it will stand *at closure time* (earlier
    closures included). Any candidate whose removal would disconnect the
    scratch graph is skipped — runtime application can then never strand a
    committed trip at an unreachable vertex.
    """
    if not program.disruptions:
        return ()
    scratch = induced_subnetwork(network, network.vertices())
    events: list[tuple[float, int, str, NetworkDisruption]] = []
    for order, disruption in enumerate(program.disruptions):
        start = on_grid(disruption.start_hours * 3600.0, "disruption start")
        events.append((start, order, "close", disruption))
        if disruption.duration_minutes is not None:
            end = start + on_grid(disruption.duration_minutes * 60.0, "disruption duration")
            events.append((end, order, "reopen", disruption))
    events.sort(key=lambda event: (event[0], event[1]))

    closed: dict[str, tuple[EdgeSpec, ...]] = {}
    timeline: list[NetworkAction] = []
    for time, _order, kind, disruption in events:
        if kind == "close":
            specs = _resolve_closure(config, disruption, scratch)
            closed[disruption.name] = specs
            for spec in specs:
                scratch.remove_edge(spec.u, spec.v)
        else:
            specs = closed[disruption.name]
            for spec in specs:
                scratch.add_edge(
                    spec.u, spec.v, length=spec.length, speed=spec.speed,
                    road_class=spec.road_class,
                )
        if specs:
            timeline.append(
                NetworkAction(time=time, kind=kind, disruption=disruption.name, edges=specs)
            )
    return tuple(timeline)


def _resolve_closure(
    config: ScenarioConfig, disruption: NetworkDisruption, scratch: RoadNetwork
) -> tuple[EdgeSpec, ...]:
    """Pick the concrete streets a disruption closes (seeded, safe)."""
    rng = make_rng(derive_seed(config.seed, "disruption", disruption.name))
    vertices = sorted(scratch.vertices())
    focus = int(vertices[int(rng.integers(len(vertices)))])
    focus_point = scratch.coordinates(focus)

    def distance_to_focus(edge: Edge) -> float:
        a = scratch.coordinates(edge.u)
        b = scratch.coordinates(edge.v)
        mid_x = (a.x + b.x) / 2.0
        mid_y = (a.y + b.y) / 2.0
        return (mid_x - focus_point.x) ** 2 + (mid_y - focus_point.y) ** 2

    candidates = sorted(
        scratch.edges(), key=lambda edge: (distance_to_focus(edge), edge.u, edge.v)
    )
    chosen: list[EdgeSpec] = []
    for edge in candidates:
        if len(chosen) == disruption.edge_count:
            break
        removed = scratch.remove_edge(edge.u, edge.v)
        if _still_connected(scratch, edge.u, edge.v):
            # keep it removed: later candidates of the same closure must be
            # judged against the joint topology, not each in isolation
            chosen.append(EdgeSpec.of(removed))
        else:
            scratch.add_edge(
                removed.u,
                removed.v,
                length=removed.length,
                speed=removed.speed,
                road_class=removed.road_class,
            )
    # restore the chosen edges too; the caller replays the final schedule
    for spec in chosen:
        scratch.add_edge(
            spec.u, spec.v, length=spec.length, speed=spec.speed, road_class=spec.road_class
        )
    return tuple(chosen)


def _still_connected(network: RoadNetwork, source: int, target: int) -> bool:
    """BFS reachability check between the endpoints of a removed edge."""
    if source == target:
        return True
    seen = {source}
    queue = deque([source])
    while queue:
        vertex = queue.popleft()
        for neighbour in network.neighbours(vertex):
            if neighbour == target:
                return True
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    return False


__all__ = ["BASE_CLASS", "CompiledScenario", "EdgeSpec", "NetworkAction", "compile_program"]
