"""The four frozen serving workloads and how their platforms are built.

A workload is a value: a city, a fleet size, a request count, a dispatcher
and (for ``closures_batch``) a scenario program. ``generate_inputs`` turns a
workload plus a seed into plain inputs (workers, requests, dynamics, the
network-action timeline); ``build_platform`` builds a *cold* serving
platform over them through the public session API. The two are separate so
set-up can be repeated and timed without regenerating the request stream —
the program under test only ever receives the generated ``Request`` objects.

Cities, fleets, dispatchers and arrival *rates* are the ones ISSUE 11 probed
(dense 2500 req/h, metro 3750 req/h, closures 1500 req/h, cluster 1500
req/h); the horizon is a good quarter of the issue's 4 hours, so one replay
lasts 5-8 seconds and a run holds three of them (fresh set-up each time) inside
the time the driver of ``BENCHMARK.json`` allows. README.md, "Steadiness",
has the measurements behind that trade.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.cluster.service import ClusterMatchingService
from repro.core.instance import InstanceDynamics, URPSMInstance
from repro.core.objective import ObjectiveConfig
from repro.core.types import Request, Worker
from repro.network.oracle import DistanceOracle
from repro.scenarios import (
    DemandSurge,
    NetworkAction,
    NetworkDisruption,
    ScenarioProgram,
    compile_program,
)
from repro.service import MatchingService, PlatformSpec
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.scenarios import build_network, make_oracle

#: the seed of everything that makes a city: the map, the demand hotspots,
#: the surge venue and the streets that close. The map alone can be pinned
#: through ``city_seed``; the repo's generators draw the rest from the same
#: seed as the individual trips, and ten such cities spread by 13-31 % in
#: served rate and unified cost and by up to 31 % in throughput (README.md,
#: "What --seed changes") - more than any regression bound.
CITY_SEED = 2018

#: the city's population of drivers and riders is this many times the fleet
#: and the request stream of one run; ``--seed`` draws the run's from it.
POOL_FACTOR = 2

#: the ``--smoke`` sizes of every workload (the horizon and the scenario
#: program are kept, so surge and closures still land mid-stream).
SMOKE_WORKERS, SMOKE_REQUESTS = 40, 120


@dataclass(frozen=True)
class Workload:
    """One frozen set of benchmark inputs.

    Attributes:
        name: the name used on the command line and in ``BENCHMARK.json``
            (which also records why the workload exists).
        city, num_workers, num_requests, horizon_hours: the scenario size.
        algorithm: registry name of the dispatcher.
        cluster_shards: >0 serves through that many shard worker processes.
        scenario: extra ``ScenarioConfig`` fields (dynamics knobs).
        program: scenario program (surges, closures) or ``None``.
    """

    name: str
    city: str
    num_workers: int
    num_requests: int
    horizon_hours: float
    algorithm: str = "pruneGreedyDP"
    cluster_shards: int = 0
    scenario: dict = field(default_factory=dict)
    program: ScenarioProgram | None = None

    @property
    def disruption_free(self) -> bool:
        """Whether committed deadlines must hold (no street ever closes)."""
        return self.program is None or not self.program.disruptions

    def spec(self, smoke: bool = False) -> PlatformSpec:
        """The platform spec of this workload."""
        builder = (
            PlatformSpec.builder()
            .city(self.city, seed=CITY_SEED)
            .workload(
                num_workers=SMOKE_WORKERS if smoke else self.num_workers,
                num_requests=SMOKE_REQUESTS if smoke else self.num_requests,
                horizon_hours=self.horizon_hours,
                **self.scenario,
            )
            .dispatcher(self.algorithm)
        )
        if self.cluster_shards:
            builder = builder.cluster(num_shards=self.cluster_shards)
        return builder.build()


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="dense_city",
            # 193-vertex city, 1000 workers: every worker is a candidate, so fleet
            # materialisation, Lemma 7/8 bounds and the insertion DP dominate; distance is an O(1)
            # table gather
            city="chengdu-like",
            num_workers=1000,
            num_requests=2800,
            horizon_hours=1.1,
        ),
        Workload(
            name="metro_sparse",
            # 3.6k-vertex grid on the CH backend, 300 workers: small candidate sets, so the
            # distance backend and path() carry their largest share; a backend change must show
            # here and not on dense_city
            city="metro-grid",
            num_workers=300,
            num_requests=4000,
            horizon_hours=1.07,
        ),
        Workload(
            name="closures_batch",
            # batch dispatcher, a surge, cancellations, shifts and a street closure that reopens:
            # network writes (APSP rebuild, re-timing, grid rebuild) beside reads, flush instead
            # of immediate dispatch
            city="nyc-like",
            num_workers=300,
            num_requests=1600,
            horizon_hours=1.07,
            algorithm="batch",
            scenario={"cancellation_rate": 0.1, "shift_hours": 0.53},
            program=ScenarioProgram(
                name="closures_batch",
                surges=(
                    DemandSurge(name="venue", start_hours=0.65, duration_minutes=6.0, count=55),
                ),
                disruptions=(
                    NetworkDisruption(
                        name="closure", start_hours=0.3, duration_minutes=22.0, edge_count=2
                    ),
                ),
            ),
        ),
        Workload(
            name="cluster_k2",
            # same dispatcher behind two shard worker processes: pickle, pipe, wait and replica
            # replay dominate; the workload a cheaper transport must win on
            city="chengdu-like",
            num_workers=300,
            num_requests=1600,
            horizon_hours=1.07,
            cluster_shards=2,
        ),
    )
}


@dataclass
class Inputs:
    """Everything generated from the seed; the program sees only this."""

    spec: PlatformSpec
    workers: list[Worker]
    requests: list[Request]
    objective: ObjectiveConfig
    dynamics: InstanceDynamics | None
    timeline: tuple[NetworkAction, ...]
    name: str
    generate_s: float

    def sizes(self) -> dict:
        """The sizes recorded in every result file."""
        scenario, dispatcher = self.spec.scenario, self.spec.dispatcher
        return {
            "city": scenario.city,
            "num_workers": len(self.workers),
            "num_requests": len(self.requests),
            "horizon_hours": scenario.horizon_hours,
            "algorithm": dispatcher.algorithm,
            "cluster_shards": dispatcher.num_shards if self.spec.cluster else 0,
            "live_updates": len(self.timeline),
        }


def _draw(population, rng) -> dict[int, int]:
    """Draw one in ``POOL_FACTOR`` of ``population`` without replacement.

    Returns old id -> new id; the new ids are dense and keep the old order
    (the request stream stays sorted by release time).
    """
    kept = rng.choice(len(population), size=len(population) // POOL_FACTOR, replace=False)
    return {population[int(old)].id: new for new, old in enumerate(sorted(kept))}


def generate_inputs(workload: Workload, seed: int, smoke: bool = False) -> Inputs:
    """Generate fleet, request stream, dynamics and closure timeline from ``seed``.

    The city's population - ``POOL_FACTOR`` times the workers, requests and
    surge riders of one run, with their cancellations and shifts - is compiled
    at ``CITY_SEED``; ``seed`` draws the run's fleet and request stream from
    it. So a new seed changes who drives and who rides, but not where the
    city's hotspots are or which streets close.

    Request generation needs distances (penalties are proportional to the
    direct trip), so it builds its own network and oracle; both are dropped
    afterwards and every platform is built cold.
    """
    spec = workload.spec(smoke)
    population = replace(
        spec.scenario,
        num_workers=POOL_FACTOR * spec.scenario.num_workers,
        num_requests=POOL_FACTOR * spec.scenario.num_requests,
    )
    program = workload.program
    if program is not None:
        program = replace(program, surges=tuple(
            replace(surge, count=POOL_FACTOR * surge.count) for surge in program.surges))
    network = build_network(population)
    oracle = make_oracle(network, population)
    started = time.perf_counter()
    compiled = compile_program(population, program, network=network, oracle=oracle)
    instance = compiled.instance

    rng = make_rng(derive_seed(seed, "e2e", workload.name))
    worker_ids = _draw(instance.workers, rng)
    request_ids = _draw(instance.requests, rng)
    dynamics = instance.dynamics
    if dynamics is not None:
        dynamics = InstanceDynamics(
            cancellations=[replace(c, request_id=request_ids[c.request_id])
                           for c in dynamics.cancellations if c.request_id in request_ids],
            shifts=[replace(s, worker_id=worker_ids[s.worker_id])
                    for s in dynamics.shifts if s.worker_id in worker_ids],
        )
    return Inputs(
        spec=spec,
        workers=[replace(w, id=worker_ids[w.id]) for w in instance.workers if w.id in worker_ids],
        requests=[replace(r, id=request_ids[r.id]) for r in instance.requests
                  if r.id in request_ids],
        objective=instance.objective,
        dynamics=dynamics,
        timeline=compiled.timeline,
        name=f"{workload.name}-seed{seed}",
        generate_s=time.perf_counter() - started,
    )


@dataclass
class Platform:
    """A cold-built serving platform, its set-up time and the backend build's share."""

    service: MatchingService
    oracle: DistanceOracle
    setup_s: float
    backend_build_s: float

    def close(self) -> None:
        """Reap the shard workers of a cluster platform (a no-op elsewhere)."""
        close = getattr(self.service, "close", None)
        if close is not None:
            close()


def build_platform(workload: Workload, inputs: Inputs, *, sharded_reference: bool = False) -> Platform:
    """Build network, oracle backend (no artifact store), fleet, dispatcher and service.

    For ``cluster_k2`` the service constructor spawns the shard workers and
    returns after their ready acknowledgements. ``sharded_reference`` builds
    the in-process ``sharded:`` twin of a cluster workload instead (the
    equivalence replay).
    """
    spec = inputs.spec
    started = time.perf_counter()
    network = build_network(spec.scenario)
    network_done = time.perf_counter()
    oracle = make_oracle(network, spec.scenario)
    oracle_done = time.perf_counter()
    instance = URPSMInstance(
        network=network,
        oracle=oracle,
        workers=inputs.workers,
        requests=inputs.requests,
        objective=inputs.objective,
        name=inputs.name,
        dynamics=inputs.dynamics,
    )
    if workload.cluster_shards and not sharded_reference:
        service: MatchingService = ClusterMatchingService.build(
            instance,
            inner=spec.dispatcher.algorithm,
            num_shards=spec.dispatcher.num_shards,
            config=spec.dispatcher_config(),
            strategy=spec.dispatcher.shard_strategy,
            escalate_k=spec.dispatcher.shard_escalate_k,
            seed=spec.scenario.seed,
        )
    else:
        # the dispatcher spec of a cluster workload is its sharding layout, so
        # building it in-process yields the ``sharded:`` twin
        service = MatchingService(instance, spec.build_dispatcher())
    return Platform(
        service=service,
        oracle=oracle,
        setup_s=time.perf_counter() - started,
        backend_build_s=oracle_done - network_done,
    )
