"""Scenario construction: city + fleet + request stream -> URPSM instance.

A :class:`ScenarioConfig` captures every knob of Table 5 (grid size, deadline,
worker capacity, penalty factor, alpha, fleet size) plus the scale of the
synthetic city. :func:`build_instance` turns a config into a ready-to-simulate
:class:`~repro.core.instance.URPSMInstance`; :func:`dataset_statistics`
reproduces the Table 4 dataset summary for the synthetic stand-ins.

Two named cities are provided:

* ``nyc-like`` — larger Manhattan-style grid (stand-in for the NYC dataset);
* ``chengdu-like`` — smaller ring-radial city (stand-in for Chengdu).

Real maps join the registry two ways: the bundled ``riverton`` extract
(ingested from ``tests/fixtures/riverton.geojson``), and ad-hoc ``file:``
city names — ``city="file:extracts/manhattan.geojson"`` ingests the named
GeoJSON/CSV file through :mod:`repro.ingest` at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.instance import InstanceDynamics, URPSMInstance
from repro.core.objective import ObjectiveConfig, PenaltyPolicy
from repro.exceptions import ConfigurationError
from repro.network.generators import grid_city, random_geometric_city, ring_radial_city
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.utils.rng import derive_seed
from repro.workloads.requests import (
    RequestGeneratorConfig,
    generate_requests,
    sample_cancellations,
)
from repro.workloads.workers import (
    WorkerGeneratorConfig,
    generate_workers,
    staggered_shifts,
)

CITY_BUILDERS = {
    "nyc-like": lambda seed: grid_city(rows=36, columns=36, block_metres=280.0, seed=seed,
                                       name="nyc-like"),
    "metro-grid": lambda seed: grid_city(rows=60, columns=60, block_metres=260.0, seed=seed,
                                         name="metro-grid"),
    "chengdu-like": lambda seed: ring_radial_city(rings=8, radials=24, ring_spacing_metres=700.0,
                                                  seed=seed, name="chengdu-like"),
    "small-grid": lambda seed: grid_city(rows=12, columns=12, block_metres=250.0, seed=seed,
                                         name="small-grid"),
    "random": lambda seed: random_geometric_city(num_vertices=250, seed=seed, name="random"),
    "riverton": lambda seed: _riverton_city(),
}
"""Named cities available to scenarios.

``metro-grid`` (~3.6k vertices) sits past the dense-APSP comfort zone on
purpose: it is the workload where the hierarchical oracle backends earn
their keep (the ``"auto"`` policy picks the contraction hierarchy there).
``riverton`` is the bundled real-map extract — ingested, not generated, so
its seed argument is ignored (the network is a fixed artifact of the file).
"""

FILE_CITY_PREFIX = "file:"


def _riverton_city() -> RoadNetwork:
    """Ingest the bundled riverton GeoJSON fixture (deterministic)."""
    from repro.ingest import RIVERTON_FIXTURE, fixture_path, ingest_file

    network, _report = ingest_file(fixture_path(RIVERTON_FIXTURE), name="riverton")
    return network


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experimental scenario (Table 5 parameters).

    Attributes:
        city: one of :data:`CITY_BUILDERS`.
        num_workers: fleet size ``|W|``.
        num_requests: number of requests ``|R|``.
        worker_capacity: nominal worker capacity ``K_w``.
        deadline_minutes: service window ``e_r - t_r`` in minutes.
        penalty_factor: ``p_r = penalty_factor * dis(o_r, d_r)``.
        alpha: weight of the travel cost in the unified objective.
        grid_km: grid-index cell size ``g`` in kilometres.
        horizon_hours: length of the simulated day.
        seed: master seed; all generator seeds derive from it.
        city_seed: optional separate seed for the city builder; ``None``
            derives the city from ``seed``. Sweeps that replicate a scenario
            under many workload seeds pin ``city_seed`` so every replicate
            shares one road network (and the runner's network/oracle cache).
        use_hub_labels: force hub labels as the oracle accelerator.
        oracle_precompute: legacy oracle acceleration spelling — ``"auto"``,
            ``"apsp"``, ``"hub_labels"`` or ``"none"``; superseded by
            ``oracle_backend`` when that is set.
        oracle_backend: distance backend — ``"auto"`` (dense all-pairs table
            for networks up to a couple thousand vertices, a contraction
            hierarchy beyond, flat hub labels for very large graphs),
            ``"apsp"``, ``"ch"``, ``"hub_labels"`` or ``"dijkstra"``. Every
            backend is value-exact; the choice only trades build cost
            against query speed.
        cancellation_rate: probability that a rider cancels their request
            between release and deadline (0 disables; requires the event
            kernel).
        shift_hours: staggered duty-window length per worker in hours (0 =
            everyone on duty for the whole horizon; requires the event
            kernel).
        oracle_artifact_dir: optional root directory of the content-addressed
            preprocessing store (:mod:`repro.artifacts`). Precomputed oracle
            backends are then loaded from / saved to disk, keyed by the
            network's content hash.
    """

    city: str = "chengdu-like"
    num_workers: int = 100
    num_requests: int = 1500
    worker_capacity: int = 4
    deadline_minutes: float = 10.0
    penalty_factor: float = 10.0
    alpha: float = 1.0
    grid_km: float = 2.0
    horizon_hours: float = 4.0
    seed: int = 2018
    city_seed: int | None = None
    use_hub_labels: bool = False
    oracle_precompute: str = "auto"
    oracle_backend: str | None = None
    cancellation_rate: float = 0.0
    shift_hours: float = 0.0
    oracle_artifact_dir: str | None = None

    def __post_init__(self) -> None:
        """Reject out-of-range dynamics knobs at construction.

        A rate of 1.3 or a negative shift used to surface as an opaque
        failure deep inside the run (or worse, silently clamp); fail fast
        with the field name instead.
        """
        if not 0.0 <= self.cancellation_rate <= 1.0:
            raise ConfigurationError(
                f"cancellation_rate must be within [0, 1], got {self.cancellation_rate}"
            )
        if self.shift_hours < 0.0:
            raise ConfigurationError(
                f"shift_hours must be >= 0 (0 disables shifts), got {self.shift_hours}"
            )
        if self.horizon_hours <= 0.0:
            raise ConfigurationError(
                f"horizon_hours must be positive, got {self.horizon_hours}"
            )

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **kwargs)

    @property
    def effective_city_seed(self) -> int:
        """Seed the city builder actually uses (``city_seed`` or ``seed``)."""
        return self.seed if self.city_seed is None else self.city_seed

    def objective(self) -> ObjectiveConfig:
        """The objective configuration implied by ``alpha`` / ``penalty_factor``."""
        return ObjectiveConfig(
            alpha=self.alpha,
            penalty_policy=PenaltyPolicy.PROPORTIONAL,
            penalty_value=self.penalty_factor,
        )


def paper_default_scenario(city: str = "chengdu-like", **overrides) -> ScenarioConfig:
    """The Table 5 defaults scaled to a laptop-sized synthetic city."""
    config = ScenarioConfig(city=city)
    return config.with_overrides(**overrides) if overrides else config


def build_network(config: ScenarioConfig) -> RoadNetwork:
    """Build (deterministically) the city of ``config``.

    Registry names come from :data:`CITY_BUILDERS`; ``file:<path>`` names
    ingest the referenced GeoJSON/CSV road extract via :mod:`repro.ingest`
    (deterministic for a fixed file, like the registry cities are for a
    fixed seed).
    """
    if config.city.startswith(FILE_CITY_PREFIX):
        from repro.ingest import IngestError, ingest_file

        path = config.city[len(FILE_CITY_PREFIX):]
        try:
            network, _report = ingest_file(path)
        except IngestError as exc:
            raise ConfigurationError(f"cannot ingest city {config.city!r}: {exc}") from exc
        return network
    try:
        builder = CITY_BUILDERS[config.city]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown city {config.city!r}; available: {sorted(CITY_BUILDERS)} "
            f"or '{FILE_CITY_PREFIX}<path>' for a GeoJSON/CSV extract"
        ) from exc
    return builder(derive_seed(config.effective_city_seed, "city", config.city))


def make_oracle(network: RoadNetwork, config: ScenarioConfig) -> DistanceOracle:
    """Build the distance oracle for ``config``, choosing the backend.

    ``oracle_backend`` wins when set; otherwise the legacy
    ``use_hub_labels``/``oracle_precompute`` spelling is honoured.
    ``"auto"`` defers to :func:`repro.network.backends.select_backend_name`
    — a dense all-pairs table for networks up to a couple thousand vertices
    (the regime of the synthetic cities), a contraction hierarchy for
    city-scale graphs, flat hub labels beyond; the paper similarly assumes
    an effectively O(1) shortest-distance oracle (hub labelling + LRU
    cache). Every backend is value-exact, so the choice never changes
    simulation outcomes.
    """
    if config.oracle_backend is not None:
        mode = config.oracle_backend
    else:
        mode = "hub_labels" if config.use_hub_labels else config.oracle_precompute
    if mode == "none":
        mode = "dijkstra"
    return DistanceOracle(network, backend=mode, artifact_dir=config.oracle_artifact_dir)


def build_instance(
    config: ScenarioConfig, network: RoadNetwork | None = None, oracle: DistanceOracle | None = None
) -> URPSMInstance:
    """Materialise the scenario into a :class:`URPSMInstance`.

    Passing a pre-built ``network``/``oracle`` lets parameter sweeps reuse the
    expensive city construction across configurations.
    """
    if network is None:
        network = build_network(config)
    if oracle is None:
        oracle = make_oracle(network, config)
    objective = config.objective()

    workers = generate_workers(
        network,
        WorkerGeneratorConfig(
            count=config.num_workers,
            nominal_capacity=config.worker_capacity,
            seed=derive_seed(config.seed, "workers"),
        ),
    )
    requests = generate_requests(
        network,
        oracle,
        objective,
        RequestGeneratorConfig(
            count=config.num_requests,
            horizon_seconds=config.horizon_hours * 3600.0,
            deadline_seconds=config.deadline_minutes * 60.0,
            seed=derive_seed(config.seed, "requests"),
        ),
    )
    instance = URPSMInstance(
        network=network,
        oracle=oracle,
        workers=workers,
        requests=requests,
        objective=objective,
        name=f"{config.city}-W{config.num_workers}-R{config.num_requests}",
        dynamics=_build_dynamics(config, workers, requests),
    )
    instance.validate()
    return instance


def _build_dynamics(config: ScenarioConfig, workers, requests) -> InstanceDynamics | None:
    """Materialise the dynamic-fleet knobs, or ``None`` when all are off."""
    if config.cancellation_rate <= 0.0 and config.shift_hours <= 0.0:
        return None
    dynamics = InstanceDynamics()
    if config.cancellation_rate > 0.0:
        dynamics.cancellations = sample_cancellations(
            requests,
            rate=config.cancellation_rate,
            seed=derive_seed(config.seed, "cancellations"),
        )
    if config.shift_hours > 0.0:
        dynamics.shifts = staggered_shifts(
            workers,
            horizon_seconds=config.horizon_hours * 3600.0,
            shift_seconds=config.shift_hours * 3600.0,
            seed=derive_seed(config.seed, "shifts"),
        )
    # degenerate knobs (rate 0 draws, horizon-covering shifts) yield no actual
    # dynamics; such instances stay dynamics-free
    return None if dynamics.is_empty else dynamics


def dataset_statistics(config: ScenarioConfig) -> dict[str, float]:
    """Table 4 style statistics (#requests, #vertices, #edges) for a scenario."""
    network = build_network(config)
    return {
        "dataset": config.city,
        "requests": float(config.num_requests),
        "vertices": float(network.num_vertices),
        "edges": float(network.num_edges),
    }
