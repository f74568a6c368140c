"""Experiment runner: evaluate several dispatchers on shared scenarios.

The runner keeps the expensive artefacts (road network, distance oracle) shared
across the algorithms being compared — the paper does the same by letting every
algorithm use the same graph, shortest-path labels and LRU cache — and returns
one :class:`~repro.simulation.metrics.SimulationResult` per (scenario,
algorithm) pair.

Every run is executed by replaying the workload through a
:class:`~repro.service.facade.MatchingService` built from the runner's
:class:`~repro.service.spec.PlatformSpec` — batch experiments exercise exactly
the online-serving code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.instance import URPSMInstance
from repro.dispatch.registry import DispatcherSpec
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.service.facade import MatchingService
from repro.service.spec import PlatformSpec
from repro.simulation.metrics import SimulationResult
from repro.workloads.scenarios import ScenarioConfig, build_instance, build_network, make_oracle


@dataclass
class SweepPoint:
    """One point of a parameter sweep: a label, a scenario, and its results."""

    parameter: str
    value: float | int | str
    city: str
    results: list[SimulationResult] = field(default_factory=list)

    def result_for(self, algorithm: str) -> SimulationResult | None:
        """Result of ``algorithm`` at this point, if present."""
        for result in self.results:
            if result.algorithm == algorithm:
                return result
        return None


class ScenarioRunner:
    """Builds instances (caching the city) and runs algorithm comparisons.

    The platform spec supplies the dispatcher knobs (sharding layout, batch
    window, ...); each :meth:`compare` call supplies the scenario and the
    algorithm names.

    Args:
        platform: the platform spec (default: ``PlatformSpec()``); scenario
            fields of the spec are ignored (scenarios are per-call), the
            dispatcher and completion-tracking fields apply.
    """

    def __init__(self, *, platform: PlatformSpec | None = None) -> None:
        self.platform = (platform or PlatformSpec()).validate()
        self._network_cache: dict[tuple[str, int], RoadNetwork] = {}
        self._oracle_cache: dict[tuple, DistanceOracle] = {}

    # --------------------------------------------------------------- caches

    def network_for(self, config: ScenarioConfig) -> RoadNetwork:
        """Road network of the scenario's city, cached per (city, city seed).

        The key uses :attr:`ScenarioConfig.effective_city_seed`, so sweep
        points that vary the workload seed while pinning ``city_seed`` share
        one network build.
        """
        key = (config.city, config.effective_city_seed)
        if key not in self._network_cache:
            self._network_cache[key] = build_network(config)
        return self._network_cache[key]

    def oracle_for(self, config: ScenarioConfig) -> DistanceOracle:
        """Distance oracle over the scenario's network, cached per city + mode.

        When the scenario attaches a preprocessing store, the memo key also
        carries the *resolved* store path and the network's content hash:
        two spellings of one directory share an oracle, while distinct
        stores — or a ``file:`` city whose extract changed between runs —
        never serve each other's cached entry.
        """
        artifact_key: tuple[str, str] | None = None
        if config.oracle_artifact_dir is not None:
            from pathlib import Path

            from repro.artifacts import network_content_hash

            artifact_key = (
                str(Path(config.oracle_artifact_dir).resolve()),
                network_content_hash(self.network_for(config)),
            )
        key = (
            config.city,
            config.effective_city_seed,
            config.oracle_backend,
            artifact_key,
        )
        if key not in self._oracle_cache:
            self._oracle_cache[key] = make_oracle(self.network_for(config), config)
        return self._oracle_cache[key]

    def instance_for(self, config: ScenarioConfig) -> URPSMInstance:
        """Build the URPSM instance of ``config`` reusing cached network/oracle."""
        return build_instance(config, network=self.network_for(config), oracle=self.oracle_for(config))

    # ---------------------------------------------------------------- running

    def compare(
        self,
        config: ScenarioConfig,
        algorithms: Sequence[str | DispatcherSpec],
        grid_cell_metres: float | None = None,
    ) -> list[SimulationResult]:
        """Run every algorithm on a freshly built instance of ``config``.

        Each run constructs a :class:`MatchingService` and replays the
        workload through it. ``algorithms`` entries may be registry names
        (``"sharded:<inner>"`` included) or full :class:`DispatcherSpec`
        values. Names inherit the runner's dispatcher knobs with the
        scenario-derived grid cell (the historical semantics); a full spec is
        taken as-is — its pinned ``grid_cell_metres`` wins, and only an
        unpinned (``None``) cell is filled from the scenario.

        The runs share the memoised oracle, but each starts with a cold path
        cache, so a run's ``dijkstra_runs`` and path-cache hit rate do not
        depend on the algorithms that ran before it.
        """
        results: list[SimulationResult] = []
        cell_metres = grid_cell_metres if grid_cell_metres is not None else config.grid_km * 1000.0
        for algorithm in algorithms:
            instance = self.instance_for(config)
            instance.oracle.clear_path_cache()
            if isinstance(algorithm, DispatcherSpec):
                spec = algorithm
                dispatcher_config = spec.to_config(default_grid_cell_metres=cell_metres)
            else:
                spec = self.platform.dispatcher.with_algorithm(algorithm)
                dispatcher_config = spec.to_config()
                dispatcher_config.grid_cell_metres = cell_metres
            service = MatchingService(
                instance,
                spec.build(config=dispatcher_config),
                collect_completions=self.platform.collect_completions,
            )
            results.append(service.replay())
        return results

    def sweep(
        self,
        parameter: str,
        values: Iterable[float | int | str],
        base_config: ScenarioConfig,
        algorithms: Sequence[str],
    ) -> list[SweepPoint]:
        """Sweep ``parameter`` over ``values`` and compare ``algorithms`` at each point.

        ``parameter`` must be a field of :class:`ScenarioConfig` (e.g.
        ``num_workers``, ``worker_capacity``, ``deadline_minutes``,
        ``penalty_factor``, ``grid_km``).
        """
        points: list[SweepPoint] = []
        for value in values:
            config = base_config.with_overrides(**{parameter: value})
            point = SweepPoint(parameter=parameter, value=value, city=config.city)
            point.results = self.compare(config, algorithms)
            points.append(point)
        return points
