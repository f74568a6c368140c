"""Parallel execution of experiment sweeps over a process pool.

A parameter sweep is a grid of independent simulation runs — (parameter
value × algorithm × replicate seed) — and nothing about a run depends on any
other, so large sweeps should use every core. :class:`ParallelSweepRunner`

* expands the grid into :class:`SweepTask` values with **deterministic
  per-point seeds** derived through :func:`repro.utils.rng.derive_spawned_seed`
  (SeedSequence spawn keys addressed by ``(parameter, value, replicate)``),
  so a task's outcome is a pure function of the task — identical whether it
  runs serially, in any process, or in any order;
* pins every task's ``city_seed`` to the base scenario's seed so all
  replicates of a city share one road-network/oracle build (the per-process
  :class:`~repro.experiments.runner.ScenarioRunner` memoizes them);
* runs the tasks either inline (``jobs=1`` — also the reference for the
  serial/parallel equivalence tests) or over a
  :class:`concurrent.futures.ProcessPoolExecutor`.

Wall-clock fields of a :class:`~repro.simulation.metrics.SimulationResult`
(response time, dispatch seconds) legitimately differ between processes;
:func:`metric_fingerprint` extracts the deterministic subset that serial and
parallel execution must agree on exactly.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field
from typing import Iterable, Sequence

from repro.dispatch.base import DispatcherConfig
from repro.dispatch.registry import DispatcherSpec
from repro.experiments.runner import ScenarioRunner, SweepPoint
from repro.service.spec import PlatformSpec
from repro.simulation.metrics import SimulationResult
from repro.utils.rng import derive_spawned_seed
from repro.workloads.scenarios import ScenarioConfig


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of sweep work: a scenario, one algorithm, one seed."""

    parameter: str
    value: float | int | str
    replicate: int
    algorithm: str
    config: ScenarioConfig
    dispatcher_config: DispatcherConfig = field(default_factory=DispatcherConfig)
    #: force the sharded wrapper even at num_shards=1 (the exactness wrapper);
    #: carried separately because DispatcherConfig has no such flag.
    sharded: bool = False
    collect_completions: bool = True


def run_sweep_task(task: SweepTask) -> SimulationResult:
    """Execute one sweep task (module level so process pools can pickle it).

    Each worker process keeps one :class:`ScenarioRunner` per dispatcher
    configuration, so network and oracle construction is memoized per
    city *across* the tasks the process executes. The memoized oracle's LRU
    caches are cleared before the run: a task's reported cache hit rates must
    not depend on which tasks happened to share its process earlier.
    """
    runner = _process_runner(task)
    runner.oracle_for(task.config).clear_caches()
    return runner.compare(task.config, [task.algorithm])[0]


_PROCESS_RUNNERS: dict[tuple, ScenarioRunner] = {}


def _process_runner(task: SweepTask) -> ScenarioRunner:
    key = (
        astuple(task.dispatcher_config),
        task.sharded,
        task.collect_completions,
    )
    runner = _PROCESS_RUNNERS.get(key)
    if runner is None:
        runner = ScenarioRunner(
            platform=PlatformSpec(
                dispatcher=DispatcherSpec.from_config(
                    task.dispatcher_config, sharded=task.sharded
                ),
                collect_completions=task.collect_completions,
            )
        )
        _PROCESS_RUNNERS[key] = runner
    return runner


def metric_fingerprint(result: SimulationResult) -> dict[str, float | int | str]:
    """The deterministic subset of a result (excludes wall-clock timings)."""
    return {
        "algorithm": result.algorithm,
        "instance": result.instance_name,
        "total_requests": result.total_requests,
        "served": result.served_requests,
        "rejected": result.rejected_requests,
        "cancelled": result.cancelled_requests,
        "unified_cost": round(result.unified_cost, 9),
        "total_travel_cost": round(result.total_travel_cost, 9),
        "total_penalty": round(result.total_penalty, 9),
        "distance_queries": result.distance_queries,
        "lower_bound_queries": result.lower_bound_queries,
        "candidates_considered": result.candidates_considered,
        "insertions_evaluated": result.insertions_evaluated,
    }


class ParallelSweepRunner:
    """Fans independent sweep tasks out over a process pool.

    Args:
        jobs: worker processes; 1 runs everything inline, ``None`` uses the
            machine's CPU count.
        platform: the platform spec (default: ``PlatformSpec()``) supplying
            the dispatcher knobs, the sharded flag and completion tracking.
    """

    def __init__(
        self, jobs: int | None = None, *, platform: PlatformSpec | None = None
    ) -> None:
        platform = platform or PlatformSpec()
        self.dispatcher_config = platform.dispatcher_config()
        self.sharded = platform.dispatcher.sharded
        self.collect_completions = platform.collect_completions
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)

    # --------------------------------------------------------------- planning

    def plan(
        self,
        parameter: str,
        values: Iterable[float | int | str],
        base_config: ScenarioConfig,
        algorithms: Sequence[str],
        replicates: int = 1,
    ) -> list[SweepTask]:
        """Expand the sweep grid into tasks with derived per-point seeds.

        Every (value, replicate) point gets its own workload seed via
        SeedSequence spawn keys; ``city_seed`` is pinned to the base seed so
        all points of one city share a single network build. Algorithms at
        the same point share the point's seed (they compare on the same
        instance, like :meth:`ScenarioRunner.compare`). Sweeping ``seed`` or
        ``city_seed`` itself suspends the derivation — the swept value *is*
        the randomness knob, so it must reach the scenario untouched (and
        replicates, which would all repeat the same run, are rejected).
        """
        sweeps_randomness = parameter in ("seed", "city_seed")
        if sweeps_randomness and replicates > 1:
            raise ValueError(
                f"sweeping {parameter!r} already varies the randomness; "
                "replicates > 1 would repeat identical runs"
            )
        tasks: list[SweepTask] = []
        for value in values:
            swept = base_config.with_overrides(**{parameter: value})
            for replicate in range(replicates):
                if sweeps_randomness:
                    point_config = swept
                else:
                    point_config = swept.with_overrides(
                        seed=derive_spawned_seed(
                            base_config.seed, "sweep", parameter, str(value), replicate
                        ),
                        city_seed=base_config.effective_city_seed,
                    )
                for algorithm in algorithms:
                    tasks.append(
                        SweepTask(
                            parameter=parameter,
                            value=value,
                            replicate=replicate,
                            algorithm=algorithm,
                            config=point_config,
                            dispatcher_config=self.dispatcher_config,
                            sharded=self.sharded,
                            collect_completions=self.collect_completions,
                        )
                    )
        return tasks

    # ---------------------------------------------------------------- running

    def run(self, tasks: Sequence[SweepTask]) -> list[SimulationResult]:
        """Run ``tasks`` and return their results in task order."""
        if self.jobs <= 1 or len(tasks) <= 1:
            return [run_sweep_task(task) for task in tasks]
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(tasks))) as executor:
            return list(executor.map(run_sweep_task, tasks))

    def sweep(
        self,
        parameter: str,
        values: Iterable[float | int | str],
        base_config: ScenarioConfig,
        algorithms: Sequence[str],
        replicates: int = 1,
    ) -> list[SweepPoint]:
        """Plan, run, and group the results into reporting-ready sweep points."""
        tasks = self.plan(parameter, values, base_config, algorithms, replicates)
        results = self.run(tasks)
        points: list[SweepPoint] = []
        by_key: dict[tuple, SweepPoint] = {}
        for task, result in zip(tasks, results):
            key = (task.value, task.replicate)
            point = by_key.get(key)
            if point is None:
                point = SweepPoint(
                    parameter=parameter,
                    value=task.value,
                    city=task.config.city,
                    replicate=task.replicate,
                )
                by_key[key] = point
                points.append(point)
            point.results.append(result)
        return points
