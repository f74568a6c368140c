"""Parallel sweep runner: determinism, seed derivation, city memoization."""

import pytest

from repro.experiments.parallel import (
    ParallelSweepRunner,
    SweepTask,
    metric_fingerprint,
    run_sweep_task,
)
from repro.experiments.runner import ScenarioRunner
from repro.utils.rng import derive_spawned_seed, spawn_key
from repro.workloads.scenarios import ScenarioConfig

_BASE = ScenarioConfig(city="small-grid", num_workers=6, num_requests=20, seed=5)


class TestSpawnKeys:
    def test_spawn_key_is_stable_across_calls(self):
        assert spawn_key("sweep", "num_workers", "10", 0) == spawn_key(
            "sweep", "num_workers", "10", 0
        )

    def test_spawn_key_mixes_ints_and_strings(self):
        key = spawn_key("a", 7, "b")
        assert len(key) == 3 and all(isinstance(part, int) for part in key)

    def test_derived_seeds_differ_per_label(self):
        seeds = {
            derive_spawned_seed(5, "sweep", "num_workers", str(value), replicate)
            for value in (10, 20)
            for replicate in (0, 1)
        }
        assert len(seeds) == 4

    def test_derived_seed_deterministic(self):
        assert derive_spawned_seed(5, "x", 1) == derive_spawned_seed(5, "x", 1)
        assert derive_spawned_seed(5, "x", 1) != derive_spawned_seed(6, "x", 1)


class TestPlanning:
    def test_plan_expands_the_full_grid(self):
        runner = ParallelSweepRunner(jobs=1)
        tasks = runner.plan("num_workers", [4, 6], _BASE, ["nearest", "GreedyDP"],
                            replicates=2)
        assert len(tasks) == 2 * 2 * 2
        assert {task.value for task in tasks} == {4, 6}

    def test_points_pin_the_city_seed(self):
        runner = ParallelSweepRunner(jobs=1)
        tasks = runner.plan("num_workers", [4, 6], _BASE, ["nearest"], replicates=2)
        for task in tasks:
            assert task.config.city_seed == _BASE.seed
            assert task.config.effective_city_seed == _BASE.seed
        # workload seeds all differ across (value, replicate) points
        assert len({task.config.seed for task in tasks}) == 4

    def test_algorithms_share_the_point_seed(self):
        runner = ParallelSweepRunner(jobs=1)
        tasks = runner.plan("num_workers", [4], _BASE, ["nearest", "GreedyDP"])
        assert tasks[0].config.seed == tasks[1].config.seed

    def test_planning_is_deterministic(self):
        runner = ParallelSweepRunner(jobs=1)
        first = runner.plan("num_workers", [4, 6], _BASE, ["nearest"], replicates=2)
        second = runner.plan("num_workers", [4, 6], _BASE, ["nearest"], replicates=2)
        assert [task.config.seed for task in first] == [task.config.seed for task in second]

    def test_sweeping_the_seed_itself_is_not_clobbered(self):
        runner = ParallelSweepRunner(jobs=1)
        tasks = runner.plan("seed", [101, 202], _BASE, ["nearest"])
        assert [task.config.seed for task in tasks] == [101, 202]
        assert all(task.config.city_seed is None for task in tasks)

    def test_sweeping_city_seed_is_not_clobbered(self):
        runner = ParallelSweepRunner(jobs=1)
        tasks = runner.plan("city_seed", [7, 8], _BASE, ["nearest"])
        assert [task.config.city_seed for task in tasks] == [7, 8]
        assert all(task.config.seed == _BASE.seed for task in tasks)

    def test_seed_sweep_rejects_replicates(self):
        runner = ParallelSweepRunner(jobs=1)
        with pytest.raises(ValueError):
            runner.plan("seed", [1, 2], _BASE, ["nearest"], replicates=2)


class TestSerialParallelEquivalence:
    @pytest.fixture(scope="class")
    def tasks(self):
        return ParallelSweepRunner(jobs=1).plan(
            "num_workers", [4, 6], _BASE, ["nearest"], replicates=1
        )

    def test_parallel_metrics_identical_to_serial(self, tasks):
        serial = ParallelSweepRunner(jobs=1).run(tasks)
        parallel = ParallelSweepRunner(jobs=2).run(tasks)
        assert [metric_fingerprint(r) for r in serial] == [
            metric_fingerprint(r) for r in parallel
        ]

    def test_task_outcome_is_a_pure_function_of_the_task(self, tasks):
        first = run_sweep_task(tasks[0])
        second = run_sweep_task(tasks[0])
        assert metric_fingerprint(first) == metric_fingerprint(second)

    def test_sweep_groups_points_in_order(self):
        points = ParallelSweepRunner(jobs=1).sweep(
            "num_workers", [4, 6], _BASE, ["nearest"], replicates=1
        )
        assert [point.value for point in points] == [4, 6]
        assert all(len(point.results) == 1 for point in points)

    def test_replicates_are_labelled_on_the_points(self):
        points = ParallelSweepRunner(jobs=1).sweep(
            "num_workers", [4], _BASE, ["nearest"], replicates=3
        )
        assert [(point.value, point.replicate) for point in points] == [
            (4, 0), (4, 1), (4, 2)
        ]

    def test_cache_statistics_independent_of_task_order(self):
        # the memoized oracle's path LRU is cleared per task, so hit rates
        # cannot depend on which tasks shared the process earlier
        runner = ParallelSweepRunner(jobs=1)
        tasks = runner.plan("num_workers", [4, 6], _BASE, ["nearest"])
        forward = [run_sweep_task(task) for task in tasks]
        backward = [run_sweep_task(task) for task in reversed(tasks)][::-1]
        for one, other in zip(forward, backward):
            assert "path_cache_hit_rate" in one.extra
            assert one.extra["path_cache_hit_rate"] == other.extra["path_cache_hit_rate"]

    def test_sharded_sweep_runs_in_parallel(self):
        points = ParallelSweepRunner(jobs=2).sweep(
            "num_workers", [4, 6], _BASE, ["sharded:pruneGreedyDP"], replicates=1
        )
        for point in points:
            assert point.results[0].extra["sharding_shards"] == 1.0


class TestCityMemoization:
    """Satellite: one network/oracle build per distinct city across a sweep."""

    def test_scenario_runner_builds_each_city_once(self):
        runner = ScenarioRunner()
        runner.sweep("num_workers", [4, 6, 8], _BASE, ["nearest"])
        assert sum(runner.network_builds.values()) == 1
        assert sum(runner.oracle_builds.values()) == 1

    def test_one_build_per_distinct_city(self):
        runner = ScenarioRunner()
        for city in ("small-grid", "random", "small-grid"):
            runner.compare(_BASE.with_overrides(city=city, num_workers=4, num_requests=5),
                           ["nearest"])
        assert sum(runner.network_builds.values()) == 2
        assert len(runner.network_builds) == 2

    def test_replicate_seeds_share_the_city_build(self):
        """Pinning city_seed keeps the cache hot while workload seeds vary."""
        runner = ScenarioRunner()
        tasks = ParallelSweepRunner(jobs=1).plan(
            "num_workers", [4, 6], _BASE, ["nearest"], replicates=3
        )
        for task in tasks:
            runner.compare(task.config, [task.algorithm])
        assert sum(runner.network_builds.values()) == 1

    def test_distinct_city_seeds_rebuild(self):
        runner = ScenarioRunner()
        runner.compare(_BASE.with_overrides(num_workers=4, num_requests=5), ["nearest"])
        runner.compare(
            _BASE.with_overrides(num_workers=4, num_requests=5, seed=99), ["nearest"]
        )
        assert sum(runner.network_builds.values()) == 2


class TestPlatformThreading:
    def test_platform_collect_completions_reaches_the_workers(self):
        from repro.service.spec import PlatformSpec

        runner = ParallelSweepRunner(
            jobs=1, platform=PlatformSpec(collect_completions=False)
        )
        tasks = runner.plan("num_workers", [4], _BASE, ["nearest"])
        assert all(not task.collect_completions for task in tasks)
        (result,) = runner.run(tasks)
        # completions were not collected: no waits / detours were recorded
        assert result.mean_wait_seconds == 0.0
        assert result.mean_detour_ratio == 0.0

    def test_platform_sharded_flag_reaches_the_workers(self):
        from repro.dispatch.registry import DispatcherSpec
        from repro.service.spec import PlatformSpec

        runner = ParallelSweepRunner(
            jobs=1,
            platform=PlatformSpec(
                dispatcher=DispatcherSpec(sharded=True, num_shards=1)
            ),
        )
        tasks = runner.plan("num_workers", [4], _BASE, ["nearest"])
        assert all(task.sharded for task in tasks)
        (result,) = runner.run(tasks)
        # the exactness wrapper ran: sharding counters are reported
        assert result.algorithm == "sharded:nearest"
        assert result.extra["sharding_shards"] == 1.0
