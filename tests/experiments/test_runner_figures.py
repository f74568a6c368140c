"""Tests for the experiment runner, figure harness, tables and reporting.

These run at the ``tiny`` scale on the smallest synthetic city so the whole
module stays fast while exercising the full sweep machinery end to end.
"""

import math
import warnings

import pytest

from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.dispatch.registry import DispatcherSpec
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import FIGURES, figure3_workers, figure6_deadline
from repro.experiments.reporting import format_figure, format_results, format_table
from repro.experiments import runner as runner_module
from repro.experiments.runner import ScenarioRunner
from repro.experiments.tables import table4_datasets, table5_parameters
from repro.service import MatchingService, PlatformSpec
from repro.workloads.scenarios import ScenarioConfig, build_instance


@pytest.fixture(scope="module")
def experiment():
    return ExperimentConfig(
        cities=("small-grid",),
        algorithms=("pruneGreedyDP", "GreedyDP"),
        scale="tiny",
        seed=5,
    )


@pytest.fixture(scope="module")
def runner():
    return ScenarioRunner()


class TestScenarioRunner:
    def test_compare_returns_one_result_per_algorithm(self, runner):
        config = ScenarioConfig(city="small-grid", num_workers=6, num_requests=25, seed=5)
        results = runner.compare(config, ["pruneGreedyDP", "tshare"])
        assert [result.algorithm for result in results] == ["pruneGreedyDP", "tshare"]
        for result in results:
            assert result.total_requests == 25

    def test_each_compare_run_starts_with_a_cold_path_cache(self):
        """The runs share one oracle but not its path cache: pruneGreedyDP
        reports the same path work alone as after GreedyDP (a path-cache miss
        is one ``dijkstra_runs``)."""
        config = ScenarioConfig(city="small-grid", num_workers=6, num_requests=40, seed=5)
        alone = ScenarioRunner().compare(config, ["pruneGreedyDP"])[0].extra
        second = ScenarioRunner().compare(config, ["GreedyDP", "pruneGreedyDP"])[1].extra
        assert alone["path_cache_misses"] > 0
        for key in ("path_cache_misses", "path_cache_hits", "path_cache_hit_rate"):
            assert second[key] == alone[key], key

    def test_network_cache_reused(self, runner):
        config = ScenarioConfig(city="small-grid", num_workers=6, num_requests=10, seed=5)
        assert runner.network_for(config) is runner.network_for(config.with_overrides(num_workers=9))

    def test_sweep_produces_one_point_per_value(self, runner):
        base = ScenarioConfig(city="small-grid", num_workers=6, num_requests=20, seed=5)
        points = runner.sweep("num_workers", [4, 8], base, ["pruneGreedyDP"])
        assert [point.value for point in points] == [4, 8]
        assert all(point.parameter == "num_workers" for point in points)
        assert all(point.result_for("pruneGreedyDP") is not None for point in points)
        assert points[0].result_for("missing") is None


_BASE = ScenarioConfig(city="small-grid", num_workers=6, num_requests=20, seed=5)


class TestCityMemoization:
    """One network and one oracle build per distinct (city, city seed)."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        counts = {"network": 0, "oracle": 0}

        def counting(kind, build):
            def wrapper(*args, **kwargs):
                counts[kind] += 1
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(runner_module, "build_network",
                            counting("network", runner_module.build_network))
        monkeypatch.setattr(runner_module, "make_oracle",
                            counting("oracle", runner_module.make_oracle))
        return counts

    def test_a_sweep_builds_its_city_once(self, builds):
        ScenarioRunner().sweep("num_workers", [4, 6, 8], _BASE, ["nearest"])
        assert builds == {"network": 1, "oracle": 1}

    def test_one_build_per_distinct_city(self, builds):
        runner = ScenarioRunner()
        for city in ("small-grid", "random", "small-grid"):
            runner.compare(_BASE.with_overrides(city=city, num_workers=4, num_requests=5),
                           ["nearest"])
        assert builds == {"network": 2, "oracle": 2}

    def test_workload_seeds_share_a_pinned_city_build(self, builds):
        runner = ScenarioRunner()
        for seed in (5, 6, 7):
            runner.compare(_BASE.with_overrides(seed=seed, city_seed=5, num_requests=5),
                           ["nearest"])
        assert builds == {"network": 1, "oracle": 1}

    def test_distinct_city_seeds_rebuild(self, builds):
        runner = ScenarioRunner()
        for seed in (5, 99):
            runner.compare(_BASE.with_overrides(seed=seed, num_requests=5), ["nearest"])
        assert builds == {"network": 2, "oracle": 2}


class TestConstruction:
    """The runner is built from a :class:`PlatformSpec` only."""

    def test_default_construction_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner = ScenarioRunner()
        assert runner.platform == PlatformSpec()

    def test_platform_construction_does_not_warn(self):
        platform = PlatformSpec(dispatcher=DispatcherSpec(algorithm="batch", batch_interval=4.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runner = ScenarioRunner(platform=platform)
        assert runner.platform is platform

    def test_positional_dispatcher_config_is_refused(self):
        # the old ``ScenarioRunner(dispatcher_config, engine)`` signature
        with pytest.raises(TypeError):
            ScenarioRunner(DispatcherConfig(batch_interval=3.0))

    def test_platform_dispatcher_knobs_reach_every_run(self):
        # a 60 s batch window changes both cost and waits on this scenario
        # against the 6 s default, so a dropped knob cannot pass unnoticed
        config = DispatcherConfig(grid_cell_metres=2000.0, batch_interval=60.0)
        runner = ScenarioRunner(
            platform=PlatformSpec(dispatcher=DispatcherSpec.from_config(config))
        )
        scenario = ScenarioConfig(city="small-grid", num_workers=8, num_requests=40, seed=3)
        via_runner = runner.compare(scenario, ["batch"], grid_cell_metres=2000.0)[0]
        direct = MatchingService(
            build_instance(scenario), make_dispatcher("batch", config)
        ).replay()
        default = ScenarioRunner().compare(scenario, ["batch"], grid_cell_metres=2000.0)[0]
        assert default.mean_wait_seconds != direct.mean_wait_seconds
        assert (via_runner.served_requests, via_runner.unified_cost) == (
            direct.served_requests,
            direct.unified_cost,
        )
        assert via_runner.mean_wait_seconds == direct.mean_wait_seconds
        assert via_runner.distance_queries == direct.distance_queries


    def test_platform_collect_completions_reaches_every_run(self):
        runner = ScenarioRunner(platform=PlatformSpec(collect_completions=False))
        (result,) = runner.compare(_BASE, ["nearest"])
        # completions were not collected: no waits / detours were recorded
        assert result.served_requests > 0
        assert result.mean_wait_seconds == 0.0 and result.mean_detour_ratio == 0.0

    def test_platform_sharded_flag_reaches_every_run(self):
        runner = ScenarioRunner(
            platform=PlatformSpec(dispatcher=DispatcherSpec(sharded=True, num_shards=1))
        )
        (result,) = runner.compare(_BASE, ["nearest"])
        # the exactness wrapper ran: sharding counters are reported
        assert result.algorithm == "sharded:nearest"
        assert result.extra["sharding_shards"] == 1.0


class TestCompareSpecSemantics:
    def test_explicit_spec_keeps_its_pinned_grid_cell(self):
        runner = ScenarioRunner()
        pinned = DispatcherSpec(algorithm="nearest", grid_cell_metres=500.0)
        unpinned = DispatcherSpec(algorithm="nearest")
        config = ScenarioConfig(city="small-grid", num_workers=8, num_requests=40, seed=3)
        pinned_result, unpinned_result, named_result = runner.compare(
            config, [pinned, unpinned, "nearest"]
        )
        # grid memory scales with the cell count, so a 500 m cell over the
        # same city yields a strictly larger index than the 2 km scenario cell
        assert pinned_result.index_memory_bytes > unpinned_result.index_memory_bytes
        # an unpinned spec and a bare name both derive the scenario cell
        assert unpinned_result.index_memory_bytes == named_result.index_memory_bytes
        assert unpinned_result.unified_cost == named_result.unified_cost


class TestFigures:
    def test_registry_covers_figures_3_to_7(self):
        assert set(FIGURES) == {"figure3", "figure4", "figure5", "figure6", "figure7"}

    def test_figure3_series_shapes(self, experiment, runner):
        figure = figure3_workers(experiment, runner)
        assert figure.parameter == "num_workers"
        assert figure.cities() == ["small-grid"]
        assert set(figure.algorithms()) == {"pruneGreedyDP", "GreedyDP"}
        series = figure.series("small-grid", "pruneGreedyDP", "unified_cost")
        assert len(series) == 5
        assert all(math.isfinite(value) for _, value in series)

    def test_more_workers_do_not_increase_unified_cost(self, experiment, runner):
        figure = figure3_workers(experiment, runner)
        series = figure.series("small-grid", "pruneGreedyDP", "unified_cost")
        values = [value for _, value in series]
        assert values[-1] <= values[0] * 1.05  # small tolerance for tie-breaking noise

    def test_figure6_longer_deadline_serves_more(self, experiment, runner):
        figure = figure6_deadline(experiment, runner)
        served = figure.series("small-grid", "pruneGreedyDP", "served_rate")
        values = [value for _, value in served]
        assert values[-1] >= values[0]


class TestTablesAndReporting:
    def test_table4_rows(self, experiment):
        rows = table4_datasets(experiment)
        assert len(rows) == 1
        assert rows[0]["dataset"] == "small-grid"
        assert rows[0]["vertices"] > 0

    def test_table5_rows_include_all_parameters(self, experiment):
        rows = table5_parameters(experiment)
        names = {row["parameter"] for row in rows}
        assert any("grid size" in name for name in names)
        assert any("deadline" in name for name in names)
        assert any("capacity" in name for name in names)
        assert any("penalty" in name for name in names)
        assert any("workers" in name for name in names)

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_figure_and_results(self, experiment, runner):
        figure = figure3_workers(experiment, runner)
        text = format_figure(figure)
        assert "Unified cost" in text and "Served rate" in text
        point = figure.points[0]
        assert "pruneGreedyDP" in format_results(point.results)
