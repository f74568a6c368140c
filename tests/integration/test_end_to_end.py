"""End-to-end integration tests: full scenarios, all algorithms, paper-shaped claims.

These tests assert the qualitative findings of Section 6 at a miniature scale:

* every algorithm resolves every request and keeps all routes feasible;
* pruneGreedyDP / GreedyDP dominate tshare on unified cost and served rate;
* the Lemma 8 pruning saves shortest-distance queries without changing the
  outcome quality;
* more workers / longer deadlines never hurt the unified cost.
"""

import pytest

from repro.dispatch import ALGORITHMS, DispatcherConfig, make_dispatcher
from repro.service import MatchingService
from repro.workloads.scenarios import ScenarioConfig, build_instance, build_network, make_oracle

_CONFIG = ScenarioConfig(
    city="small-grid",
    num_workers=12,
    num_requests=70,
    deadline_minutes=10.0,
    penalty_factor=10.0,
    seed=11,
)
_NETWORK = build_network(_CONFIG)
_ORACLE = make_oracle(_NETWORK, _CONFIG)
_PAPER_ALGORITHMS = ["pruneGreedyDP", "GreedyDP", "tshare", "kinetic", "batch"]


def _run(algorithm: str, config: ScenarioConfig = _CONFIG):
    instance = build_instance(config, network=_NETWORK, oracle=_ORACLE)
    dispatcher = make_dispatcher(algorithm, DispatcherConfig(grid_cell_metres=config.grid_km * 1000))
    return MatchingService(instance, dispatcher).replay()


@pytest.fixture(scope="module")
def results():
    return {algorithm: _run(algorithm) for algorithm in _PAPER_ALGORITHMS}


class TestAllAlgorithms:
    def test_registry_and_run_complete(self, results):
        assert set(results) <= set(ALGORITHMS)
        for algorithm, result in results.items():
            assert result.total_requests == _CONFIG.num_requests, algorithm
            assert result.served_requests + result.rejected_requests == result.total_requests

    def test_no_deadline_violations(self, results):
        for algorithm, result in results.items():
            assert result.deadline_violations == 0, algorithm

    def test_unified_cost_consistency(self, results):
        for algorithm, result in results.items():
            assert result.unified_cost == pytest.approx(
                result.alpha * result.total_travel_cost + result.total_penalty
            ), algorithm

    def test_served_rate_within_bounds(self, results):
        for result in results.values():
            assert 0.0 <= result.served_rate <= 1.0


class TestPaperShapedClaims:
    def test_dp_algorithms_not_worse_than_tshare_on_unified_cost(self, results):
        # At this miniature scale tshare's lossy candidate search rarely fires,
        # so the costs are near-identical; the clear separation the paper reports
        # emerges at the benchmark scale (see benchmarks/bench_fig3_workers.py).
        assert results["pruneGreedyDP"].unified_cost <= results["tshare"].unified_cost * 1.05
        assert results["GreedyDP"].unified_cost <= results["tshare"].unified_cost * 1.05

    def test_dp_algorithms_serve_at_least_as_many_as_tshare(self, results):
        assert results["pruneGreedyDP"].served_rate >= results["tshare"].served_rate
        assert results["GreedyDP"].served_rate >= results["tshare"].served_rate

    def test_pruning_saves_queries_without_losing_quality(self, results):
        prune = results["pruneGreedyDP"]
        plain = results["GreedyDP"]
        assert prune.distance_queries <= plain.distance_queries
        assert prune.unified_cost <= plain.unified_cost * 1.10

    def test_prune_greedy_close_to_kinetic_quality(self, results):
        """The paper finds pruneGreedyDP competitive with kinetic on effectiveness."""
        assert results["pruneGreedyDP"].unified_cost <= results["kinetic"].unified_cost * 1.25


class TestMonotonicity:
    def test_more_workers_do_not_hurt(self):
        small = _run("pruneGreedyDP", _CONFIG.with_overrides(num_workers=6))
        large = _run("pruneGreedyDP", _CONFIG.with_overrides(num_workers=24))
        assert large.unified_cost <= small.unified_cost * 1.05
        assert large.served_rate >= small.served_rate - 0.05

    def test_longer_deadlines_do_not_hurt(self):
        tight = _run("pruneGreedyDP", _CONFIG.with_overrides(deadline_minutes=5.0))
        loose = _run("pruneGreedyDP", _CONFIG.with_overrides(deadline_minutes=25.0))
        assert loose.served_rate >= tight.served_rate - 0.05
        assert loose.unified_cost <= tight.unified_cost * 1.05
