"""Tests for the hardness constructions of Section 3.3 (Lemmas 1-3)."""

import pytest

from repro.core.hardness import (
    HardnessInstanceSpec,
    adversarial_instance,
    estimate_competitive_ratio,
    lemma1_instance,
    lemma2_instance,
    lemma3_instance,
    optimal_cost,
)
from repro.dispatch import DispatcherConfig, PruneGreedyDP
from repro.service import MatchingService
from repro.utils.rng import make_rng


class TestInstanceGenerators:
    def test_lemma1_instance_shape(self):
        spec = HardnessInstanceSpec(lemma=1, num_vertices=12)
        instance = lemma1_instance(spec, make_rng(0))
        instance.validate()
        assert len(instance.workers) == 1
        assert len(instance.requests) == 1
        request = instance.requests[0]
        assert request.release_time == 12.0
        assert request.origin == request.destination
        assert instance.objective.alpha == 0.0

    def test_lemma2_destination_is_antipodal(self):
        spec = HardnessInstanceSpec(lemma=2, num_vertices=16)
        instance = lemma2_instance(spec, make_rng(1))
        request = instance.requests[0]
        assert instance.oracle.distance(request.origin, request.destination) == pytest.approx(8.0)

    def test_lemma3_penalty_grows_with_network(self):
        small = lemma3_instance(HardnessInstanceSpec(lemma=3, num_vertices=10), make_rng(2))
        large = lemma3_instance(HardnessInstanceSpec(lemma=3, num_vertices=40), make_rng(2))
        assert large.requests[0].penalty > small.requests[0].penalty

    def test_adversarial_instance_dispatch(self):
        for lemma in (1, 2, 3):
            instance = adversarial_instance(
                HardnessInstanceSpec(lemma=lemma, num_vertices=10), make_rng(lemma)
            )
            instance.validate()

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ValueError, match="unknown lemma"):
            adversarial_instance(HardnessInstanceSpec(lemma=4, num_vertices=10), make_rng(0))

    def test_optimal_cost_is_zero_for_lemma1(self):
        instance = lemma1_instance(HardnessInstanceSpec(lemma=1, num_vertices=12), make_rng(3))
        assert optimal_cost(instance) == 0.0  # alpha = 0 -> optimum serves for free


class TestEmpiricalRatio:
    def _run(self, instance):
        result = MatchingService(instance, PruneGreedyDP(DispatcherConfig(grid_cell_metres=50.0))).replay()
        return result.unified_cost, result.served_requests

    def test_lemma1_ratio_grows_with_vertices(self):
        small = estimate_competitive_ratio(1, 8, self._run, trials=12, seed=7)
        large = estimate_competitive_ratio(1, 32, self._run, trials=12, seed=7)
        # an online algorithm misses the request more often on the larger cycle
        assert large.unserved_fraction >= small.unserved_fraction
        assert large.unserved_fraction > 0.5

    def test_lemma2_algorithm_pays_penalties(self):
        estimate = estimate_competitive_ratio(2, 16, self._run, trials=10, seed=11)
        assert estimate.mean_algorithm_cost > 0.0
        assert estimate.ratio > 1.0
