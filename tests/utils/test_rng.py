"""Tests for deterministic RNG plumbing."""

from typing import Sequence

import numpy as np
import pytest

from repro.utils.rng import derive_seed, derive_spawned_seed, make_rng, spawn_key, spawn_rngs


def choice_weighted(
    rng: np.random.Generator, items: Sequence, weights: Sequence[float]
):
    """Pick one element of ``items`` with the given (unnormalised) weights."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have the same length")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    probabilities = np.asarray(weights, dtype=float) / total
    index = int(rng.choice(len(items), p=probabilities))
    return items[index]


class TestMakeRng:
    def test_same_seed_same_stream(self):
        assert make_rng(42).integers(1000) == make_rng(42).integers(1000)

    def test_different_seeds_differ(self):
        draws_a = make_rng(1).integers(0, 1_000_000, size=8)
        draws_b = make_rng(2).integers(0, 1_000_000, size=8)
        assert not np.array_equal(draws_a, draws_b)


class TestSpawn:
    def test_spawn_count(self):
        assert len(spawn_rngs(7, 5)) == 5

    def test_spawned_streams_are_independent(self):
        first, second = spawn_rngs(7, 2)
        assert first.integers(1_000_000) != second.integers(1_000_000)

    def test_spawn_reproducible(self):
        first_run = [rng.integers(1000) for rng in spawn_rngs(3, 3)]
        second_run = [rng.integers(1000) for rng in spawn_rngs(3, 3)]
        assert first_run == second_run

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(10, "workers") == derive_seed(10, "workers")

    def test_labels_matter(self):
        assert derive_seed(10, "workers") != derive_seed(10, "requests")

    def test_integer_labels_supported(self):
        assert derive_seed(10, 3) == derive_seed(10, 3)
        assert derive_seed(10, 3) != derive_seed(10, 4)


class TestChoiceWeighted:
    def test_respects_weights(self):
        rng = make_rng(0)
        draws = [choice_weighted(rng, ["a", "b"], [0.0, 1.0]) for _ in range(20)]
        assert set(draws) == {"b"}

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            choice_weighted(make_rng(0), ["a"], [0.5, 0.5])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            choice_weighted(make_rng(0), ["a", "b"], [0.0, 0.0])


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
            derive_spawned_seed(5, "stress", str(value), index)
            for value in (10, 20)
            for index in (0, 1)
        }
        assert len(seeds) == 4

    def test_derived_seed_deterministic(self):
        assert derive_spawned_seed(5, "x", 1) == derive_spawned_seed(5, "x", 1)
        assert derive_spawned_seed(5, "x", 1) != derive_spawned_seed(6, "x", 1)
