"""Deterministic random-number plumbing.

Every stochastic component of the library (workload generators, worker
placement, Gaussian capacities, hardness constructions) draws from a
``numpy.random.Generator`` created here, so that a scenario seed fully
determines the simulation outcome.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a :class:`numpy.random.Generator` from ``seed``.

    Args:
        seed: any non-negative integer, or ``None`` for OS entropy. Experiments
            should always pass an explicit seed.
    """
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning so the streams are
    statistically independent and reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    sequence = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


def derive_seed(seed: int, *labels: int | str) -> int:
    """Derive a child seed from ``seed`` and a sequence of labels.

    Labels may be strings (hashed stably) or integers. The same inputs always
    produce the same child seed, independent of Python's per-process hash
    randomisation.
    """
    entropy: list[int] = [int(seed)]
    for label in labels:
        if isinstance(label, int):
            entropy.append(label & 0xFFFFFFFF)
        else:
            entropy.append(_stable_string_hash(str(label)))
    sequence = np.random.SeedSequence(entropy)
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def spawn_key(*labels: int | str) -> tuple[int, ...]:
    """Stable :class:`numpy.random.SeedSequence` spawn key from mixed labels.

    String labels are hashed with the same stable FNV-1a hash as
    :func:`derive_seed`, so the key is reproducible across processes and
    Python hash-randomisation settings — the property the stress harness
    and the cluster rely on to give every scenario or shard worker the same
    child seed no matter which process computes it.
    """
    return tuple(
        (label & 0xFFFFFFFF) if isinstance(label, int) else _stable_string_hash(str(label))
        for label in labels
    )


def derive_spawned_seed(seed: int, *labels: int | str) -> int:
    """Child seed of ``seed`` addressed by a spawn key built from ``labels``.

    Unlike :func:`derive_seed` (which folds the labels into the entropy
    pool), this uses SeedSequence *spawn keys* — the mechanism numpy defines
    for addressing independent child streams — so the derived streams are
    guaranteed statistically independent of the parent and of each other.
    """
    sequence = np.random.SeedSequence(int(seed), spawn_key=spawn_key(*labels))
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def _stable_string_hash(text: str) -> int:
    """A small, stable (non-cryptographic) 32-bit string hash (FNV-1a)."""
    value = 0x811C9DC5
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 0x01000193) & 0xFFFFFFFF
    return value
