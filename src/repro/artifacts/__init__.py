"""Content-addressed preprocessing artifacts for distance backends.

``ArtifactStore`` persists built APSP / contraction-hierarchy state as ``.npz`` + manifest entries keyed by a canonical hash of the
network's CSR content, and the :class:`~repro.network.oracle.DistanceOracle`
loads them transparently via ``artifact_dir=...`` — turning minutes of
preprocessing into a sub-second, bit-identical cold start.
"""

from __future__ import annotations

from repro.artifacts.hashing import HASH_SCHEMA, network_content_hash
from repro.artifacts.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    ArtifactStore,
)

__all__ = [
    "ArtifactStore",
    "FORMAT_VERSION",
    "HASH_SCHEMA",
    "MANIFEST_NAME",
    "network_content_hash",
]
