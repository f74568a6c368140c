"""Content-addressed on-disk store for preprocessed distance backends.

Building a distance index dominates cold start: the dense APSP matrix
relaxes every vertex for all sources at once until no cell improves, and
the contraction hierarchy contracts every vertex with witness searches. The
paper's platform amortises this by preprocessing the city network once; the
store reproduces that by persisting each backend's built state on disk,
keyed by :func:`repro.artifacts.hashing.network_content_hash` — so a cache
entry can never be served for a network it was not built from.

Layout (``FORMAT_VERSION`` bumps on any change to the layout or to the
stored bits; a new build algorithm that writes the same bits, as the APSP
sweep replacing the per-row Dijkstras did, keeps old entries valid). Version
2 stores the APSP ``matrix`` as int32 ticks of the time grid (version 1 held
float64 seconds)::

    <root>/<hash[:2]>/<hash[2:]>/
        manifest.json     # format version, hash, network summary, backends
        apsp.npz          # matrix (int32 ticks), vertex_ids
        ch.npz            # rank, up_indptr, up_indices, up_costs, meta

Loads are **bit-identical**: the arrays come back ``np.load``-exact, so a
loaded backend answers every query with the very float a fresh build would
(``tests/artifacts/test_store.py`` holds both query batteries and full
replays to that). Corrupt or stale entries — an older format version, an
array of the wrong dtype or shape, an APSP cell outside ``0`` to
``UNREACHABLE_TICKS`` or a nonzero diagonal — raise
:class:`~repro.exceptions.ArtifactError` from
:meth:`ArtifactStore.load_backend`; the :meth:`ArtifactStore.load_or_build`
path used by the oracle treats them as cache misses and rebuilds. Files and
manifest records of backends outside
:data:`~repro.network.backends.BACKEND_NAMES` (left by older versions that
persisted more backends) are kept but never read; asking the store for such
a name raises :class:`~repro.exceptions.ConfigurationError`
(:func:`~repro.network.backends.check_backend_name`), as ``make_backend``
does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.artifacts.hashing import network_content_hash
from repro.exceptions import ArtifactError
from repro.network.backends import check_backend_name
from repro.network.ch import ContractionHierarchy
from repro.network.graph import UNREACHABLE_TICKS, RoadNetwork

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.backends import DistanceBackend
    from repro.network.oracle import DistanceOracle

FORMAT_VERSION = 2

#: the dtype every stored array must come back with, per backend.
_ARRAY_DTYPES = {
    "apsp": {"matrix": np.int32, "vertex_ids": np.int64},
    "ch": {
        "rank": np.int64,
        "up_indptr": np.int64,
        "up_indices": np.int64,
        "up_costs": np.float64,
        "meta": np.int64,
    },
}

MANIFEST_NAME = "manifest.json"


class ArtifactStore:
    """Content-addressed cache of preprocessed distance-backend state."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------- addressing

    def entry_dir(self, content_hash: str) -> Path:
        """Directory holding every artifact of one network."""
        if len(content_hash) < 3:
            raise ArtifactError(f"malformed content hash {content_hash!r}")
        return self.root / content_hash[:2] / content_hash[2:]

    def artifact_path(self, content_hash: str, backend: str) -> Path:
        check_backend_name(backend)
        return self.entry_dir(content_hash) / f"{backend}.npz"

    def manifest_path(self, content_hash: str) -> Path:
        return self.entry_dir(content_hash) / MANIFEST_NAME

    def has(self, content_hash: str, backend: str) -> bool:
        """Whether a (possibly invalid) artifact exists for this key."""
        return self.artifact_path(content_hash, backend).exists()

    def entries(self) -> list[dict[str, Any]]:
        """Manifests of every entry in the store (for ``repro preprocess``)."""
        if not self.root.exists():
            return []
        manifests = []
        for path in sorted(self.root.glob(f"*/*/{MANIFEST_NAME}")):
            try:
                manifests.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, json.JSONDecodeError):
                continue
        return manifests

    # ------------------------------------------------------------------- save

    def save_backend(
        self,
        network: RoadNetwork,
        backend: "DistanceBackend",
        content_hash: str | None = None,
    ) -> Path:
        """Persist a built backend's state; returns the artifact path."""
        check_backend_name(backend.name)
        if content_hash is None:
            content_hash = network_content_hash(network)
        entry = self.entry_dir(content_hash)
        entry.mkdir(parents=True, exist_ok=True)
        path = entry / f"{backend.name}.npz"

        if backend.name == "apsp":
            arrays = {
                "matrix": backend.matrix,
                "vertex_ids": network.csr.vertex_ids,
            }
        else:  # ch
            hierarchy: ContractionHierarchy = backend.hierarchy
            arrays = {
                "rank": np.asarray(hierarchy.rank, dtype=np.int64),
                "up_indptr": np.asarray(hierarchy.up_indptr, dtype=np.int64),
                "up_indices": np.asarray(hierarchy.up_indices, dtype=np.int64),
                "up_costs": np.asarray(hierarchy.up_costs, dtype=np.float64),
                "meta": np.array(
                    [hierarchy.num_vertices, hierarchy.num_shortcuts], dtype=np.int64
                ),
            }
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

        self._update_manifest(entry, content_hash, network, backend)
        return path

    def _update_manifest(
        self,
        entry: Path,
        content_hash: str,
        network: RoadNetwork,
        backend: "DistanceBackend",
    ) -> None:
        manifest_file = entry / MANIFEST_NAME
        manifest: dict[str, Any] = {}
        if manifest_file.exists():
            try:
                manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                manifest = {}
        manifest.update(
            {
                "format_version": FORMAT_VERSION,
                "content_hash": content_hash,
                "network": {
                    "name": network.name,
                    "num_vertices": network.num_vertices,
                    "num_edges": network.num_edges,
                },
            }
        )
        backends = manifest.setdefault("backends", {})
        backends[backend.name] = {
            "file": f"{backend.name}.npz",
            "build_seconds": backend.build_seconds,
        }
        manifest_file.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    # ------------------------------------------------------------------- load

    def load_backend(
        self,
        name: str,
        network: RoadNetwork,
        host: "DistanceOracle | None" = None,
        content_hash: str | None = None,
    ) -> "DistanceBackend | None":
        """Load a cached backend for ``network``.

        Returns ``None`` when no artifact exists for the key; raises
        :class:`ArtifactError` when one exists but is invalid (version or
        hash mismatch, missing arrays, shape inconsistencies).
        """
        from repro.network.backends import APSPBackend, CHBackend

        check_backend_name(name)
        if content_hash is None:
            content_hash = network_content_hash(network)
        path = self.artifact_path(content_hash, name)
        if not path.exists():
            return None
        manifest = self._validated_manifest(content_hash, name)

        try:
            with np.load(path) as archive:
                arrays = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, KeyError) as error:
            raise ArtifactError(f"cannot read artifact {path}: {error}") from error

        for key, dtype in _ARRAY_DTYPES[name].items():
            if key not in arrays:
                raise ArtifactError(f"{path}: missing array {key!r}")
            if arrays[key].dtype != dtype:
                raise ArtifactError(
                    f"{path}: array {key!r} is {arrays[key].dtype}, expected {np.dtype(dtype)}"
                )
        csr = network.csr
        n = csr.num_vertices
        if name == "apsp":
            matrix = arrays["matrix"]
            if matrix.shape != (n, n) or not np.array_equal(arrays["vertex_ids"], csr.vertex_ids):
                raise ArtifactError(
                    f"{path}: artifact does not match the network "
                    f"(matrix {matrix.shape}, expected {(n, n)})"
                )
            if n and (matrix.min() < 0 or matrix.max() > UNREACHABLE_TICKS):
                raise ArtifactError(
                    f"{path}: array 'matrix' has cells outside 0..{UNREACHABLE_TICKS} ticks"
                )
            if np.diagonal(matrix).any():
                raise ArtifactError(f"{path}: array 'matrix' has a nonzero diagonal")
            return APSPBackend(network, matrix=matrix)
        meta = arrays["meta"]
        if int(meta[0]) != n or arrays["rank"].size != n:
            raise ArtifactError(
                f"{path}: hierarchy built for {int(meta[0])} vertices, "
                f"network has {n}"
            )
        hierarchy = ContractionHierarchy(
            num_vertices=n,
            # the builder produces plain lists; restore the same types
            # so queries execute identical code paths
            rank=arrays["rank"].tolist(),
            up_indptr=arrays["up_indptr"].tolist(),
            up_indices=arrays["up_indices"].tolist(),
            up_costs=arrays["up_costs"].tolist(),
            num_shortcuts=int(meta[1]),
            build_seconds=float(manifest["backends"]["ch"].get("build_seconds", 0.0)),
        )
        return CHBackend(network, host, hierarchy=hierarchy)

    def _validated_manifest(self, content_hash: str, backend: str) -> dict[str, Any]:
        manifest_file = self.manifest_path(content_hash)
        try:
            manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        except FileNotFoundError as error:
            raise ArtifactError(f"artifact manifest missing: {manifest_file}") from error
        except (OSError, json.JSONDecodeError) as error:
            raise ArtifactError(f"unreadable manifest {manifest_file}: {error}") from error
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise ArtifactError(
                f"{manifest_file}: format version {version!r}, expected {FORMAT_VERSION}"
            )
        if manifest.get("content_hash") != content_hash:
            raise ArtifactError(
                f"{manifest_file}: content hash mismatch "
                f"({manifest.get('content_hash')!r} != {content_hash!r})"
            )
        if backend not in manifest.get("backends", {}):
            raise ArtifactError(f"{manifest_file}: no record of backend {backend!r}")
        return manifest

    # ---------------------------------------------------------- orchestration

    def load_or_build(
        self,
        name: str,
        network: RoadNetwork,
        host: "DistanceOracle | None" = None,
        content_hash: str | None = None,
        build: "Callable[[], DistanceBackend] | None" = None,
    ) -> "tuple[DistanceBackend, bool]":
        """Serve ``name`` from the store, building (and saving) on miss.

        ``build`` replaces the from-scratch ``make_backend`` on a miss — the
        oracle passes its in-place repair after a live network update.

        Returns ``(backend, loaded_from_store)``. Invalid cache entries are
        rebuilt and overwritten rather than propagated.
        """
        from repro.network.backends import make_backend

        check_backend_name(name)
        if content_hash is None:
            content_hash = network_content_hash(network)
        try:
            cached = self.load_backend(name, network, host, content_hash=content_hash)
        except ArtifactError:
            cached = None
        if cached is not None:
            return cached, True
        built = build() if build is not None else make_backend(name, network, host)
        self.save_backend(network, built, content_hash=content_hash)
        return built, False


__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "ArtifactStore",
]
