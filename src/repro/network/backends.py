"""Pluggable distance backends behind the :class:`~repro.network.oracle.DistanceOracle`.

The oracle used to hard-wire three acceleration shapes (dense APSP, dict hub
labels, cached per-pair Dijkstra). This module makes the choice a value: a
:class:`DistanceBackend` answers exact point-to-point and batched
many-to-many distance queries, the oracle owns counting/caching policy, and
:func:`select_backend_name` picks a backend from the network size and the
expected query volume.

Backends (all **value-exact**: the same floats, hence the same simulation
outcomes — the property tests and ``benchmarks/bench_oracle.py`` assert it):

* ``"apsp"``       — dense all-pairs matrix; O(1) lookups, O(N^2) memory and
  N Dijkstras to build. The fastest choice up to a few thousand vertices.
* ``"ch"``         — contraction hierarchy (:mod:`repro.network.ch`);
  near-linear build, tiny upward searches per query, bucket-based
  many-to-many batches. The sweet spot for city-scale networks where the
  dense matrix stops fitting.
* ``"hub_labels"`` — array-native pruned 2-hop labels
  (:mod:`repro.network.hub_labeling`); higher build cost than CH but flat
  merge-join queries, the O(1)-query regime the paper assumes.
* ``"dijkstra"``   — no preprocessing: cached bidirectional point-to-point
  searches, and batches answered by **one truncated single-source Dijkstra**
  that stops when every (deduplicated, cache-missing) target is settled.

Only the Dijkstra backend uses the oracle's distance LRU; the precomputed
backends bypass it, which the cache statistics report honestly as
``"bypassed (<backend>)"`` instead of a misleading 0.0 hit rate.

**Live network updates** (:meth:`DistanceOracle.refresh_topology
<repro.network.oracle.DistanceOracle.refresh_topology>` after a street
closure or reopening) cost, per backend:

* ``"apsp"``       — **delta repair** (:meth:`APSPBackend.refresh`,
  :mod:`repro.network.apsp_repair`): the table is fixed in place, touching
  only the cells the changed edges can affect, bit-identical to a fresh
  build; deltas the repair does not cover fall back to the full build.
* ``"ch"`` / ``"hub_labels"`` — full rebuild (their indexes have no
  incremental form here).
* ``"dijkstra"``   — nothing to rebuild; the oracle drops its caches.
"""

from __future__ import annotations

import mmap
import time
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.exceptions import DisconnectedError
from repro.network.apsp_repair import repair_apsp
from repro.network.ch import ContractionHierarchy, build_contraction_hierarchy
from repro.network.graph import RoadNetwork, Vertex
from repro.network.hub_labeling import HubLabels, build_hub_labels
from repro.network.shortest_path import (
    bidirectional_dijkstra,
    bidirectional_dijkstra_reference,
    single_source_distances_array,
    truncated_multi_target_distances,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.oracle import DistanceOracle

#: canonical backend names, in auto-selection preference order.
BACKEND_NAMES = ("apsp", "ch", "hub_labels", "dijkstra")

#: largest vertex count for which the dense all-pairs matrix is the default.
APSP_VERTEX_LIMIT = 2_000

#: largest vertex count for which the contraction hierarchy is the default
#: (beyond it the flat 2-hop labels win on query time).
CH_VERTEX_LIMIT = 50_000

#: below ``num_vertices / QUERY_VOLUME_DIVISOR`` expected queries, building
#: any index costs more than answering every query from scratch.
QUERY_VOLUME_DIVISOR = 50


def select_backend_name(
    num_vertices: int, query_volume_hint: int | None = None
) -> str:
    """The backend the ``"auto"`` policy picks for a network.

    Args:
        num_vertices: vertex count of the (shard-local or global) network.
        query_volume_hint: expected number of exact distance queries; when
            the workload is too small to amortise any preprocessing, the
            plain Dijkstra backend wins.
    """
    if (
        query_volume_hint is not None
        and query_volume_hint < max(1, num_vertices // QUERY_VOLUME_DIVISOR)
    ):
        return "dijkstra"
    if num_vertices <= APSP_VERTEX_LIMIT:
        return "apsp"
    if num_vertices <= CH_VERTEX_LIMIT:
        return "ch"
    return "hub_labels"


@runtime_checkable
class DistanceBackend(Protocol):
    """Exact shortest-distance queries over one road network.

    All methods answer in seconds of travel time; ``inf`` (or
    :class:`~repro.exceptions.DisconnectedError` for the Dijkstra backend,
    matching the seed behaviour) marks disconnected pairs. Implementations
    must be value-exact: every float equals what the reference Dijkstra
    machinery computes for the same pair.
    """

    name: str
    #: whether the oracle's distance LRU sits in front of this backend
    #: (only the on-the-fly Dijkstra benefits; precomputed indexes bypass it).
    uses_distance_cache: bool
    build_seconds: float

    def distance(self, u: Vertex, v: Vertex) -> float:
        """Exact distance between two vertices."""
        ...

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        """Exact distances from ``source`` to every target, batched."""
        ...

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        """Exact distances between elementwise pairs, batched."""
        ...

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact distances from every vertex to two shared endpoints."""
        ...

    def stats(self) -> dict[str, float]:
        """Build/search statistics for benchmarks and reports."""
        ...


class APSPBackend:
    """Dense all-pairs matrix: one Dijkstra per row at build, O(1) lookups.

    A matrix handed in (the artifact store does) is adopted, not copied;
    :meth:`refresh` then repairs it in place.
    """

    name = "apsp"
    uses_distance_cache = False

    def __init__(self, network: RoadNetwork, matrix: np.ndarray | None = None) -> None:
        started = time.perf_counter()
        csr = network.csr
        self._csr = csr
        self.matrix = matrix if matrix is not None else self._build_matrix(network)
        self.vertex_index = csr.position
        self.build_seconds = time.perf_counter() - started
        self.repairs = 0
        self.full_rebuilds = 0
        self.repaired_rows = 0
        self.repaired_cells = 0
        self.repair_seconds = 0.0

    @staticmethod
    def _build_matrix(network: RoadNetwork) -> np.ndarray:
        csr = network.csr
        n = csr.num_vertices
        # the table gets its own private anonymous mapping, not a chunk of the
        # allocator's heap: dropping a backend unmaps it at once, so a freed
        # table never leaves a table-sized hole that the next cold build
        # fails to reuse (peak memory stays one table per live backend);
        # private keeps forked shard workers copy-on-write, as heap memory is
        flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
        buffer = mmap.mmap(-1, max(n * n, 1) * 8, **flags)
        matrix = np.frombuffer(buffer, dtype=np.float64, count=n * n).reshape(n, n)
        vertex_ids = csr.vertex_ids_list
        for row in range(n):
            matrix[row] = single_source_distances_array(network, vertex_ids[row])
        return matrix

    def refresh(self, network: RoadNetwork) -> None:
        """Re-derive the table for ``network``'s current topology.

        Edge removals or additions over an unchanged vertex set are repaired
        in place (:func:`~repro.network.apsp_repair.repair_apsp`,
        bit-identical to a fresh build); any other delta takes the full
        build the constructor runs.
        """
        started = time.perf_counter()
        csr = network.csr
        if not self.matrix.flags.writeable:
            self.matrix = self.matrix.copy()
        repaired = repair_apsp(self.matrix, self._csr, csr)
        if repaired is None:
            self.matrix = self._build_matrix(network)
            self.full_rebuilds += 1
        else:
            rows, cells = repaired
            self.repairs += 1
            self.repaired_rows += rows
            self.repaired_cells += cells
            self.repair_seconds = time.perf_counter() - started
        self._csr = csr
        self.vertex_index = csr.position

    def distance(self, u: Vertex, v: Vertex) -> float:
        return float(self.matrix[self.vertex_index[u], self.vertex_index[v]])

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        row = self.matrix[self.vertex_index[source]]
        return row[self._csr.positions_of(targets)]

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        return self.matrix[self._csr.positions_of(us), self._csr.positions_of(vs)]

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[np.ndarray, np.ndarray]:
        positions = self._csr.positions_of(vertices)
        index = self.vertex_index
        return (
            self.matrix[positions, index[origin]],
            self.matrix[positions, index[destination]],
        )

    def stats(self) -> dict[str, float]:
        return {
            "vertices": float(self.matrix.shape[0]),
            "matrix_bytes": float(self.matrix.nbytes),
            "build_seconds": self.build_seconds,
            "repairs": float(self.repairs),
            "full_rebuilds": float(self.full_rebuilds),
            "repaired_rows": float(self.repaired_rows),
            "repaired_cells": float(self.repaired_cells),
            "repair_seconds": self.repair_seconds,
        }


class CHBackend:
    """Contraction hierarchy: upward searches + bucket-based many-to-many."""

    name = "ch"
    uses_distance_cache = False

    def __init__(
        self,
        network: RoadNetwork,
        host: "DistanceOracle | None" = None,
        hierarchy: ContractionHierarchy | None = None,
    ) -> None:
        self._csr = network.csr
        self._host = host
        self.hierarchy = hierarchy if hierarchy is not None else build_contraction_hierarchy(network)
        self.build_seconds = self.hierarchy.build_seconds

    def _record_settled(self, before: int) -> None:
        if self._host is not None:
            self._host.counters.record_backend(
                self.name, settled=self.hierarchy.settled - before
            )

    def distance(self, u: Vertex, v: Vertex) -> float:
        position = self._csr.position
        before = self.hierarchy.settled
        result = self.hierarchy.query_positions(position[u], position[v])
        self._record_settled(before)
        return result

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        before = self.hierarchy.settled
        result = self.hierarchy.distances_many_positions(
            self._csr.position_of(source), self._csr.positions_of(targets)
        )
        self._record_settled(before)
        return result

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        count = len(us)
        position = self._csr.position
        query = self.hierarchy.query_positions
        before = self.hierarchy.settled
        result = np.fromiter(
            (query(position[u], position[v]) for u, v in zip(us, vs)),
            dtype=np.float64,
            count=count,
        )
        self._record_settled(before)
        return result

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[np.ndarray, np.ndarray]:
        # one bucket sweep per endpoint; the vertices' search spaces are
        # shared between the two sweeps through the hierarchy's memo
        return (
            self.distances_many(origin, vertices),
            self.distances_many(destination, vertices),
        )

    def stats(self) -> dict[str, float]:
        return self.hierarchy.stats()


class HubLabelBackend:
    """Array-native pruned 2-hop labels: merge-join scalar, vectorized batch."""

    name = "hub_labels"
    uses_distance_cache = False

    def __init__(self, network: RoadNetwork, labels: HubLabels | None = None) -> None:
        started = time.perf_counter()
        self._csr = network.csr
        self.labels = labels if labels is not None else build_hub_labels(network)
        self.build_seconds = time.perf_counter() - started

    def distance(self, u: Vertex, v: Vertex) -> float:
        return self.labels.query(u, v)

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        return self.labels.query_many(source, self._csr.positions_of(targets))

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        count = len(us)
        query = self.labels.query
        return np.fromiter(
            (query(u, v) for u, v in zip(us, vs)), dtype=np.float64, count=count
        )

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[np.ndarray, np.ndarray]:
        positions = self._csr.positions_of(vertices)
        return (
            self.labels.query_many(origin, positions),
            self.labels.query_many(destination, positions),
        )

    def stats(self) -> dict[str, float]:
        return {
            "vertices": float(self.labels.indptr.size - 1),
            "label_entries": float(self.labels.total_label_entries),
            "average_label_size": self.labels.average_label_size,
            "build_seconds": self.build_seconds,
        }


class DijkstraBackend:
    """No preprocessing: cached point-to-point searches + truncated batches.

    The backend shares the host oracle's symmetric-key distance LRU and its
    counters, preserving the seed semantics exactly for scalar queries
    (consult cache, bidirectional Dijkstra on miss, seed the path cache).
    Batches consult the cache per unique pair, answer all remaining targets
    with **one** truncated single-source Dijkstra, and write every result
    back under its symmetric key — so the scalar loop over the same pairs
    returns the very same floats afterwards.
    """

    name = "dijkstra"
    uses_distance_cache = True

    def __init__(self, network: RoadNetwork, host: "DistanceOracle") -> None:
        self.network = network
        self._host = host
        self.build_seconds = 0.0
        self.sssp_runs = 0

    # ------------------------------------------------------------- internals

    def _p2p(self, u: Vertex, v: Vertex) -> float:
        """Cached point-to-point search under the symmetric ``(min, max)`` key."""
        host = self._host
        key = (u, v) if u <= v else (v, u)
        cached = host._distance_cache.get(key)
        if cached is not None:
            return cached
        return self._p2p_compute(key)

    def _p2p_compute(self, key: tuple[Vertex, Vertex]) -> float:
        """Uncached point-to-point search; seeds both caches (seed semantics)."""
        host = self._host
        search = (
            bidirectional_dijkstra_reference
            if host.legacy_reference_mode
            else bidirectional_dijkstra
        )
        cost, path = search(self.network, key[0], key[1])
        host.counters.dijkstra_runs += 1
        host._path_cache.put(key, tuple(path))
        host._distance_cache.put(key, cost)
        return cost

    def _batch_from_source(
        self, source: Vertex, targets: list[Vertex], results: np.ndarray, slots: list[list[int]]
    ) -> None:
        """One truncated SSSP answering (and caching) all missing targets."""
        host = self._host
        distances, settled = truncated_multi_target_distances(self.network, source, targets)
        host.counters.dijkstra_runs += 1
        host.counters.record_backend(self.name, settled=settled)
        self.sssp_runs += 1
        cache = host._distance_cache
        for index, target in enumerate(targets):
            value = float(distances[index])
            if value == np.inf:
                raise DisconnectedError(f"no path between {source} and {target}")
            key = (source, target) if source <= target else (target, source)
            cache.put(key, value)
            for slot in slots[index]:
                results[slot] = value

    # --------------------------------------------------------------- queries

    def distance(self, u: Vertex, v: Vertex) -> float:
        return self._p2p(u, v)

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        count = len(targets)
        results = np.empty(count, dtype=np.float64)
        cache = self._host._distance_cache
        missing: dict[Vertex, list[int]] = {}
        for slot, target in enumerate(targets):
            if target == source:
                results[slot] = 0.0
                continue
            key = (source, target) if source <= target else (target, source)
            cached = cache.get(key)
            if cached is not None:
                results[slot] = cached
            else:
                missing.setdefault(target, []).append(slot)
        if missing:
            unique = list(missing)
            self._batch_from_source(source, unique, results, [missing[t] for t in unique])
        return results

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        count = len(us)
        results = np.empty(count, dtype=np.float64)
        cache = self._host._distance_cache
        # dedupe by symmetric key; batch the misses by their most shared
        # endpoint so k pairs around one vertex cost one truncated search
        missing: dict[tuple[Vertex, Vertex], list[int]] = {}
        for slot, (u, v) in enumerate(zip(us, vs)):
            if u == v:
                results[slot] = 0.0
                continue
            key = (u, v) if u <= v else (v, u)
            cached = cache.get(key)
            if cached is not None:
                results[slot] = cached
            else:
                missing.setdefault(key, []).append(slot)
        while missing:
            frequency: dict[Vertex, int] = {}
            for u, v in missing:
                frequency[u] = frequency.get(u, 0) + 1
                frequency[v] = frequency.get(v, 0) + 1
            # deterministic pick: highest share, ties by vertex id
            source = min(frequency, key=lambda vertex: (-frequency[vertex], vertex))
            keys = [key for key in missing if source in key]
            if frequency[source] >= 2:
                targets = [v if u == source else u for u, v in keys]
                slots = [missing.pop(key) for key in keys]
                self._batch_from_source(source, targets, results, slots)
            else:
                # every endpoint is unique: plain point-to-point searches
                # (the cache was already consulted — and missed — above)
                for key, slots in missing.items():
                    value = self._p2p_compute(key)
                    for slot in slots:
                        results[slot] = value
                missing = {}
        return results

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[np.ndarray, np.ndarray]:
        # two truncated sweeps — one per shared endpoint (the network is
        # undirected, so searching *from* the endpoint answers "to" queries)
        return (
            self.distances_many(origin, vertices),
            self.distances_many(destination, vertices),
        )

    def stats(self) -> dict[str, float]:
        return {
            "build_seconds": 0.0,
            "sssp_runs": float(self.sssp_runs),
        }


def make_backend(
    name: str,
    network: RoadNetwork,
    host: "DistanceOracle",
    store: "object | None" = None,
) -> DistanceBackend:
    """Instantiate the named backend over ``network``.

    When an :class:`repro.artifacts.ArtifactStore` is passed and ``name`` has
    persistable state, the backend is served from the store (building and
    saving on a miss) — bit-identical to a fresh build.
    """
    if store is not None and name in ("apsp", "ch", "hub_labels"):
        backend, _loaded = store.load_or_build(name, network, host)
        return backend
    if name == "apsp":
        return APSPBackend(network)
    if name == "ch":
        return CHBackend(network, host)
    if name == "hub_labels":
        return HubLabelBackend(network)
    if name == "dijkstra":
        return DijkstraBackend(network, host)
    raise ValueError(f"unknown distance backend {name!r}; available: {BACKEND_NAMES}")


__all__ = [
    "APSP_VERTEX_LIMIT",
    "BACKEND_NAMES",
    "CH_VERTEX_LIMIT",
    "APSPBackend",
    "CHBackend",
    "DijkstraBackend",
    "DistanceBackend",
    "HubLabelBackend",
    "make_backend",
    "select_backend_name",
    "build_contraction_hierarchy",
]
