"""The distance oracle shared by every algorithm in the reproduction.

The paper (Section 4.2) assumes that a shortest-distance query takes O(1) time,
backed by a hub-label index plus an LRU cache; all compared algorithms share
the same oracle so that effectiveness/efficiency comparisons are fair. The
:class:`DistanceOracle` mirrors that setup, with the dense APSP matrix (up to
:data:`~repro.network.backends.APSP_VERTEX_LIMIT` vertices) and a contraction
hierarchy (above it) standing in for the paper's index:

* **exact distances** come from a pluggable
  :class:`~repro.network.backends.DistanceBackend` — the dense APSP matrix
  or a contraction hierarchy (``backend="auto"`` picks by network size);
* **exact paths** (vertex sequences) are needed by the simulator to move
  workers along their planned routes; they sit behind an LRU cache;
* **admissible lower bounds** (Euclidean distance divided by the maximum
  network speed) power the decision phase of ``pruneGreedyDP`` (Lemma 7)
  without spending exact queries.

Besides the scalar queries, the oracle exposes **batched APIs** —
:meth:`DistanceOracle.distances_many`, :meth:`DistanceOracle.distance_pairs`
and :meth:`DistanceOracle.euclidean_lower_bounds` — that answer a whole
candidate set in one pass: a fancy-indexing gather on the APSP matrix or a
bucket sweep on the contraction hierarchy. The batched calls return exactly
the values (and bump exactly the ``distance_queries`` counters) of the
equivalent scalar loops.

The path LRU is keyed by the direction asked: a cached ``u -> v`` path
answers ``u -> v`` only. The reverse of a shortest path is a shortest path,
but on equal-cost ties it need not be the one a ``v -> u`` search picks, and
a worker's position must not depend on which direction some earlier caller
asked first (a cluster replica and its front door keep separate caches).
Distances need no cache: both backends answer them from their precomputed
structure.

The oracle also counts exact queries. The paper reports "tens of billions of
shortest distance queries saved" by the pruning strategy of Lemma 8; our
benchmarks report the same counter deltas, alongside per-backend query/settle
counters and the cache hit/miss/eviction statistics surfaced through
:meth:`OracleCounters.snapshot`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.artifacts import ArtifactStore, network_content_hash
from repro.exceptions import ConfigurationError
from repro.network.backends import (
    APSPBackend,
    DistanceBackend,
    check_backend_name,
    make_backend,
    select_backend_name,
)
from repro.network.cache import LRUCache
from repro.network.graph import RoadNetwork, Vertex

#: capacity of the path LRU.
PATH_CACHE_SIZE = 20_000


@dataclass
class OracleCounters:
    """Counters describing how the oracle has been used.

    When the counters belong to a live oracle, the path LRU is attached so
    :meth:`snapshot` can surface its hit/miss/eviction statistics next to
    the query counts, and ``backend`` names the attached distance backend.
    """

    distance_queries: int = 0
    path_queries: int = 0
    lower_bound_queries: int = 0
    dijkstra_runs: int = 0
    #: per-backend distance queries answered (backend name -> count).
    backend_queries: dict[str, int] = field(default_factory=dict)
    #: per-backend vertices settled by internal searches (search effort).
    backend_settled: dict[str, int] = field(default_factory=dict)
    backend: str = ""
    path_cache: "LRUCache | None" = field(default=None, repr=False, compare=False)

    def record_backend(self, name: str, queries: int = 0, settled: int = 0) -> None:
        """Attribute ``queries`` answered / ``settled`` vertices to a backend."""
        if queries:
            self.backend_queries[name] = self.backend_queries.get(name, 0) + queries
        if settled:
            self.backend_settled[name] = self.backend_settled.get(name, 0) + settled

    @classmethod
    def merge(cls, counters: "Iterable[OracleCounters]") -> "OracleCounters":
        """Sum many counter snapshots into one fleet-wide total.

        Used to aggregate the per-shard counters of the sharded dispatcher:
        every shard's query counts are *added* instead of the last shard
        overwriting shared report keys. The cache reference is not carried
        over — per-shard counters share one oracle, so attaching the cache
        here would double-count its statistics.
        """
        total = cls()
        for item in counters:
            total.distance_queries += item.distance_queries
            total.path_queries += item.path_queries
            total.lower_bound_queries += item.lower_bound_queries
            total.dijkstra_runs += item.dijkstra_runs
            for name, value in item.backend_queries.items():
                total.backend_queries[name] = total.backend_queries.get(name, 0) + value
            for name, value in item.backend_settled.items():
                total.backend_settled[name] = total.backend_settled.get(name, 0) + value
        return total

    def snapshot(self) -> dict[str, int | float]:
        """Return the counters (and the attached path cache's statistics) as a dict."""
        snapshot: dict[str, int | float] = {
            "distance_queries": self.distance_queries,
            "path_queries": self.path_queries,
            "lower_bound_queries": self.lower_bound_queries,
            "dijkstra_runs": self.dijkstra_runs,
        }
        for name, value in sorted(self.backend_queries.items()):
            snapshot[f"backend_{name}_queries"] = value
        for name, value in sorted(self.backend_settled.items()):
            snapshot[f"backend_{name}_settled"] = value
        if self.path_cache is not None:
            statistics = self.path_cache.statistics
            snapshot["path_cache_hits"] = statistics.hits
            snapshot["path_cache_misses"] = statistics.misses
            snapshot["path_cache_evictions"] = statistics.evictions
            snapshot["path_cache_hit_rate"] = statistics.hit_rate
        return snapshot


class DistanceOracle:
    """Exact shortest distances, shortest paths and admissible lower bounds.

    Args:
        network: the road network to answer queries on.
        backend: distance backend name — one of
            :data:`~repro.network.backends.BACKEND_NAMES` or ``"auto"`` (pick
            by network size; ``"ch"`` for a small network whose distances
            the ``"apsp"`` table's int32 ticks cannot hold). All backends
            answer bit-identical shortest distances and differ only in build
            cost and query speed — see
            the "Exactness" note in :mod:`repro.network.backends`.
        artifact_dir: optional root of a content-addressed
            :class:`~repro.artifacts.ArtifactStore`. Precomputable backends
            are then served from disk when a cached build for this exact
            network exists (bit-identical to a fresh build) and persisted
            after a fresh build otherwise.
    """

    def __init__(
        self,
        network: RoadNetwork,
        backend: str = "auto",
        artifact_dir: str | Path | None = None,
    ) -> None:
        self.network = network
        self._path_cache: LRUCache[tuple[Vertex, Vertex], tuple[Vertex, ...]] = LRUCache(
            PATH_CACHE_SIZE
        )
        self.artifact_store: ArtifactStore | None = (
            ArtifactStore(artifact_dir) if artifact_dir is not None else None
        )
        #: canonical CSR content hash — the artifact-store key (None without a store)
        self.content_hash: str | None = (
            network_content_hash(network) if self.artifact_store is not None else None
        )
        auto = backend == "auto"
        if auto:
            backend = select_backend_name(network.csr.num_vertices)
        else:
            check_backend_name(backend)  # before the store sees the name
        # snapshot used to index the precomputed backends (their row/position
        # order is frozen at build time); geometric queries read the live
        # network.csr and max_speed instead, so Euclidean lower bounds track
        # vertex/edge additions (note the precomputed accelerators themselves
        # are still construction-time snapshots)
        self._csr = network.csr
        self.counters = OracleCounters(path_cache=self._path_cache)
        try:
            #: whether the backend state came from the artifact store
            self._backend, self.artifact_loaded = self._open_backend(backend)
        except ConfigurationError:
            if not (auto and backend == "apsp"):
                raise
            # distances beyond the int32 table's range: the hierarchy has no limit
            self._backend, self.artifact_loaded = self._open_backend("ch")
        self.counters.backend = self._backend.name

    def _open_backend(self, name: str) -> tuple[DistanceBackend, bool]:
        """The named backend, from the artifact store when one holds it."""
        if self.artifact_store is not None:
            return self.artifact_store.load_or_build(
                name, self.network, self, content_hash=self.content_hash
            )
        return make_backend(name, self.network, self), False

    # ----------------------------------------------------------------- exact

    def distance(self, u: Vertex, v: Vertex) -> float:
        """Exact shortest travel time (seconds) between vertices ``u`` and ``v``.

        Counted as one shortest-distance query regardless of cache hits, which
        mirrors how the paper counts algorithm-issued queries.
        """
        self.counters.distance_queries += 1
        self.counters.record_backend(self._backend.name, queries=1)
        return self._distance_uncounted(u, v)

    def _distance_uncounted(self, u: Vertex, v: Vertex) -> float:
        """The :meth:`distance` core without counter bookkeeping."""
        if u == v:
            return 0.0
        return self._backend.distance(u, v)

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        """Exact distances from ``source`` to every vertex in ``targets``.

        Semantically identical to ``[distance(source, t) for t in targets]``
        — same values, same counter increments — but answered in one batched
        backend pass (matrix gather or bucket sweep).
        """
        count = len(targets)
        self.counters.distance_queries += count
        if count == 0:
            return np.empty(0, dtype=np.float64)
        self.counters.record_backend(self._backend.name, queries=count)
        return self._backend.distances_many(source, targets)

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        """Exact distances between elementwise pairs ``(us[k], vs[k])``.

        Semantically identical to ``[distance(u, v) for u, v in zip(us, vs)]``
        (values and counters); one batched backend pass.
        """
        count = len(us)
        if count != len(vs):
            raise ValueError(f"pair arrays differ in length: {count} != {len(vs)}")
        self.counters.distance_queries += count
        if count == 0:
            return np.empty(0, dtype=np.float64)
        self.counters.record_backend(self._backend.name, queries=count)
        return self._backend.distance_pairs(us, vs)

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[Sequence[float], Sequence[float]]:
        """Exact distances from every vertex to two shared endpoints.

        Semantically identical (values and counters) to the scalar pair
        ``[distance(v, origin) for v], [distance(v, destination) for v]`` —
        one backend pass serves both endpoints; this is the grouped call
        behind the linear DP's read-ahead of endpoint distances (Lemma 9).

        The answer comes in the kind of sequence it was asked in: a numpy
        array of vertices (the block kernel's gather) gets two float64
        arrays, any other sequence (the scalar walk's list) two lists of
        plain floats.
        """
        count = len(vertices)
        self.counters.distance_queries += 2 * count
        if count == 0:
            if isinstance(vertices, np.ndarray):
                empty = np.empty(0, dtype=np.float64)
                return empty, empty
            return [], []
        self.counters.record_backend(self._backend.name, queries=2 * count)
        return self._backend.endpoint_distances(vertices, origin, destination)

    def path(self, u: Vertex, v: Vertex) -> list[Vertex]:
        """Exact shortest path (vertex sequence) from ``u`` to ``v``.

        Paths are cached under the ``(u, v)`` key asked: the opposite
        direction is its own search (see the module docstring). A miss asks
        the backend (:meth:`~repro.network.backends.DistanceBackend.path`), and
        every backend answers the path one bidirectional Dijkstra picks: on
        equal-cost ties that pick decides where workers stand. The ``"ch"``
        backend runs that search; the ``"apsp"`` backend rebuilds its path
        from two table rows without one. A miss counts as one
        ``dijkstra_runs`` whatever the backend, so the counters do not depend
        on it.
        """
        self.counters.path_queries += 1
        if u == v:
            return [u]
        cached = self._path_cache.get((u, v))
        if cached is not None:
            return list(cached)
        _cost, path = self._backend.path(u, v)
        self.counters.dijkstra_runs += 1
        self._path_cache.put((u, v), tuple(path))
        return path

    # ---------------------------------------------------------- lower bounds

    def lower_bound(self, u: Vertex, v: Vertex) -> float:
        """Admissible lower bound on the travel time between ``u`` and ``v``.

        Uses the Euclidean distance divided by the maximum network speed —
        never larger than the true shortest travel time because no edge is
        shorter than the straight line between its endpoints nor faster than
        the maximum speed.

        Lower-bound queries are counted separately and deliberately **not** as
        exact distance queries (Section 5.1 stresses that the decision phase
        needs only a single exact query per request). The counter records the
        probes actually issued, so the scalar decision walk (which re-probes
        ``j+1`` neighbours and early-exits) and the batched one (which probes
        each stop/endpoint pair exactly once) report different — equally
        honest — ``lower_bound_queries`` totals for identical outcomes;
        ``distance_queries``/``dijkstra_runs`` are implementation-invariant.
        """
        self.counters.lower_bound_queries += 1
        if u == v:
            return 0.0
        return self._euclidean_seconds(u, v)

    def _euclidean_seconds(self, u: Vertex, v: Vertex) -> float:
        """Euclidean travel-time bound, elementwise-identical to the batch API.

        Deliberately ``sqrt(dx*dx + dy*dy)`` — the same IEEE operations the
        vectorized :meth:`euclidean_lower_bounds` performs — so scalar and
        batched bounds are bit-for-bit equal (the equivalence property tests
        assert exact equality, not approximation).
        """
        a = self.network.coordinates(u)
        b = self.network.coordinates(v)
        dx = a.x - b.x
        dy = a.y - b.y
        return math.sqrt(dx * dx + dy * dy) / self.network.max_speed

    def euclidean_lower_bounds(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[np.ndarray, np.ndarray]:
        """Admissible lower bounds from many vertices to two endpoints.

        Returns ``(to_origin, to_destination)`` float64 arrays holding, for
        every vertex in ``vertices``, exactly the value
        ``lower_bound(vertex, origin)`` / ``lower_bound(vertex, destination)``
        — one vectorized pass over the CSR coordinate arrays instead of
        ``2 n`` scalar calls.
        The counter advances by ``2 n``, matching the scalar loop.
        """
        csr = self.network.csr
        positions = csr.positions_of(vertices)
        n = positions.size
        self.counters.lower_bound_queries += 2 * n
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        px, py = csr.xs[positions], csr.ys[positions]
        return (
            self._bounds_to_endpoint(csr, px, py, origin),
            self._bounds_to_endpoint(csr, px, py, destination),
        )

    def euclidean_lower_bounds_to(
        self, vertices: Sequence[Vertex], target: Vertex
    ) -> np.ndarray:
        """Single-endpoint variant of :meth:`euclidean_lower_bounds`."""
        csr = self.network.csr
        positions = csr.positions_of(vertices)
        self.counters.lower_bound_queries += positions.size
        if positions.size == 0:
            return np.empty(0, dtype=np.float64)
        px, py = csr.xs[positions], csr.ys[positions]
        return self._bounds_to_endpoint(csr, px, py, target)

    def _bounds_to_endpoint(
        self, csr, px: np.ndarray, py: np.ndarray, endpoint: Vertex
    ) -> np.ndarray:
        endpoint_position = csr.position_of(endpoint)
        dx = px - csr.xs[endpoint_position]
        dy = py - csr.ys[endpoint_position]
        return np.sqrt(dx * dx + dy * dy) / self.network.max_speed

    # ------------------------------------------------------------- management

    @property
    def backend(self) -> DistanceBackend:
        """The attached distance backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the attached distance backend."""
        return self._backend.name

    def cache_statistics(self) -> dict[str, float]:
        """Hit rate and size of the path cache."""
        return {
            "path_cache_size": float(len(self._path_cache)),
            "path_cache_hit_rate": self._path_cache.statistics.hit_rate,
        }

    def clear_path_cache(self) -> None:
        """Drop every cached path, so the next run starts cold (its
        ``dijkstra_runs`` and hit rate do not depend on earlier runs)."""
        self._path_cache.clear()

    def reset_counters(self) -> None:
        """Zero the oracle counters and cache statistics (the cache keeps its
        contents), so every simulation run reports per-run numbers."""
        self.counters = OracleCounters(path_cache=self._path_cache, backend=self._backend.name)
        self._path_cache.reset_statistics()

    def refresh_topology(self) -> None:
        """Bring the distance backend up to date after a road-network mutation.

        Street closures/reopenings (``RoadNetwork.remove_edge`` /
        ``add_edge``) invalidate precomputed distances. What the update costs
        depends on the backend (the backend kind never changes):

        * ``apsp`` — the table is **repaired in place**
          (:meth:`~repro.network.backends.APSPBackend.refresh`): only the
          cells a closed or reopened street can change are re-settled,
          bit-identical to a fresh build and typically milliseconds. A delta
          the repair does not cover (vertex set changed, a batch that both
          removes and adds edges, a zero-cost edge) takes the full build.
        * ``ch`` — full rebuild against the new topology.

        With an artifact store attached, the content hash is recomputed and
        the *new* topology's key is looked up first (a close/reopen
        round-trip loads the original table back); on a miss the backend is
        repaired or rebuilt as above and then persisted under the new key.

        The CSR snapshot is re-taken and the path cache is dropped. Query
        counters keep accumulating across the refresh — a mid-run closure
        should not zero the run's reported query counts.
        """
        network = self.network
        self._csr = network.csr  # lazy property: rebuilds for the new topology
        previous = self._backend

        def rebuild() -> DistanceBackend:
            if isinstance(previous, APSPBackend):
                previous.refresh(network)
                return previous
            return make_backend(previous.name, network, self)

        if self.artifact_store is not None:
            self.content_hash = network_content_hash(network)
            self._backend, self.artifact_loaded = self.artifact_store.load_or_build(
                previous.name, network, self, content_hash=self.content_hash, build=rebuild
            )
        else:
            self._backend = rebuild()
            self.artifact_loaded = False
        self.clear_path_cache()
        self.counters.backend = self._backend.name
