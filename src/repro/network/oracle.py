"""The distance oracle shared by every algorithm in the reproduction.

The paper (Section 4.2) assumes that a shortest-distance query takes O(1) time,
backed by a hub-label index plus an LRU cache; all compared algorithms share
the same oracle so that effectiveness/efficiency comparisons are fair. The
:class:`DistanceOracle` mirrors that setup:

* **exact distances** come from a pluggable
  :class:`~repro.network.backends.DistanceBackend` — the dense APSP matrix,
  a contraction hierarchy, array-native hub labels, or cached on-the-fly
  Dijkstra (``backend="auto"`` picks by network size and query volume);
* **exact paths** (vertex sequences) are needed by the simulator to move
  workers along their planned routes; they are cached separately;
* **admissible lower bounds** (Euclidean distance divided by the maximum
  network speed, optionally sharpened by landmark bounds) power the decision
  phase of ``pruneGreedyDP`` (Lemma 7) without spending exact queries.

Besides the scalar queries, the oracle exposes **batched APIs** —
:meth:`DistanceOracle.distances_many`, :meth:`DistanceOracle.distance_pairs`
and :meth:`DistanceOracle.euclidean_lower_bounds` — that answer a whole
candidate set in one pass: a fancy-indexing gather on the APSP matrix, a
bucket sweep on the contraction hierarchy, a vectorized label join on the
hub labels, or one truncated multi-target Dijkstra on the fallback. The
batched calls return exactly the values (and bump exactly the
``distance_queries`` counters) of the equivalent scalar loops.

Because the network is undirected, both LRU caches use symmetric
``(min, max)`` keys — a cached ``u -> v`` path answers the ``v -> u`` query
reversed, doubling the effective cache capacity. Only the Dijkstra backend
consults the distance LRU; the precomputed backends answer directly, which
the cache statistics report as ``"bypassed (<backend>)"`` rather than a
misleading 0.0 hit rate.

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
from repro.artifacts.store import PERSISTABLE_BACKENDS
from repro.exceptions import DisconnectedError
from repro.network.backends import (
    APSPBackend,
    CHBackend,
    DistanceBackend,
    HubLabelBackend,
    make_backend,
    select_backend_name,
)
from repro.network.cache import LRUCache
from repro.network.graph import RoadNetwork, Vertex
from repro.network.hub_labeling import HubLabels
from repro.network.landmarks import LandmarkIndex
from repro.network.shortest_path import (
    bidirectional_dijkstra,
    bidirectional_dijkstra_reference,
)


@dataclass
class OracleCounters:
    """Counters describing how the oracle has been used.

    When the counters belong to a live oracle, the two LRU caches are
    attached so :meth:`snapshot` can surface their hit/miss/eviction
    statistics next to the query counts, and ``backend``/``cache_bypassed``
    describe the attached distance backend so bypassed caches are reported
    honestly instead of as a 0.0 hit rate.
    """

    distance_queries: int = 0
    path_queries: int = 0
    lower_bound_queries: int = 0
    dijkstra_runs: int = 0
    #: per-backend distance queries answered (backend name -> count).
    backend_queries: dict[str, int] = field(default_factory=dict)
    #: per-backend vertices settled by internal searches (search effort).
    backend_settled: dict[str, int] = field(default_factory=dict)
    backend: str = "dijkstra"
    cache_bypassed: bool = False
    distance_cache: "LRUCache | None" = field(default=None, repr=False, compare=False)
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
        overwriting shared report keys. Cache references are not carried
        over — per-shard counters usually share one oracle, so attaching the
        caches here would double-count their statistics.
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

    def snapshot(self) -> dict[str, int | float | str]:
        """Return the counters (and any attached cache statistics) as a dict.

        The distance-cache hit rate of a backend that never consults the LRU
        is reported as ``"bypassed (<backend>)"`` — a 0.0 would misread as
        "the cache never helps" when the cache simply never ran.
        """
        snapshot: dict[str, int | float | str] = {
            "distance_queries": self.distance_queries,
            "path_queries": self.path_queries,
            "lower_bound_queries": self.lower_bound_queries,
            "dijkstra_runs": self.dijkstra_runs,
        }
        for name, value in sorted(self.backend_queries.items()):
            snapshot[f"backend_{name}_queries"] = value
        for name, value in sorted(self.backend_settled.items()):
            snapshot[f"backend_{name}_settled"] = value
        for prefix, cache in (
            ("distance_cache", self.distance_cache),
            ("path_cache", self.path_cache),
        ):
            if cache is None:
                continue
            statistics = cache.statistics
            snapshot[f"{prefix}_hits"] = statistics.hits
            snapshot[f"{prefix}_misses"] = statistics.misses
            snapshot[f"{prefix}_evictions"] = statistics.evictions
            if prefix == "distance_cache" and self.cache_bypassed:
                snapshot[f"{prefix}_hit_rate"] = f"bypassed ({self.backend})"
            else:
                snapshot[f"{prefix}_hit_rate"] = statistics.hit_rate
        return snapshot


class DistanceOracle:
    """Exact shortest distances, shortest paths and admissible lower bounds.

    Args:
        network: the road network to answer queries on.
        use_hub_labels: build a pruned 2-hop labelling up front (equivalent to
            ``backend="hub_labels"``).
        precompute: legacy accelerator spelling — ``None`` (cache + Dijkstra
            only), ``"hub_labels"`` or ``"apsp"``; superseded by ``backend``.
        backend: distance backend name — ``"apsp"``, ``"ch"``,
            ``"hub_labels"``, ``"dijkstra"`` or ``"auto"`` (pick by network
            size / ``query_volume_hint``). All backends are value-exact; they
            differ only in build cost and query speed.
        cache_size: capacity of the distance LRU cache.
        path_cache_size: capacity of the path LRU cache.
        landmark_index: optional :class:`LandmarkIndex` to sharpen lower bounds.
        query_volume_hint: expected number of exact queries, consulted by the
            ``"auto"`` policy (tiny workloads skip preprocessing entirely).
        artifact_dir: optional root of a content-addressed
            :class:`~repro.artifacts.ArtifactStore`. Precomputable backends
            are then served from disk when a cached build for this exact
            network exists (bit-identical to a fresh build) and persisted
            after a fresh build otherwise. With the store attached, the
            ``"auto"`` policy also prefers ``hub_labels`` over ``ch`` when a
            cached labelling already exists — its higher build cost is sunk,
            leaving only its faster queries.
    """

    def __init__(
        self,
        network: RoadNetwork,
        use_hub_labels: bool = False,
        precompute: str | None = None,
        cache_size: int = 200_000,
        path_cache_size: int = 20_000,
        landmark_index: LandmarkIndex | None = None,
        backend: str | None = None,
        query_volume_hint: int | None = None,
        artifact_dir: str | Path | None = None,
    ) -> None:
        self.network = network
        self._distance_cache: LRUCache[tuple[Vertex, Vertex], float] = LRUCache(cache_size)
        self._path_cache: LRUCache[tuple[Vertex, Vertex], tuple[Vertex, ...]] = LRUCache(
            path_cache_size
        )
        if precompute is None and use_hub_labels:
            precompute = "hub_labels"
        if precompute not in (None, "hub_labels", "apsp"):
            raise ValueError(f"unknown precompute mode {precompute!r}")
        if backend is None:
            backend = precompute if precompute is not None else "dijkstra"
        elif precompute is not None and precompute != backend:
            raise ValueError(
                f"conflicting accelerators: precompute={precompute!r} vs backend={backend!r}"
            )
        self.artifact_store: ArtifactStore | None = (
            ArtifactStore(artifact_dir) if artifact_dir is not None else None
        )
        #: canonical CSR content hash — the artifact-store key (None without a store)
        self.content_hash: str | None = (
            network_content_hash(network) if self.artifact_store is not None else None
        )
        if backend == "auto":
            backend = select_backend_name(network.csr.num_vertices, query_volume_hint)
            if (
                backend == "ch"
                and self.artifact_store is not None
                and self.artifact_store.has(self.content_hash, "hub_labels")
            ):
                # the expensive labelling is already on disk: loading it costs
                # about as much as loading the CH but queries are faster
                backend = "hub_labels"
        # snapshot used to index the precomputed backends (their row/position
        # order is frozen at build time); geometric queries read the live
        # network.csr and max_speed instead, so Euclidean lower bounds track
        # vertex/edge additions (note the precomputed accelerators themselves
        # are still construction-time snapshots)
        self._csr = network.csr
        #: ablation switch for benchmarks: route every path/distance miss
        #: through the seed's dict-of-dict bidirectional Dijkstra to
        #: reconstruct the pre-CSR hot path.
        self.legacy_reference_mode = False
        self.counters = OracleCounters(
            distance_cache=self._distance_cache, path_cache=self._path_cache
        )
        if self.artifact_store is not None and backend in PERSISTABLE_BACKENDS:
            self._backend, self.artifact_loaded = self.artifact_store.load_or_build(
                backend, network, self, content_hash=self.content_hash
            )
        else:
            self._backend = make_backend(backend, network, self)
            #: whether the backend state came from the artifact store
            self.artifact_loaded = False
        self.counters.backend = self._backend.name
        self.counters.cache_bypassed = not self._backend.uses_distance_cache
        self._landmarks = landmark_index
        if landmark_index is not None:
            landmark_index.ensure_arrays(self._csr.position, self._csr.num_vertices)
        #: opt-in: answer path misses by walking the APSP matrix greedily
        #: (fastest, but may pick a different equal-cost path than Dijkstra,
        #: so downstream query counters can drift by a few ties; off by
        #: default to keep runs counter-identical with the reference path).
        self.apsp_path_walk = False

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
        backend pass (matrix gather, bucket sweep, label join, or a single
        truncated multi-target Dijkstra that consults and populates the
        distance cache and dedupes repeated targets).
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
    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact distances from every vertex to two shared endpoints.

        Semantically identical (values and counters) to the scalar pair
        ``[distance(v, origin) for v], [distance(v, destination) for v]`` —
        one translation pass serves both endpoints; this is the grouped call
        behind the linear DP's read-ahead of endpoint distances (Lemma 9).
        """
        count = len(vertices)
        self.counters.distance_queries += 2 * count
        if count == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        self.counters.record_backend(self._backend.name, queries=2 * count)
        return self._backend.endpoint_distances(vertices, origin, destination)

    def path(self, u: Vertex, v: Vertex) -> list[Vertex]:
        """Exact shortest path (vertex sequence) from ``u`` to ``v``.

        Paths are cached under symmetric ``(min, max)`` keys; a reversed
        cached path answers the opposite direction (the network is
        undirected), doubling the effective cache capacity. With the dense
        APSP table attached, a miss is answered by a greedy matrix walk
        (each step moves to the neighbour minimising ``edge + D[n, target]``)
        instead of a full bidirectional Dijkstra.
        """
        self.counters.path_queries += 1
        if u == v:
            return [u]
        forward = u <= v
        key = (u, v) if forward else (v, u)
        cached = self._path_cache.get(key)
        if cached is not None:
            return list(cached) if forward else list(reversed(cached))
        path = None
        if self.has_apsp and self.apsp_path_walk and not self.legacy_reference_mode:
            path = self._apsp_path(u, v)
        if path is None:
            search = (
                bidirectional_dijkstra_reference
                if self.legacy_reference_mode
                else bidirectional_dijkstra
            )
            cost, path = search(self.network, u, v)
            self.counters.dijkstra_runs += 1
            # opportunistically seed the distance cache
            self._distance_cache.put(key, cost)
        self._path_cache.put(key, tuple(path) if forward else tuple(reversed(path)))
        return path

    def _apsp_path(self, u: Vertex, v: Vertex) -> list[Vertex] | None:
        """Reconstruct a shortest path by walking the APSP matrix greedily.

        Returns ``None`` when the walk cannot make progress (zero-cost cycles
        at equal coordinates) so the caller falls back to Dijkstra.

        Raises:
            DisconnectedError: if no path exists.
        """
        csr = self._csr
        matrix = self._apsp
        assert matrix is not None
        position = csr.position
        current = position[u]
        target = position[v]
        to_target = matrix[:, target]
        if not np.isfinite(to_target[current]):
            raise DisconnectedError(f"no path between {u} and {v}")
        indptr = csr.indptr
        indices = csr.indices
        costs = csr.costs
        vertex_ids = csr.vertex_ids_list
        path = [u]
        for _ in range(csr.num_vertices):
            begin, end = indptr[current], indptr[current + 1]
            neighbours = indices[begin:end]
            totals = costs[begin:end] + to_target[neighbours]
            current = int(neighbours[int(np.argmin(totals))])
            path.append(vertex_ids[current])
            if current == target:
                return path
        return None  # no progress within |V| hops: degenerate zero-cost ties

    # ---------------------------------------------------------- lower bounds

    def lower_bound(self, u: Vertex, v: Vertex) -> float:
        """Admissible lower bound on the travel time between ``u`` and ``v``.

        Uses the Euclidean distance divided by the maximum network speed —
        never larger than the true shortest travel time because no edge is
        shorter than the straight line between its endpoints nor faster than
        the maximum speed. If a landmark index is attached, the tighter of the
        two admissible bounds is returned.

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
        bound = self._euclidean_seconds(u, v)
        if self._landmarks is not None:
            bound = max(bound, self._landmarks.lower_bound(u, v))
        return bound

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
        — one vectorized pass over the CSR coordinate arrays (plus one over
        the landmark matrix when attached) instead of ``2 n`` scalar calls.
        The counter advances by ``2 n``, matching the scalar loop.
        """
        csr = self.network.csr
        positions = csr.positions_of(vertices)
        n = positions.size
        self.counters.lower_bound_queries += 2 * n
        if n == 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        xs, ys = csr.xs, csr.ys
        px, py = xs[positions], ys[positions]
        return (
            self._bounds_to_endpoint(csr, positions, px, py, origin),
            self._bounds_to_endpoint(csr, positions, px, py, destination),
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
        return self._bounds_to_endpoint(csr, positions, px, py, target)

    def _bounds_to_endpoint(
        self, csr, positions: np.ndarray, px: np.ndarray, py: np.ndarray, endpoint: Vertex
    ) -> np.ndarray:
        endpoint_position = csr.position_of(endpoint)
        dx = px - csr.xs[endpoint_position]
        dy = py - csr.ys[endpoint_position]
        bounds = np.sqrt(dx * dx + dy * dy) / self.network.max_speed
        if self._landmarks is not None:
            self._landmarks.ensure_arrays(csr.position, csr.num_vertices)
            bounds = np.maximum(
                bounds, self._landmarks.lower_bounds_many(positions, endpoint_position)
            )
        return bounds

    def euclidean_metres(self, u: Vertex, v: Vertex) -> float:
        """Straight-line distance in metres (not counted as an exact query)."""
        return self.network.euclidean(u, v)

    # ------------------------------------------------------------- management

    @property
    def backend(self) -> DistanceBackend:
        """The attached distance backend."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the attached distance backend."""
        return self._backend.name

    @property
    def has_hub_labels(self) -> bool:
        """Whether a hub-label index is attached."""
        return isinstance(self._backend, HubLabelBackend)

    @property
    def hub_labels(self) -> HubLabels | None:
        """The attached hub-label index, if any."""
        if isinstance(self._backend, HubLabelBackend):
            return self._backend.labels
        return None

    @property
    def has_apsp(self) -> bool:
        """Whether the dense all-pairs table is attached."""
        return isinstance(self._backend, APSPBackend)

    @property
    def _apsp(self) -> np.ndarray | None:
        """The dense all-pairs matrix, if the APSP backend is attached."""
        if isinstance(self._backend, APSPBackend):
            return self._backend.matrix
        return None

    @property
    def has_contraction_hierarchy(self) -> bool:
        """Whether a contraction hierarchy is attached."""
        return isinstance(self._backend, CHBackend)

    def cache_statistics(self) -> dict[str, float | str]:
        """Hit rates and sizes of the distance/path caches.

        A backend that never consults the distance LRU reports
        ``"bypassed (<backend>)"`` instead of a misleading 0.0 hit rate.
        """
        distance_hit_rate: float | str = self._distance_cache.statistics.hit_rate
        if self.counters.cache_bypassed:
            distance_hit_rate = f"bypassed ({self._backend.name})"
        return {
            "distance_cache_size": float(len(self._distance_cache)),
            "distance_cache_hit_rate": distance_hit_rate,
            "path_cache_size": float(len(self._path_cache)),
            "path_cache_hit_rate": self._path_cache.statistics.hit_rate,
        }

    def reset_counters(self) -> None:
        """Zero the oracle counters and cache statistics (caches keep their
        contents), so every simulation run reports per-run numbers."""
        self.counters = OracleCounters(
            distance_cache=self._distance_cache,
            path_cache=self._path_cache,
            backend=self._backend.name,
            cache_bypassed=not self._backend.uses_distance_cache,
        )
        self._distance_cache.reset_statistics()
        self._path_cache.reset_statistics()

    def clear_caches(self) -> None:
        """Drop both LRU caches' contents (and zero their statistics).

        Sweep tasks sharing one memoized oracle call this before each run so
        reported cache hit rates do not depend on which tasks happened to
        warm the caches earlier in the same process.
        """
        self._distance_cache.clear()
        self._path_cache.clear()
        self.reset_counters()

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
        * ``ch`` / ``hub_labels`` — full rebuild against the new topology.
        * ``dijkstra`` — nothing precomputed; only the caches are dropped.

        With an artifact store attached, the content hash is recomputed and
        the *new* topology's key is looked up first (a close/reopen
        round-trip loads the original table back); on a miss the backend is
        repaired or rebuilt as above and then persisted under the new key.

        The CSR snapshot is re-taken and both LRU caches are dropped. Query
        counters keep accumulating across the refresh — a mid-run closure
        should not zero the run's reported query counts. A landmark index,
        whose precomputed distances are no longer admissible bounds on the
        new topology, is detached.
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
        if self.artifact_store is not None and previous.name in PERSISTABLE_BACKENDS:
            self._backend, self.artifact_loaded = self.artifact_store.load_or_build(
                previous.name, network, self, content_hash=self.content_hash, build=rebuild
            )
        else:
            self._backend = rebuild()
            self.artifact_loaded = False
        self._landmarks = None
        self._distance_cache.clear()
        self._path_cache.clear()
        self.counters.backend = self._backend.name
        self.counters.cache_bypassed = not self._backend.uses_distance_cache
