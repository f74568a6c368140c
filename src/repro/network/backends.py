"""Pluggable distance backends behind the :class:`~repro.network.oracle.DistanceOracle`.

A :class:`DistanceBackend` answers exact point-to-point and batched
many-to-many distance queries and point-to-point paths, the oracle owns
counting/caching policy, and
:func:`select_backend_name` picks a backend from the network size.
:data:`BACKEND_NAMES` is the one list of backends the configuration layer
validates against.

Backends (all exact shortest distances, bit-identical across backends, see
"Exactness" below):

* ``"apsp"``       — dense all-pairs table of int32 ticks; O(1) lookups,
  4·N² bytes, built by one vectorised sweep over all sources
  (:func:`~repro.network.shortest_path.all_pairs_distances`). The fastest
  choice up to a few thousand vertices.
* ``"ch"``         — contraction hierarchy (:mod:`repro.network.ch`);
  near-linear build, tiny upward searches per query, bucket-based
  many-to-many batches. The sweet spot for city-scale networks where the
  dense matrix stops fitting.
* ``"dijkstra"``   — no preprocessing: cached bidirectional point-to-point
  searches, and batches answered by **one truncated single-source Dijkstra**
  that stops when every (deduplicated, cache-missing) target is settled.

Only the Dijkstra backend uses the oracle's distance LRU; the precomputed
backends bypass it, which the cache statistics report honestly as
``"bypassed (<backend>)"`` instead of a misleading 0.0 hit rate.

**Paths** (:meth:`DistanceBackend.path`, behind the oracle's path LRU) are
the path :func:`~repro.network.shortest_path.bidirectional_dijkstra` returns,
on every backend: on equal-cost ties that search's pick decides where
workers stand. The ``"ch"`` and ``"dijkstra"`` backends run the search; the
``"apsp"`` backend rebuilds the same path from two rows of its table without
a search (:func:`~repro.network.apsp_path.table_path`, whose docstring gives
the rule and why it is exact).

**Live network updates** (:meth:`DistanceOracle.refresh_topology
<repro.network.oracle.DistanceOracle.refresh_topology>` after a street
closure or reopening) cost, per backend:

* ``"apsp"``       — **delta repair** (:meth:`APSPBackend.refresh`,
  :mod:`repro.network.apsp_repair`): the table is fixed in place, touching
  only the cells the changed edges can affect, bit-identical to a fresh
  build; deltas the repair does not cover fall back to the full build.
* ``"ch"``         — full rebuild (the hierarchy has no incremental form
  here).
* ``"dijkstra"``   — nothing to rebuild; the oracle drops its caches.

**Exactness.** Every edge cost is a whole number of ticks of the time grid
of :mod:`repro.core.timegrid`, so a path's cost is an integer count of ticks
whatever order its edges are added in (float64 holds every such sum below
``2**43`` s exactly). The CH and Dijkstra backends add float seconds — a CH
shortcut is the sum of its two halves, a CH query and a bidirectional
Dijkstra add two half distances — and the APSP sweep adds int32 ticks, which
its reads multiply by ``TIME_QUANTUM``, a power of two, exactly. All three
answer **bit-identical** floats: ``apsp == ch == dijkstra`` with ``==`` on
every generator city (``tests/network/test_backends.py``), and APSP equals a
single-source Dijkstra row (``tests/network/test_apsp_build.py``). Paths are
bit-identical too: the APSP table's path is the bidirectional Dijkstra's
(``tests/network/test_apsp_path.py``), because a search on whole ticks pops
each side in ``(distance, position)`` order, so its parents and its meeting
vertex follow from the distances alone. The choice of backend therefore
moves no simulation result.
"""

from __future__ import annotations

import mmap
import time
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.timegrid import TIME_QUANTUM
from repro.exceptions import DisconnectedError
from repro.network.apsp_path import table_path
from repro.network.apsp_repair import repair_apsp, strictly_increasing
from repro.network.ch import ContractionHierarchy, build_contraction_hierarchy
from repro.network.graph import UNREACHABLE_TICKS, RoadNetwork, Vertex
from repro.network.shortest_path import (
    all_pairs_distances,
    bidirectional_dijkstra,
    check_tick_range,
    truncated_multi_target_distances,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.oracle import DistanceOracle

#: canonical backend names, in auto-selection preference order.
BACKEND_NAMES = ("apsp", "ch", "dijkstra")

#: largest vertex count for which the dense all-pairs matrix is the default.
APSP_VERTEX_LIMIT = 2_000


def select_backend_name(num_vertices: int) -> str:
    """The backend the ``"auto"`` policy picks for a network of
    ``num_vertices`` vertices: the dense matrix up to
    :data:`APSP_VERTEX_LIMIT`, the contraction hierarchy above it. (The
    oracle still takes the hierarchy for a small network whose distances
    fail :func:`~repro.network.shortest_path.check_tick_range`.)"""
    if num_vertices <= APSP_VERTEX_LIMIT:
        return "apsp"
    return "ch"


@runtime_checkable
class DistanceBackend(Protocol):
    """Exact shortest-distance queries over one road network.

    All methods answer in seconds of travel time; ``inf`` (or
    :class:`~repro.exceptions.DisconnectedError` for the Dijkstra backend,
    matching the seed behaviour) marks disconnected pairs. Implementations
    answer shortest distances, bit-identical to the Dijkstra machinery's
    (the module docstring's "Exactness" note).
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

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        """``(cost, vertices)`` of the path
        :func:`~repro.network.shortest_path.bidirectional_dijkstra` returns;
        :class:`~repro.exceptions.DisconnectedError` for a disconnected pair."""
        ...

    def stats(self) -> dict[str, float]:
        """Build/search statistics for benchmarks and reports."""
        ...


class APSPBackend:
    """Dense all-pairs table of int32 ticks: built eagerly in one sweep, O(1)
    lookups.

    Row ``s`` holds the distance from position ``s`` to every position in
    ticks of :data:`~repro.core.timegrid.TIME_QUANTUM`
    (:func:`~repro.network.shortest_path.all_pairs_distances`), 4 bytes a
    cell. The read methods convert at this boundary: ``ticks *
    TIME_QUANTUM`` is exactly the float a Dijkstra settles, and the sentinel
    :data:`~repro.network.graph.UNREACHABLE_TICKS` reads as ``inf``. A
    network whose distances the table cannot hold raises before the build
    (:func:`~repro.network.shortest_path.check_tick_range`). A matrix
    handed in (the artifact store does) is adopted, not copied;
    :meth:`refresh` then repairs it in place.
    """

    name = "apsp"
    uses_distance_cache = False

    def __init__(self, network: RoadNetwork, matrix: np.ndarray | None = None) -> None:
        started = time.perf_counter()
        csr = network.csr
        self._network = network
        self._csr = csr
        self._search_paths = not strictly_increasing(csr)
        if matrix is None:
            check_tick_range(network)
            matrix = self._build_matrix(network)
        self.matrix = matrix
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
        buffer = mmap.mmap(-1, max(n * n, 1) * 4, **flags)
        matrix = np.frombuffer(buffer, dtype=np.int32, count=n * n).reshape(n, n)
        all_pairs_distances(network, matrix)
        return matrix

    def refresh(self, network: RoadNetwork) -> None:
        """Re-derive the table for ``network``'s current topology.

        Edge removals or additions over an unchanged vertex set are repaired
        in place (:func:`~repro.network.apsp_repair.repair_apsp`,
        bit-identical to a fresh build); any other delta takes the full
        build the constructor runs. Either way the new topology's distances
        must fit the table (:func:`~repro.network.shortest_path.check_tick_range`,
        run once here, before either path).
        """
        started = time.perf_counter()
        csr = network.csr
        check_tick_range(network)
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
        self._search_paths = not strictly_increasing(csr)
        self.vertex_index = csr.position

    @staticmethod
    def _seconds(ticks: np.ndarray) -> np.ndarray:
        seconds = ticks * TIME_QUANTUM
        seconds[ticks == UNREACHABLE_TICKS] = np.inf
        return seconds

    def distance(self, u: Vertex, v: Vertex) -> float:
        ticks = self.matrix.item(self.vertex_index[u], self.vertex_index[v])
        return ticks * TIME_QUANTUM if ticks != UNREACHABLE_TICKS else np.inf

    def distances_many(self, source: Vertex, targets: Sequence[Vertex]) -> np.ndarray:
        row = self.matrix[self.vertex_index[source]]
        return self._seconds(row[self._csr.positions_of(targets)])

    def distance_pairs(self, us: Sequence[Vertex], vs: Sequence[Vertex]) -> np.ndarray:
        return self._seconds(
            self.matrix[self._csr.positions_of(us), self._csr.positions_of(vs)]
        )

    def endpoint_distances(
        self, vertices: Sequence[Vertex], origin: Vertex, destination: Vertex
    ) -> tuple[np.ndarray, np.ndarray]:
        positions = self._csr.positions_of(vertices)
        index = self.vertex_index
        # both columns in one gather, converted once
        both = self._seconds(self.matrix[positions[:, None], [index[origin], index[destination]]])
        return both[:, 0], both[:, 1]

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        """The bidirectional Dijkstra's path, rebuilt from rows ``u`` and
        ``v`` of the table without a search
        (:func:`~repro.network.apsp_path.table_path`). A network with a
        zero-tick edge, outside that rule's exactness argument, keeps the
        search."""
        if self._search_paths:
            return bidirectional_dijkstra(self._network, u, v)
        found = table_path(self.matrix, self._csr, self.vertex_index[u], self.vertex_index[v])
        if found is None:
            raise DisconnectedError(f"no path between {u} and {v}")
        ticks, positions = found
        vertex_ids = self._csr.vertex_ids_list
        return ticks * TIME_QUANTUM, [vertex_ids[position] for position in positions]

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
        self._network = network
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

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        # the search: reading d(., v) through bucket joins costs more than a
        # search on the short legs a simulation asks for
        return bidirectional_dijkstra(self._network, u, v)

    def stats(self) -> dict[str, float]:
        return self.hierarchy.stats()


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
        cost, path = bidirectional_dijkstra(self.network, key[0], key[1])
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

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        return bidirectional_dijkstra(self.network, u, v)

    def stats(self) -> dict[str, float]:
        return {
            "build_seconds": 0.0,
            "sssp_runs": float(self.sssp_runs),
        }


def make_backend(name: str, network: RoadNetwork, host: "DistanceOracle") -> DistanceBackend:
    """Instantiate the named backend over ``network``."""
    if name == "apsp":
        return APSPBackend(network)
    if name == "ch":
        return CHBackend(network, host)
    if name == "dijkstra":
        return DijkstraBackend(network, host)
    raise ValueError(f"unknown distance backend {name!r}; available: {BACKEND_NAMES}")


__all__ = [
    "APSP_VERTEX_LIMIT",
    "BACKEND_NAMES",
    "APSPBackend",
    "CHBackend",
    "DijkstraBackend",
    "DistanceBackend",
    "make_backend",
    "select_backend_name",
    "build_contraction_hierarchy",
]
