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

Both answer distances from their precomputed structure, so the oracle puts
no distance cache in front of them; its one LRU caches paths.

**Paths** (:meth:`DistanceBackend.path`, behind the oracle's path LRU) are
the path :func:`~repro.network.shortest_path.bidirectional_dijkstra` returns,
on every backend: on equal-cost ties that search's pick decides where
workers stand. The ``"ch"`` backend runs the search; the ``"apsp"`` backend
rebuilds the same path from two rows of its table without a search
(:func:`~repro.network.apsp_path.table_path`, whose docstring gives the rule
and why it is exact).

**Live network updates** (:meth:`DistanceOracle.refresh_topology
<repro.network.oracle.DistanceOracle.refresh_topology>` after a street
closure or reopening) cost, per backend:

* ``"apsp"``       — **delta repair** (:meth:`APSPBackend.refresh`,
  :mod:`repro.network.apsp_repair`): the table is fixed in place, touching
  only the cells the changed edges can affect, bit-identical to a fresh
  build; deltas the repair does not cover fall back to the full build.
* ``"ch"``         — full rebuild (the hierarchy has no incremental form
  here).

**Exactness.** Every edge cost is a whole number of ticks of the time grid
of :mod:`repro.core.timegrid`, so a path's cost is an integer count of ticks
whatever order its edges are added in (float64 holds every such sum below
``2**43`` s exactly). The CH backend adds float seconds — a shortcut is the
sum of its two halves, a query adds two half distances — and the APSP sweep
adds int32 ticks, which its reads multiply by ``TIME_QUANTUM``, a power of
two, exactly. Both answer **bit-identical** floats: ``apsp == ch ==`` a
reference Dijkstra row with ``==`` on every generator city
(``tests/network/test_backends.py``), and APSP equals a
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
from repro.exceptions import ConfigurationError, DisconnectedError
from repro.network.apsp_path import table_path
from repro.network.apsp_repair import repair_apsp
from repro.network.ch import ContractionHierarchy, build_contraction_hierarchy
from repro.network.graph import UNREACHABLE_TICKS, RoadNetwork, Vertex
from repro.network.shortest_path import (
    all_pairs_distances,
    bidirectional_dijkstra,
    check_tick_range,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.oracle import DistanceOracle

#: canonical backend names, in auto-selection preference order.
BACKEND_NAMES = ("apsp", "ch")

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

    All methods answer in seconds of travel time; ``inf`` marks disconnected
    pairs. Implementations answer shortest distances, bit-identical to a
    Dijkstra's (the module docstring's "Exactness" note).
    """

    name: str
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
    ) -> tuple[Sequence[float], Sequence[float]]:
        """Exact distances from every vertex to two shared endpoints: two
        float64 arrays for a numpy array of vertices, two lists of plain
        floats for any other sequence."""
        ...

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        """``(cost, vertices)`` of the path
        :func:`~repro.network.shortest_path.bidirectional_dijkstra` returns;
        :class:`~repro.exceptions.DisconnectedError` for a disconnected pair."""
        ...

    def stats(self) -> dict[str, float]:
        """Build/search statistics for benchmarks and reports."""
        ...


def _column_seconds(matrix: np.ndarray, rows: list[int], column: int) -> list[float]:
    """Cells ``matrix[row, column]`` as plain seconds, ``inf`` for the sentinel."""
    item = matrix.item
    return [
        ticks * TIME_QUANTUM if (ticks := item(row, column)) != UNREACHABLE_TICKS else np.inf
        for row in rows
    ]


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

    def __init__(self, network: RoadNetwork, matrix: np.ndarray | None = None) -> None:
        started = time.perf_counter()
        csr = network.csr
        self._csr = csr
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
    ) -> tuple[Sequence[float], Sequence[float]]:
        index = self.vertex_index
        if isinstance(vertices, np.ndarray):
            positions = self._csr.positions_of(vertices)
            # both columns in one gather, converted once
            both = self._seconds(
                self.matrix[positions[:, None], [index[origin], index[destination]]]
            )
            return both[:, 0], both[:, 1]
        # the scalar walk's short list: the cells ``distance`` reads, as
        # plain floats, without a numpy gather
        positions = [index[vertex] for vertex in vertices]
        return (
            _column_seconds(self.matrix, positions, index[origin]),
            _column_seconds(self.matrix, positions, index[destination]),
        )

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        """The bidirectional Dijkstra's path, rebuilt from rows ``u`` and
        ``v`` of the table without a search
        (:func:`~repro.network.apsp_path.table_path`)."""
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
    ) -> tuple[Sequence[float], Sequence[float]]:
        # one bucket sweep per endpoint; the vertices' search spaces are
        # shared between the two sweeps through the hierarchy's memo
        as_array = isinstance(vertices, np.ndarray)
        position = self._csr.position
        targets = [position[vertex] for vertex in (vertices.tolist() if as_array else vertices)]
        sweep = self.hierarchy.sweep_positions
        before = self.hierarchy.settled
        found = sweep(position[origin], targets), sweep(position[destination], targets)
        self._record_settled(before)
        if as_array:
            return np.array(found[0], dtype=np.float64), np.array(found[1], dtype=np.float64)
        return found

    def path(self, u: Vertex, v: Vertex) -> tuple[float, list[Vertex]]:
        # the search: reading d(., v) through bucket joins costs more than a
        # search on the short legs a simulation asks for
        return bidirectional_dijkstra(self._network, u, v)

    def stats(self) -> dict[str, float]:
        return self.hierarchy.stats()


def check_backend_name(name: str) -> None:
    """Raise :class:`~repro.exceptions.ConfigurationError` unless ``name`` is
    in :data:`BACKEND_NAMES`."""
    if name not in BACKEND_NAMES:
        raise ConfigurationError(
            f"unknown distance backend {name!r}; backend must be one of {BACKEND_NAMES}"
        )


def make_backend(name: str, network: RoadNetwork, host: "DistanceOracle") -> DistanceBackend:
    """Instantiate the named backend over ``network``."""
    check_backend_name(name)
    if name == "apsp":
        return APSPBackend(network)
    return CHBackend(network, host)


__all__ = [
    "APSP_VERTEX_LIMIT",
    "BACKEND_NAMES",
    "APSPBackend",
    "CHBackend",
    "DistanceBackend",
    "check_backend_name",
    "make_backend",
    "select_backend_name",
    "build_contraction_hierarchy",
]
