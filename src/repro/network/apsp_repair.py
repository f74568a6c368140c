"""Exact in-place repair of the dense APSP table after an edge delta.

A street closure or reopening changes a handful of edges, and with them a
tiny share of the ``N x N`` table (0.09 % of the cells for a two-street
closure on the 1296-vertex nyc-like network). :func:`repair_apsp` diffs the
CSR snapshot the table was built from against the current one and rewrites
only the cells whose value can change, instead of rebuilding the whole table.

**Exactness.** The table holds int32 ticks of the time grid, and edges
weigh their ``csr.ticks`` (clamped as the build clamps them). Row ``s`` of a
from-scratch build (:func:`~repro.network.shortest_path.all_pairs_distances`)
holds, for every ``t``, the least integer sum of edge ticks over all paths
from ``s`` (the sentinel ``UNREACHABLE_TICKS`` where there is none). That row
is the unique solution of ``d[s] = 0, d[t] = min_u d[u] + w(u, t)``, because
every edge is at least one tick (:meth:`~repro.network.graph.RoadNetwork.add_edge`
refuses a zero-length street, and every positive cost rounds up to a tick): a
zero-tick edge would let two vertices vouch for each other's stale distance.
Both passes below only ever write exact
integer sums ``d[u] + w``, and leave a cell alone only when a predecessor
that still supports its old value survives — hence the repaired table is
**bit-identical** to a fresh build. The caller checks first that the new
topology's distances stay below the sentinel
(:func:`~repro.network.shortest_path.check_tick_range`), so every value
written fits and a cell plus one edge never overflows int32.

* **Removed edges** (Ramalingam–Reps): per source row, a vertex is *affected*
  when every tight predecessor ``u`` (``d[u] + w == d[t]``) is itself
  affected or was reached through a removed edge. All removed edges of the
  batch are handled jointly — the surviving-predecessor test reads the final
  adjacency, so handling them one by one would let one closed street vouch
  for another. Only the affected cells are re-settled, by a heap Dijkstra
  seeded from their unaffected neighbours; cells no path reaches any more
  become the sentinel.
* **Added edges**: a decrease-only heap propagation from the endpoints the
  new edge improves (sentinel cells of a reconnected component included).

Rows are selected with vectorised column tests, so the Python-level work is
proportional to the rows and cells that actually change.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.network.graph import UNREACHABLE_TICKS, CSRAdjacency

#: one undirected edge of a delta, as CSR positions plus its ticks.
EdgeDelta = tuple[int, int, int]


def diff_csr(
    old: CSRAdjacency, new: CSRAdjacency
) -> tuple[list[EdgeDelta], list[EdgeDelta]] | None:
    """Undirected edges ``(a, b, ticks)`` with ``a < b`` removed from / added to ``old``.

    A changed cost (in clamped ticks) shows up as a removal plus an addition of the same pair.
    Returns ``None`` when the two snapshots do not cover the same vertex set
    (positions are then not comparable).
    """
    if not np.array_equal(old.vertex_ids, new.vertex_ids):
        return None
    n = old.num_vertices

    def directed(csr: CSRAdjacency) -> tuple[np.ndarray, np.ndarray]:
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
        upper = rows < csr.indices
        return rows[upper] * n + csr.indices[upper], csr.ticks[upper]

    def only_in(keys, costs, other_keys, other_costs) -> list[EdgeDelta]:
        # keys ascend in both snapshots (rows in order, neighbours sorted), so
        # one binary search pairs them; the sentinel absorbs "past the end"
        slot = np.searchsorted(other_keys, keys)
        same = (np.append(other_keys, -1)[slot] == keys) & (
            np.append(other_costs, -1)[slot] == costs
        )
        return [
            (key // n, key % n, cost)
            for key, cost in zip(keys[~same].tolist(), costs[~same].tolist())
        ]

    old_keys, old_costs = directed(old)
    new_keys, new_costs = directed(new)
    return (
        only_in(old_keys, old_costs, new_keys, new_costs),
        only_in(new_keys, new_costs, old_keys, old_costs),
    )


def repair_apsp(
    matrix: np.ndarray, old: CSRAdjacency, new: CSRAdjacency
) -> tuple[int, int] | None:
    """Bring ``matrix`` (exact for ``old``) to the exact table of ``new``, in place.

    Returns ``(rows, cells)`` rewritten, or ``None`` — with ``matrix``
    untouched — when the delta is not covered and the caller has to build
    from scratch: a different vertex set, or a batch that both removes and
    adds edges (a changed cost is such a batch).
    """
    if old is new:
        return 0, 0
    delta = diff_csr(old, new)
    if delta is None:
        return None
    removed, added = delta
    if removed and added:
        return None
    if removed:
        return _repair_removed(matrix, new, _both_directions(removed))
    return _repair_added(matrix, new, _both_directions(added))


def _both_directions(edges: list[EdgeDelta]) -> list[EdgeDelta]:
    return edges + [(b, a, cost) for a, b, cost in edges]


def _repair_removed(
    matrix: np.ndarray, csr: CSRAdjacency, removed: list[EdgeDelta]
) -> tuple[int, int]:
    indptr = csr.indptr_list
    indices = csr.indices_list
    costs = csr.ticks_list
    # a row needs work iff some removed edge a -> b carried a shortest path
    # of that row and b has no surviving tight predecessor to fall back on
    rows = np.zeros(matrix.shape[0], dtype=bool)
    for a, b, cost in removed:
        to_b = matrix[:, b]
        unsupported = (matrix[:, a] + cost == to_b) & (to_b != UNREACHABLE_TICKS)
        if not unsupported.any():
            continue
        for slot in range(indptr[b], indptr[b + 1]):
            unsupported &= matrix[:, indices[slot]] + costs[slot] != to_b
        rows |= unsupported

    cells = 0
    touched = np.flatnonzero(rows).tolist()
    for source in touched:
        row = matrix[source]
        d = row.item  # cell reads as Python ints; writes go straight to the row
        affected: set[int] = set()
        work = [
            b for a, b, cost in removed if d(b) != UNREACHABLE_TICKS and d(a) + cost == d(b)
        ]
        while work:
            vertex = work.pop()
            if vertex in affected:
                continue
            reach = d(vertex)
            begin, end = indptr[vertex], indptr[vertex + 1]
            for slot in range(begin, end):
                neighbour = indices[slot]
                if neighbour not in affected and d(neighbour) + costs[slot] == reach:
                    break  # still supported (re-examined if that support falls)
            else:
                affected.add(vertex)
                for slot in range(begin, end):
                    neighbour = indices[slot]
                    if neighbour not in affected and reach + costs[slot] == d(neighbour):
                        work.append(neighbour)

        # re-settle the affected cells from their unaffected neighbours
        heap: list[tuple[int, int]] = []
        for vertex in affected:
            best = UNREACHABLE_TICKS
            for slot in range(indptr[vertex], indptr[vertex + 1]):
                neighbour = indices[slot]
                if neighbour not in affected:
                    candidate = d(neighbour) + costs[slot]
                    if candidate < best:
                        best = candidate
            row[vertex] = best
            if best < UNREACHABLE_TICKS:
                heap.append((best, vertex))
        # (the propagation never lowers an unaffected cell: its value is final)
        _propagate(row, heap, csr, affected)
        cells += len(affected)
    return len(touched), cells


def _repair_added(
    matrix: np.ndarray, csr: CSRAdjacency, added: list[EdgeDelta]
) -> tuple[int, int]:
    rows = np.zeros(matrix.shape[0], dtype=bool)
    for a, b, cost in added:
        rows |= matrix[:, a] + cost < matrix[:, b]

    cells = 0
    touched = np.flatnonzero(rows).tolist()
    for source in touched:
        row = matrix[source]
        d = row.item
        improved: set[int] = set()
        heap: list[tuple[int, int]] = []
        for a, b, cost in added:
            candidate = d(a) + cost
            if candidate < d(b):
                row[b] = candidate
                improved.add(b)
                heap.append((candidate, b))
        _propagate(row, heap, csr, improved)
        cells += len(improved)
    return len(touched), cells


def _propagate(
    row: np.ndarray, heap: list[tuple[int, int]], csr: CSRAdjacency, written: set[int]
) -> None:
    """Decrease-only Dijkstra over one table row from the seeded ``heap``.

    Lowers every cell a seed improves (to ``reach + ticks``) and records the
    columns it wrote in ``written``.
    """
    indptr = csr.indptr_list
    indices = csr.indices_list
    costs = csr.ticks_list
    d = row.item
    push = heapq.heappush
    pop = heapq.heappop
    heapq.heapify(heap)
    while heap:
        reach, vertex = pop(heap)
        if reach > d(vertex):
            continue
        for slot in range(indptr[vertex], indptr[vertex + 1]):
            neighbour = indices[slot]
            candidate = reach + costs[slot]
            if candidate < d(neighbour):
                row[neighbour] = candidate
                written.add(neighbour)
                push(heap, (candidate, neighbour))


__all__ = ["diff_csr", "repair_apsp"]
