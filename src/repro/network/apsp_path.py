"""The bidirectional Dijkstra's path, read off two rows of the APSP table.

:func:`table_path` answers a point-to-point path on the ``"apsp"`` backend
without a search. It returns, bit for bit, the vertex sequence
:func:`~repro.network.shortest_path.bidirectional_dijkstra` returns; on
equal-cost ties that search's pick decides where workers stand, so any other
shortest path would move simulation results.

**The rule.** Everything is in ticks, on the backend's own CSR and table.
Let ``D = d(s, t)`` and ``SP = {x : d(s, x) + d(x, t) == D}``, the vertices
on some shortest ``s``-``t`` path (one comparison of row ``s`` plus row
``t``). A neighbour ``y`` of ``x`` is *tight* forward when
``d(s, y) + c(y, x) == d(s, x)``; the tight neighbours of a vertex of ``SP``
are in ``SP``.

* The forward parent ``pf(x)`` of ``x in SP \\ {s}`` is its tight neighbour
  with the smallest ``(d(s, y), position)``; the backward parent ``pb(x)``
  takes the same rule with ``d(., t)``.
* The meeting vertex is the ``w in SP`` with the smallest event key
  ``E(w) = max(tF(w), tB(w))``, where ``tF(w) = (d(s, pf(w)), 0, pos(pf(w)))``,
  ``tB(w) = (d(pb(w), t), 1, pos(pb(w)))`` and ``tF(s) = tB(t) = -inf``. A
  tie (the same expanding vertex) goes to ``w``'s CSR slot in that vertex's
  row, which is the smaller position: rows list neighbours in position order.
* The path is the forward-parent chain from ``w`` back to ``s``, reversed,
  followed by the backward-parent chain from ``w`` to ``t``.

**Why it is exact.** Every edge is at least one tick, so each side of the
search pops its vertices in ``(distance, position)`` order (a relaxation
pushes strictly past the cost being popped; stale heap entries pop after the
real one and are skipped), and the two sides interleave by cost, ties going
forward (``top_forward <= top_backward``). ``tF``/``tB`` are exactly the
positions of pops in that merged order. A parent is set only on a strict
improvement, so it is the first tight predecessor popped: ``pf``/``pb``.
The meeting is set at the first relaxation whose cost plus the other side's
tentative distance reaches ``D`` (``best_cost`` only drops on ``<``); for
``w`` that sum is ``D`` only once both sides hold ``w``'s final distance,
i.e. at the later of the two sides' first tight relaxations of ``w`` —
``E(w)``. A zero-tick edge would break the first step;
:meth:`~repro.network.graph.RoadNetwork.add_edge` refuses the zero-length
street that is the only way to get one.
"""

from __future__ import annotations

import numpy as np

from repro.network.graph import UNREACHABLE_TICKS, CSRAdjacency

#: the pop key of a search's root, before every real ``(d, side, position)``
_ROOT = (-1,)

#: after every real pop key: distances stay below the sentinel
_UNSET = (UNREACHABLE_TICKS,)


def table_path(
    table: np.ndarray, csr: CSRAdjacency, source: int, target: int
) -> tuple[int, list[int]] | None:
    """The bidirectional Dijkstra's ``(ticks, positions)`` from ``source``
    to ``target`` (CSR positions), or ``None`` when they are disconnected.

    ``table`` is the exact APSP table of ``csr`` and every edge of ``csr``
    is at least one tick (the module docstring gives the rule and why it is
    exact). The work past the one row comparison is linear in the CSR slots
    of ``SP``, a handful of vertices on the legs a simulation asks for.
    """
    if source == target:
        return 0, [source]
    total = table.item(source, target)
    if total == UNREACHABLE_TICKS:
        return None
    from_source = table[source]
    to_target = table[target]
    # summed in int32: finite cells lie below the sentinel 2**30, so a finite
    # sum, or one with a single sentinel, stays below 2**31 and is exact (the
    # latter >= 2**30 > D); sentinel plus sentinel wraps to -2**31, never D > 0
    on_path = np.flatnonzero(from_source + to_target == total)
    members = on_path.tolist()
    head = dict(zip(members, from_source[on_path].tolist()))  # d(s, x)
    tail = dict(zip(members, to_target[on_path].tolist()))  # d(x, t)
    indptr, indices, ticks = csr.indptr_list, csr.indices_list, csr.ticks_list
    # each member's pop key on each side: (d, side, position) of its parent,
    # the first tight neighbour that side pops
    forward: dict[int, tuple[int, ...]] = {}
    backward: dict[int, tuple[int, ...]] = {}
    for x in members:
        head_x, tail_x = head[x], tail[x]
        first_forward = first_backward = _UNSET
        for slot in range(indptr[x], indptr[x + 1]):
            y = indices[slot]
            head_y = head.get(y)
            if head_y is None:
                continue  # tight neighbours of a member are members
            # an edge of at least one tick is tight on one side at most
            if head_y + ticks[slot] == head_x:
                first_forward = min(first_forward, (head_y, 0, y))
            elif tail[y] + ticks[slot] == tail_x:
                first_backward = min(first_backward, (tail[y], 1, y))
        forward[x] = first_forward
        backward[x] = first_backward
    forward[source] = backward[target] = _ROOT
    # members ascend, and min keeps the first of equal events: the smaller
    # position, i.e. the earlier slot in the expanding vertex's row
    meeting = min(members, key=lambda w: max(forward[w], backward[w]))
    path = [meeting]
    vertex = meeting
    while vertex != source:
        vertex = forward[vertex][2]
        path.append(vertex)
    path.reverse()
    vertex = meeting
    while vertex != target:
        vertex = backward[vertex][2]
        path.append(vertex)
    return total, path
