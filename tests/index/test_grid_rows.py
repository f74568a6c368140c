"""The row-aligned grid finds exactly the candidates the dict-of-sets grid found.

``GridIndex`` keeps every member's cell in two arrays aligned with the fleet
route table's rows and answers ``members_near_vertex`` with ascending rows.
:class:`_ReferenceGrid` below is the index it replaced — a set of members
per cell, answering with a list of ids — fed the very same ``insert`` /
``update`` / ``remove`` calls. At every query of every dispatch and flush,
the rows must equal the reference's ids mapped to rows and sorted, and the
memory estimate the reference's.

The runs cover stress programs (street closures that reopen, cancellations,
shift ends, surges) under every dispatcher that filters candidates through
the grid — ``pruneGreedyDP``, ``batch``, ``nearest``, ``kinetic``,
``sharded:pruneGreedyDP`` at K = 2 and 4, and the ``cluster:`` replicas run
in-process — with workers joining between existing ids and at 10 001 (the
rows behind them shift), live network updates (the grid is rebuilt),
off-shift workers, and both full-cover and partial discs.

Seeded bugs confirmed red against this module (then reverted): ``<`` for
``<=`` on the rectangle's upper column, and member rows not re-derived after
the table gained a row.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np
import pytest

from repro.core.types import Worker
from repro.dispatch.registry import DispatcherSpec
from repro.index.grid import GridIndex
from repro.scenarios.compile import compile_program
from repro.scenarios.runner import _build_service
from repro.scenarios.stress import generate_stress_scenario
from repro.service.spec import PlatformSpec
from tests.cluster.test_replica_advancement import _drive


class _ReferenceGrid:
    """The dict-of-sets index: members per cell, queries answered in ids."""

    def __init__(self, grid: GridIndex) -> None:
        self.grid = grid
        self.members: dict = defaultdict(set)
        self.locations: dict = {}

    def insert(self, member, vertex) -> None:
        cell = self.grid.cell_of_vertex(vertex)
        previous = self.locations.get(member)
        if previous == cell:
            return
        if previous is not None:
            self.members[previous].discard(member)
        self.members[cell].add(member)
        self.locations[member] = cell

    def remove(self, member) -> None:
        cell = self.locations.pop(member, None)
        if cell is not None:
            self.members[cell].discard(member)

    def members_near_vertex(self, vertex, radius_metres: float) -> tuple[list, bool]:
        """The member ids, and whether the disk covered the whole grid."""
        point = self.grid.network.coordinates(vertex)
        geometry = self.grid.geometry
        if (
            point.x - radius_metres <= geometry.min_x
            and point.y - radius_metres <= geometry.min_y
            and point.x + radius_metres >= geometry.min_x + geometry.columns * geometry.cell_metres
            and point.y + radius_metres >= geometry.min_y + geometry.rows * geometry.cell_metres
        ):
            return list(self.locations), True
        if radius_metres < 0:
            return [], False
        size = geometry.cell_metres
        min_column = int((point.x - radius_metres - geometry.min_x) // size)
        max_column = int((point.x + radius_metres - geometry.min_x) // size)
        min_row = int((point.y - radius_metres - geometry.min_y) // size)
        max_row = int((point.y + radius_metres - geometry.min_y) // size)
        members: list = []
        for column in range(max(min_column, 0), min(max_column, geometry.columns - 1) + 1):
            for row in range(max(min_row, 0), min(max_row, geometry.rows - 1) + 1):
                members.extend(self.members.get((column, row), ()))
        return members, False

    def memory_estimate_bytes(self) -> int:
        occupied = sum(1 for members in self.members.values() if members)
        memberships = sum(len(members) for members in self.members.values())
        return occupied * 64 + memberships * 8 + len(self.locations) * 16


class _Shadow:
    """Feeds every grid's calls to its reference and compares every query."""

    def __init__(self, monkeypatch) -> None:
        self.queries = {True: 0, False: 0}  # full cover -> queries compared
        init, insert, remove = GridIndex.__init__, GridIndex.insert, GridIndex.remove
        near = GridIndex.members_near_vertex
        shadow = self

        def shadow_init(grid, *args, **kwargs):
            init(grid, *args, **kwargs)
            grid._reference = _ReferenceGrid(grid)

        def shadow_insert(grid, member, vertex):
            insert(grid, member, vertex)
            grid._reference.insert(member, vertex)

        def shadow_remove(grid, member):
            remove(grid, member)
            grid._reference.remove(member)

        def shadow_near(grid, vertex, radius_metres):
            rows = near(grid, vertex, radius_metres)
            members, full = grid._reference.members_near_vertex(vertex, radius_metres)
            expected = np.sort(grid._table.rows_of(members))
            assert rows.tolist() == expected.tolist(), (vertex, radius_metres)
            assert grid.memory_estimate_bytes() == grid._reference.memory_estimate_bytes()
            shadow.queries[full] += 1
            return rows

        monkeypatch.setattr(GridIndex, "__init__", shadow_init)
        monkeypatch.setattr(GridIndex, "insert", shadow_insert)
        monkeypatch.setattr(GridIndex, "remove", shadow_remove)
        monkeypatch.setattr(GridIndex, "members_near_vertex", shadow_near)


#: stress programs of master seed 2018 that between them carry street closures
#: (0, 2, 13, 16), cancellations (0, 13) and shift ends (2, 7, 16)
_PROGRAMS = (0, 2, 7, 13, 16)

#: request position -> (joining worker id, vertex draw): the sparse id first,
#: then ids between existing ones (the fleets hold ids 0..13 at most), so the
#: rows behind every later join shift
_GROWTH = {3: (10_001, 5), 9: (7_000, 17), 15: (500, 23), 21: (20, 41)}


def _serve(dispatcher_name: str, index: int, growth: dict, **overrides) -> None:
    """Replay stress program ``index`` in-process, workers joining on the way."""
    config, program = generate_stress_scenario(2018, index)
    spec = PlatformSpec(
        scenario=config, dispatcher=DispatcherSpec.parse(dispatcher_name, **overrides)
    )
    compiled = compile_program(spec.scenario, program.validate())
    service = _build_service(spec, compiled)
    vertices = sorted(compiled.instance.network.vertices())
    timeline = deque(compiled.timeline)

    def run_timeline(until: float) -> None:
        while timeline and timeline[0].time <= until:
            action = timeline.popleft()
            service.advance_to(action.time)
            service.apply_network_update(action.apply)

    for position, request in enumerate(compiled.instance.requests):
        run_timeline(request.release_time)
        if position in growth:
            worker_id, draw = growth[position]
            service.add_worker(
                Worker(id=worker_id, initial_location=vertices[draw % len(vertices)], capacity=3)
            )
        service.submit(request)
    run_timeline(float("inf"))
    service.drain()


_IN_PROCESS = [
    ("pruneGreedyDP", {}),
    ("batch", {}),
    ("nearest", {}),
    ("kinetic", {}),
    ("sharded:pruneGreedyDP", {"num_shards": 2}),
    ("sharded:pruneGreedyDP", {"num_shards": 4}),
]


class TestRowsEqualTheDictOfSetsGrid:
    @pytest.mark.parametrize("index", _PROGRAMS)
    @pytest.mark.parametrize(
        ("dispatcher_name", "overrides"), _IN_PROCESS,
        ids=["pruneGreedyDP", "batch", "nearest", "kinetic", "sharded-K2", "sharded-K4"],
    )
    def test_in_process(self, monkeypatch, dispatcher_name, overrides, index):
        shadow = _Shadow(monkeypatch)
        _serve(dispatcher_name, index, _GROWTH, **overrides)
        assert sum(shadow.queries.values()) > 10

    @pytest.mark.parametrize("index", [0, 16])
    @pytest.mark.parametrize("inner", ["pruneGreedyDP", "batch"])
    def test_cluster_replicas(self, monkeypatch, inner, index):
        shadow = _Shadow(monkeypatch)
        _drive(monkeypatch, inner, index, growth=_GROWTH)
        assert sum(shadow.queries.values()) > 10

    def test_runs_cover_full_and_partial_discs(self, monkeypatch):
        shadow = _Shadow(monkeypatch)
        for index in _PROGRAMS:
            _serve("pruneGreedyDP", index, _GROWTH)
        assert min(shadow.queries.values()) >= 20, shadow.queries
