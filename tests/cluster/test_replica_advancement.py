"""Replica advancement through the due window stays bit-locked to the front door.

Two contracts:

* **Pinned end to end.** ``cluster:`` and ``sharded:`` replays of five stress
  programs (closures that reopen, cancellations, shifts, surges) at K=2 give
  the pinned per-request assignments and service times, ``unified_cost``
  and ``served_requests``; a ``cluster:`` replay equals its ``sharded:`` one.
* **Replica == front door after every command.** A real ``ClusterDispatcher``
  drives two ``ShardWorkerRuntime`` objects *in this process* (the code a
  forked shard worker runs, on a pickled copy of the instance, behind a
  loopback link) through stress programs with fleet growth mixed in. Whenever a replica has brought its
  members to a command's clock — before the decision, the one point where both
  sides describe the same instant — every member's route, service records,
  grid cell and route-table row must equal the authoritative fleet's, bit for
  bit; idle members only owe ``start_time <= clock`` until something touches
  them, and read ``start_time == clock`` once it does.

Every time is on the grid of :mod:`repro.core.timegrid`, so no anchor depends
on how many steps the front door advanced a worker in; there is no exemption.
"""

from __future__ import annotations

import hashlib
from collections import deque

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from repro.cluster.messages import NetworkUpdateCommand, ShutdownCommand
from repro.cluster.service import ClusterMatchingService
from repro.cluster.worker import ShardWorkerRuntime
from repro.core.instance import URPSMInstance
from repro.core.types import Request, Worker
from repro.dispatch.registry import DispatcherSpec
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.scenarios.compile import compile_program
from repro.scenarios.runner import _build_service, run_program
from repro.scenarios.stress import generate_stress_scenario
from repro.service.spec import PlatformSpec
from repro.utils.geometry import Point

from tests.cluster import loopback
from tests.simulation.test_route_table import check_table

# ------------------------------------------------------- pinned on the parent

#: ``(dispatcher, stress program of master seed 2018)`` ->
#: ``(sha256 of the sorted (request, worker, pickup_time, dropoff_time) list,
#: deliveries, unified_cost, served_requests)`` at K=2, recorded once every
#: time was on the 2**-10 s grid, every tie went to the smallest
#: ``(delta, worker id)`` and every insertion operator took the smallest
#: ``(delta, j, i != j, i)``. Each ``cluster:X`` row equals its ``sharded:X`` row.
_PARENT = {
    ("cluster:pruneGreedyDP", 0): ("beacc841db3434a7", 78, 17635.03515625, 78),
    ("cluster:pruneGreedyDP", 2): ("4b099e1692a101a3", 37, 11464.5673828125, 37),
    ("cluster:pruneGreedyDP", 7): ("2ba906718ce34927", 10, 543156.76171875, 10),
    ("cluster:pruneGreedyDP", 13): ("f26a44ae16e9f51c", 44, 344807.40234375, 44),
    ("cluster:pruneGreedyDP", 16): ("e79da4eac6ed0142", 81, 45641.3447265625, 81),
    ("cluster:batch", 0): ("325338d9a425e32c", 75, 22269.7939453125, 75),
    ("cluster:batch", 2): ("223114437222ce7d", 33, 19093.90625, 33),
    ("cluster:batch", 7): ("52ece8e1cd682f0a", 9, 544950.2373046875, 9),
    ("cluster:batch", 13): ("7dabc0686fdf9996", 41, 355798.1494140625, 41),
    ("cluster:batch", 16): ("234b283e7c8f9e2d", 78, 58562.0693359375, 78),
    ("sharded:pruneGreedyDP", 0): ("beacc841db3434a7", 78, 17635.03515625, 78),
    ("sharded:pruneGreedyDP", 2): ("4b099e1692a101a3", 37, 11464.5673828125, 37),
    ("sharded:pruneGreedyDP", 7): ("2ba906718ce34927", 10, 543156.76171875, 10),
    ("sharded:pruneGreedyDP", 13): ("f26a44ae16e9f51c", 44, 344807.40234375, 44),
    ("sharded:pruneGreedyDP", 16): ("e79da4eac6ed0142", 81, 45641.3447265625, 81),
    ("sharded:batch", 0): ("325338d9a425e32c", 75, 22269.7939453125, 75),
    ("sharded:batch", 2): ("223114437222ce7d", 33, 19093.90625, 33),
    ("sharded:batch", 7): ("52ece8e1cd682f0a", 9, 544950.2373046875, 9),
    ("sharded:batch", 13): ("7dabc0686fdf9996", 41, 355798.1494140625, 41),
    ("sharded:batch", 16): ("234b283e7c8f9e2d", 78, 58562.0693359375, 78),
    ("sharded:tshare", 0): ("beacc841db3434a7", 78, 17635.03515625, 78),
    ("sharded:tshare", 2): ("5aac7d3a66ff7732", 37, 12121.1845703125, 37),
    ("sharded:tshare", 7): ("737254554ef38fef", 6, 553265.3505859375, 6),
    ("sharded:tshare", 13): ("c37dfce4788f1362", 40, 365019.7294921875, 40),
    ("sharded:tshare", 16): ("e79da4eac6ed0142", 81, 45641.3447265625, 81),
}


def _spec(dispatcher_name: str, index: int):
    config, program = generate_stress_scenario(2018, index)
    spec = PlatformSpec(
        scenario=config, dispatcher=DispatcherSpec.parse(dispatcher_name, num_shards=2)
    )
    return spec, program


def _fingerprint(completions, result):
    services = sorted(
        (record.request.id, record.worker_id, record.pickup_time, record.dropoff_time)
        for record in completions
    )
    digest = hashlib.sha256(repr(services).encode()).hexdigest()[:16]
    return digest, len(services), result.unified_cost, result.served_requests


@pytest.mark.parametrize(("dispatcher_name", "index"), sorted(_PARENT))
def test_replays_equal_the_parent_commit(dispatcher_name, index):
    outcome = run_program(*_spec(dispatcher_name, index))
    assert _fingerprint(outcome.completions, outcome.result) == _PARENT[dispatcher_name, index]


def test_every_cluster_pin_is_its_in_process_sharded_pin():
    cluster = {key: pin for key, pin in _PARENT.items() if key[0].startswith("cluster:")}
    assert len(cluster) == 10
    for (name, index), pin in cluster.items():
        assert _PARENT[name.replace("cluster:", "sharded:"), index] == pin


# ----------------------------------------------- shard workers in this process


class _CheckedLink(loopback.LoopbackLink):
    """A loopback shard worker that holds its replica to the front door.

    Members are compared whenever the replica has brought them to a command's
    clock; table rows and idle clocks after every command.
    """

    def __init__(self, harness: "_Harness", shard_id: int, init) -> None:
        super().__init__(shard_id, init)
        self.harness = harness
        self.updating = False
        runtime = self.runtime
        advance = runtime._advance_members

        def advance_then_check(clock):
            advance(clock)
            if not self.updating:
                harness.check_members(runtime)

        runtime._advance_members = advance_then_check

    def send(self, command) -> None:
        if isinstance(command, ShutdownCommand):
            super().send(command)
            return
        harness = self.harness
        # an update advances on the old map while the front door has already
        # re-timed its routes on the new one: compare once the handler is done
        # (minus the recorded paths: the replica's grid rebuild touches every
        # member and records a path the front door derives at its next advance)
        self.updating = isinstance(command, NetworkUpdateCommand)
        harness.jumped.update(worker_id for worker_id, _ in getattr(command, "moves", ()))
        if hasattr(command, "plans"):
            harness.check_nothing_left_to_ship(self.shard_id)
        harness.jumped.update(plan.worker_id for plan in getattr(command, "plans", ()))
        super().send(command)
        assert getattr(self.replies[-1], "error", None) is None
        if self.updating:
            self.updating = False
            harness.check_members(self.runtime, paths=False)
        harness.check_idle_and_table(self.runtime)
        harness.commands[type(command).__name__] += 1
        harness.commands["additions"] += len(getattr(command, "additions", ()))


class _Harness:
    """Holds the front door and compares every replica against it."""

    def __init__(self, touch_phase: int) -> None:
        self.front = None
        self.links: list[_CheckedLink] = []
        #: commands run per kind, and the worker additions they carried
        self.commands = {name: 0 for name in (
            "DispatchCommand", "FlushCommand", "CancelCommand",
            "NetworkUpdateCommand", "StatsCommand", "additions",
        )}
        self.touch_phase = touch_phase
        self.member_checks = self.busy_checks = self.travel_checks = self.idle_touches = 0
        #: workers that ever changed shard or were shipped a plan: a replica
        #: accumulates travelled cost only over what it walks itself — not
        #: while the worker is another shard's, nor up to a shipped anchor
        self.jumped: set[int] = set()

    def install(self, monkeypatch) -> None:
        """Run every shard worker started from now on as a checked loopback."""
        self.links = loopback.install(
            monkeypatch, lambda shard_id, init: _CheckedLink(self, shard_id, init)
        )

    def check_nothing_left_to_ship(self, shard_id: int) -> None:
        """What a scan of the whole fleet would find after a plan sync: every
        member's ``(plan_version, online)`` is the one on the shard's cursor."""
        handle, fleet = self.front._handles[shard_id], self.front.fleet
        for worker_id, owner in self.front._membership.items():
            if owner == shard_id:
                state = fleet.peek_state(worker_id)
                assert handle.cursor.get(worker_id) == (state.plan_version, state.online), (
                    f"worker {worker_id}: plan change never reached shard {shard_id}"
                )

    def check_members(self, runtime: ShardWorkerRuntime, paths: bool = True) -> None:
        front, replica = self.front.fleet, runtime.fleet
        membership = self.front._membership
        members = {w for w, shard in membership.items() if shard == runtime.shard_id}
        assert runtime.view.members == members
        assert replica.clock == front.clock
        grid = runtime.inner.grid
        clock = replica.clock
        self.member_checks += 1
        for worker_id in sorted(members):
            ours, theirs = replica.peek_state(worker_id), front.peek_state(worker_id)
            mine, truth = ours.route, theirs.route
            assert mine.origin == truth.origin, worker_id
            assert _stops(mine) == _stops(truth), worker_id
            assert ours.online == theirs.online
            assert _records(ours) == _records(theirs), worker_id
            assert worker_id in grid.members_in_cell(grid.cell_of_vertex(truth.origin)), (
                f"worker {worker_id}: replica grid cell is stale"
            )
            if not truth.stops:
                assert mine.start_time <= clock and truth.start_time <= clock
                continue
            self.busy_checks += 1
            assert mine.start_time == truth.start_time, worker_id
            assert mine.arr == truth.arr, worker_id
            if paths:
                assert mine.concrete_path == truth.concrete_path, worker_id
            ours_row, theirs_row = replica.table.row_of(worker_id), front.table.row_of(worker_id)
            for name in ("vertex", "arr", "slack", "picked"):
                assert np.array_equal(
                    getattr(replica.table, name)[: len(truth.arr), ours_row],
                    getattr(front.table, name)[: len(truth.arr), theirs_row],
                ), (worker_id, name)
            if paths:
                assert (
                    replica.table.first_edge_cost[ours_row]
                    == front.table.first_edge_cost[theirs_row]
                )
            if worker_id not in self.jumped:
                self.travel_checks += 1
                assert ours.travelled_cost == theirs.travelled_cost, worker_id
            assert ours.travelled_cost <= theirs.travelled_cost

    def check_idle_and_table(self, runtime: ShardWorkerRuntime) -> None:
        """After any command: rows mirror routes, idle clocks never lead, and
        a touched idle member reads the clock."""
        replica = runtime.fleet
        check_table(replica, only=runtime.view.members)
        clock = replica.clock
        for worker_id in sorted(runtime.view.members):
            state = replica.peek_state(worker_id)
            if state.route.stops:
                continue
            assert state.route.start_time <= clock
            if (worker_id + self.touch_phase + sum(self.commands.values())) % 3 == 0:
                touched = replica.state_of(worker_id)
                if not touched.route.stops:
                    self.idle_touches += 1
                    assert touched.route.start_time == clock
                    assert touched.route.arr == [clock]
                    assert replica.table.arr[0, replica.table.row_of(worker_id)] == clock


def _stops(route):
    return [(stop.vertex, stop.request.id, stop.kind) for stop in route.stops]


def _records(state):
    return {
        request_id: (record.pickup_time, record.dropoff_time)
        for request_id, record in state.assigned_requests.items()
    }


def _drive(monkeypatch, inner: str, index: int, growth, touch_phase: int = 0):
    """Replay stress program ``index`` on in-process replicas, checking throughout.

    ``growth`` maps a request's position in the stream to ``(worker id, vertex
    draw)`` of a worker joining the live fleet right before it.
    """
    harness = _Harness(touch_phase)
    harness.install(monkeypatch)
    spec, program = _spec(f"cluster:{inner}", index)
    compiled = compile_program(spec.scenario, program.validate())
    service = _build_service(spec, compiled)
    harness.front = service.dispatcher
    completions = []
    service._backend.on_completion = lambda record, now: completions.append(record)
    vertices = sorted(compiled.instance.network.vertices())
    timeline = deque(compiled.timeline)

    def run_timeline(until: float) -> None:
        while timeline and timeline[0].time <= until:
            action = timeline.popleft()
            service.advance_to(action.time)
            service.apply_network_update(action.apply)

    try:
        for position, request in enumerate(compiled.instance.requests):
            run_timeline(request.release_time)
            if position in growth:
                worker_id, draw = growth[position]
                service.add_worker(
                    Worker(id=worker_id, initial_location=vertices[draw % len(vertices)], capacity=3)
                )
            service.submit(request)
        run_timeline(float("inf"))
        result = service.drain()
    finally:
        service.close()
    return harness, _fingerprint(completions, result)


#: joins between existing ids are impossible on a dense 0..n-1 fleet, so the
#: sparse id comes first and the later joins land *between* ids
_GROWTH = {5: (10_001, 3), 12: (500, 11), 20: (9_000, 29)}


class TestReplicaEqualsFrontDoorAfterEveryCommand:
    @pytest.mark.parametrize("inner", ["pruneGreedyDP", "batch"])
    @pytest.mark.parametrize("index", [0, 2, 7, 13, 16])
    def test_without_growth_the_checked_run_is_the_pinned_run(self, monkeypatch, inner, index):
        """In-process replicas, the per-command checks and the idle touches
        they make change nothing: the run is still the parent's."""
        harness, fingerprint = _drive(monkeypatch, inner, index, growth={})
        assert fingerprint == _PARENT[f"cluster:{inner}", index]
        assert harness.member_checks > 20 and harness.busy_checks > 20
        assert harness.travel_checks > 0 and harness.idle_touches > 0

    def test_the_programs_cover_every_command_kind(self, monkeypatch):
        seen = {}
        for inner, index in (("batch", 0), ("pruneGreedyDP", 16)):
            harness, _ = _drive(monkeypatch, inner, index, growth=_GROWTH)
            for name, count in harness.commands.items():
                seen[name] = seen.get(name, 0) + count
        assert seen["DispatchCommand"] > 50 and seen["FlushCommand"] > 10
        assert seen["NetworkUpdateCommand"] >= 4  # two shards x close, reopen
        assert seen["additions"] == 2 * 2 * len(_GROWTH)

    @given(
        index=st.sampled_from([0, 2, 3, 4, 7, 9, 13, 16, 18, 20, 22]),
        inner=st.sampled_from(["pruneGreedyDP", "batch", "tshare"]),
        joins=st.lists(
            st.tuples(st.integers(0, 29), st.integers(20, 10_001), st.integers(0, 10_000)),
            max_size=4, unique_by=(lambda join: join[0], lambda join: join[1]),
        ),
        touch_phase=st.integers(0, 2),
    )
    @settings(max_examples=10, deadline=None, suppress_health_check=list(HealthCheck))
    # a batch plan anchored before the flush clock whose first stop the engine
    # completes at that clock (the replica at its next command's clock)
    @example(index=20, inner="batch", joins=[(0, 20, 3094)], touch_phase=0)
    @example(
        index=20, inner="batch",
        joins=[(13, 111, 1081), (7, 126, 3094), (29, 3203, 29), (22, 429, 0)],
        touch_phase=0,
    )
    def test_members_match_through_growth_shifts_cancellations_and_closures(
        self, monkeypatch, index, inner, joins, touch_phase
    ):
        growth = {position: (worker_id, draw) for position, worker_id, draw in joins}
        harness, _ = _drive(monkeypatch, inner, index, growth, touch_phase)
        assert harness.member_checks > 0
        # every join reaches both replicas, or is still queued for one that
        # synced no state since
        queued = sum(len(handle.additions) for handle in harness.front._handles)
        assert harness.commands["additions"] + queued == 2 * len(growth)


def test_a_reopening_that_makes_a_stop_due_walks_the_replica_there(monkeypatch):
    """A reopened street can re-time a busy route so that its next stop is
    due before the update clock. The engine completes that stop at the update
    clock and walks on; the replica takes the same walk when its grid rebuild
    reads every member at that clock.

    The worker detours A→X→B around the closed street A–B to its pickup at B.
    Three seconds in, A–B reopens: the pickup falls due at 6.37 s, and at the
    8 s update clock the engine has the worker past C. The next command at
    9.5 s carries it past D — on both sides from the same anchor bits.
    """
    links = loopback.install(monkeypatch)
    network = RoadNetwork("reopened-shortcut")
    a, b, x, c, d, e = range(6)
    for vertex, point in zip((a, b, x, c, d, e), (
        Point(0, 0), Point(10, 0), Point(0, 300), Point(20, 0), Point(30, 0), Point(230, 0),
    )):
        network.add_vertex(vertex, point)
    # lengths in metres, at 10 m/s
    for u, v, length in ((a, b, 13.7), (a, x, 600.0), (x, b, 600.0),
                         (b, c, 12.7), (c, d, 13.1), (d, e, 200.0)):
        network.add_edge(u, v, length=length)
    ride = Request(0, origin=b, destination=e, release_time=5.0, deadline=5000.0, penalty=1e6)
    # a request no worker can serve in time: the next command, a rejection
    late = Request(1, origin=e, destination=a, release_time=9.5, deadline=9.625, penalty=10.0)
    instance = URPSMInstance(
        network, DistanceOracle(network, backend="apsp"),
        [Worker(0, initial_location=a, capacity=3)], [ride, late],
    )
    with ClusterMatchingService.build(instance, num_shards=1) as service:
        service.advance_to(1.0)
        service.close_edge(a, b)
        assert service.submit(ride).worker_id == 0
        service.advance_to(8.0)
        service.apply_network_update(lambda live: live.add_edge(a, b, length=13.7))
        assert service.submit(late).worker_id is None
        front = service.dispatcher.fleet.peek_state(0)
        replica = links[0].runtime.fleet.peek_state(0)
        assert front.route.origin == replica.route.origin == d
        assert replica.route.start_time == front.route.start_time
        assert replica.route.arr == front.route.arr
        # 13.7 m at 10 m/s is 1.37 s, rounded up onto the 2**-10 s grid
    assert replica.assigned_requests[0].pickup_time == 5.0 + 1403 / 1024
