"""The block linear-DP kernel against the scalar walk and the O(n^3) optimum.

``LinearDPInsertion.best_insertions`` evaluates Algorithm 3 for all rows of a
``RouteBlock`` at once. Differential contract, per route of the block:

* ``delta``, ``pickup_index`` and ``dropoff_index`` equal the scalar
  ``LinearDPInsertion.best_insertion`` **bit for bit** — the planners pick
  the smallest ``(delta, worker id)`` across candidates, so approximate
  agreement would change assignments;
* ``delta`` equals ``BasicInsertion``'s exhaustive optimum exactly;
* the kernel issues exactly ``2 * popcount(reached)`` exact queries, where
  ``reached`` marks every stop a scan evaluates plus the stop after it —
  never fewer than the scalar walk, and at most two more per route.

The generators aim at what the block form could get wrong: mixed route
lengths that deepen a block past its initial 8 stops, full vehicles that
reset ``Dio`` mid-route, oversized requests, deadlines that cut the scan at
every ``j`` (including ``arr[j] == deadline`` and one tick either side), both
early exits, row subsets in any order, and rows taken from a live fleet table
mid-run — after lazy partial advancement and after a street closure repaired
in place by ``apsp_repair``.

Seeded bugs confirmed red against this module (then reverted): ``<=`` for
``<`` in the ``Dio``/``Plc`` update (the bit-for-bit property and
``test_first_of_equal_pickup_detours_keeps_the_pickup`` fail on
``pickup_index``), and a dropped capacity reset (the bit-for-bit property,
``test_full_vehicle_resets_dio_mid_route`` and the live-fleet test fail on
the chosen ``(i, j)``).
"""

from __future__ import annotations

import math
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.insertion.base import InsertionOperator
from repro.core.insertion.basic import BasicInsertion
from repro.core.insertion.block import BlockScan
from repro.core.insertion.linear_dp import LinearDPInsertion
from repro.core.route import Route, RouteBlock, empty_route
from repro.core.timegrid import TIME_QUANTUM
from repro.core.types import Request, Worker
from repro.dispatch.registry import DispatcherSpec
from repro.network.oracle import DistanceOracle
from repro.service.facade import MatchingService
from repro.service.spec import PlatformSpec
from repro.workloads.scenarios import ScenarioConfig
from tests.conftest import build_line_network, make_request, make_worker
from tests.core.test_insertion_equivalence import _ORACLE, _vertex
from tests.simulation.test_network_update import _busy_edge

_BASIC = BasicInsertion()
_OPERATORS = {
    False: LinearDPInsertion(aggressive_break=False),
    True: LinearDPInsertion(aggressive_break=True),
}

_SETTINGS = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ------------------------------------------------------------------ generators


@st.composite
def long_routes(draw, max_requests: int = 7) -> Route:
    """A feasible route of up to ``2 * max_requests`` stops.

    Built by repeated linear-DP insertions with generous deadlines, so that
    capacity (1-5 seats, riders of 1-3) is what shapes it: small vehicles run
    full mid-route, large ones pool and grow past eight stops.
    """
    capacity = draw(st.integers(min_value=1, max_value=5))
    worker = Worker(
        id=draw(st.integers(0, 50)),
        initial_location=_vertex(draw(st.integers(0, 200))),
        capacity=capacity,
    )
    start_time = float(draw(st.integers(min_value=0, max_value=300)))
    route = empty_route(worker, start_time=start_time)
    route.refresh(_ORACLE)
    for request_id in range(draw(st.integers(min_value=0, max_value=max_requests))):
        origin = _vertex(draw(st.integers(0, 200)))
        destination = _vertex(draw(st.integers(0, 200)))
        if destination == origin:
            continue
        rider = Request(
            id=request_id,
            origin=origin,
            destination=destination,
            release_time=start_time,
            deadline=start_time + float(draw(st.integers(600, 9000))),
            penalty=10.0,
            capacity=draw(st.integers(min_value=1, max_value=min(3, capacity))),
        )
        found = _OPERATORS[False].best_insertion(route, rider, _ORACLE)
        if found.feasible:
            route = route.with_insertion(
                rider, found.pickup_index, found.dropoff_index, _ORACLE
            )
    return route


@st.composite
def block_scenarios(draw) -> tuple[list[Route], Request]:
    """1-8 routes of mixed length and one request.

    Its deadline lands anywhere in the routes' span — or exactly on / one
    tick either side of some ``arr[j]``. Its endpoints are often vertices the routes already
    visit: a pickup at a stop's own vertex costs detour 0 both before and
    after that stop, which is what makes ties in ``Dio`` and in ``delta``
    (strict ``<``, first minimum, same-branch first) common.
    """
    routes = draw(st.lists(long_routes(), min_size=1, max_size=8))
    earliest = min(route.arr[0] for route in routes)
    visited = sorted({route.vertex_at(k) for route in routes for k in range(len(route.arr))})
    anywhere = st.integers(0, 200).map(_vertex)
    origin = draw(st.one_of(st.sampled_from(visited), anywhere))
    destination = draw(st.one_of(st.sampled_from(visited), anywhere))
    if destination == origin:
        destination = _vertex(origin + 1)
    if draw(st.booleans()):
        arrivals = sorted({arrival for route in routes for arrival in route.arr})
        deadline = max(0.0, draw(st.sampled_from(arrivals)) + draw(
            st.sampled_from([-TIME_QUANTUM, 0.0, TIME_QUANTUM, 2 * TIME_QUANTUM,
                             0.5, 30.0, 200.0])
        ))
    else:
        deadline = earliest + float(draw(st.integers(min_value=30, max_value=4000)))
    request = Request(
        id=1000,
        origin=origin,
        destination=destination,
        release_time=0.0,
        deadline=deadline,
        penalty=10.0,
        capacity=draw(st.integers(min_value=1, max_value=4)),  # may exceed a capacity
    )
    return routes, request


# --------------------------------------------------------------------- helpers


def _scalar(operator: InsertionOperator, route: Route, request: Request, oracle, direct):
    """The scalar walk on one route, passed ``L`` like the planners pass it."""
    return operator.best_insertion(route, request, oracle, direct)


def _assert_block_equals_scalar(operator, routes, request, oracle, block=None):
    """Bit-for-bit agreement plus the query-count contract; returns the result."""
    direct = oracle.distance(request.origin, request.destination)
    before = oracle.counters.distance_queries
    found = operator.best_insertions(routes, request, oracle, direct, block=block)
    block_queries = oracle.counters.distance_queries - before

    scalar_queries = 0
    fitting = 0
    for index, route in enumerate(routes):
        before = oracle.counters.distance_queries
        expected = _scalar(operator, route, request, oracle, direct)
        scalar_queries += oracle.counters.distance_queries - before
        fitting += request.capacity <= route.worker.capacity
        assert found.pickup_index[index] == expected.pickup_index
        assert found.dropoff_index[index] == expected.dropoff_index
        if expected.feasible:
            assert found.delta[index] == expected.delta  # exact, not approx
        else:
            assert math.isinf(found.delta[index])
    assert scalar_queries <= block_queries <= scalar_queries + 2 * fitting
    return found


def _reached(operator, routes, request, direct) -> int:
    """``popcount(reached)``: scanned stops plus their successors, from ``arr`` alone."""
    total = 0
    margin = direct if operator.aggressive_break else 0.0
    for route in routes:
        if request.capacity > route.worker.capacity:
            continue
        last = route.num_stops
        for j, arrival in enumerate(route.arr):
            if arrival + margin > request.deadline:
                last = min(j + 1, route.num_stops)
                break
        total += last + 1
    return total


# ------------------------------------------------------------- property tests


class TestBlockEqualsScalar:
    @pytest.mark.parametrize("aggressive", [False, True], ids=["conservative", "aggressive"])
    @given(block_scenarios())
    @_SETTINGS
    def test_bit_for_bit_and_query_count(self, aggressive, scenario):
        routes, request = scenario
        operator = _OPERATORS[aggressive]
        direct = _ORACLE.distance(request.origin, request.destination)
        before = _ORACLE.counters.distance_queries
        operator.best_insertions(routes, request, _ORACLE, direct)
        assert _ORACLE.counters.distance_queries - before == 2 * _reached(
            operator, routes, request, direct
        )
        _assert_block_equals_scalar(operator, routes, request, _ORACLE)

    @given(block_scenarios())
    @_SETTINGS
    def test_delta_is_the_exhaustive_optimum(self, scenario):
        routes, request = scenario
        direct = _ORACLE.distance(request.origin, request.destination)
        found = _OPERATORS[False].best_insertions(routes, request, _ORACLE, direct)
        for index, route in enumerate(routes):
            expected = _scalar(_BASIC, route, request, _ORACLE, direct)
            if expected.feasible:
                assert found.delta[index] == expected.delta
                applied = route.with_insertion(
                    request, int(found.pickup_index[index]),
                    int(found.dropoff_index[index]), _ORACLE,
                )
                assert applied.is_feasible(_ORACLE)
            else:
                assert math.isinf(found.delta[index])

    @given(block_scenarios(), st.randoms(use_true_random=False))
    @_SETTINGS
    def test_row_subsets_in_any_order(self, scenario, rng):
        """Rows gathered from a deeper table, permuted, some dropped or repeated."""
        routes, request = scenario
        table = RouteBlock([route.worker.capacity for route in routes])  # depth 8
        for row, route in enumerate(routes):
            table.write_route(row, route)  # deepens past 8 stops on demand
        rows = [rng.randrange(len(routes)) for _ in range(rng.randint(1, 2 * len(routes)))]
        subset = [routes[row] for row in rows]
        block = table.take(np.asarray(rows, dtype=np.int64))
        for operator in _OPERATORS.values():
            _assert_block_equals_scalar(operator, subset, request, _ORACLE, block=block)

    def test_generators_reach_the_hard_cases(self):
        """The strategies above do produce deep blocks, mid-route resets and
        scans cut short — otherwise the properties would be vacuous."""
        deep = resets = cut = oversized = 0

        @given(block_scenarios())
        @settings(max_examples=150, deadline=None, derandomize=True,
                  suppress_health_check=list(HealthCheck))
        def sweep(scenario):
            nonlocal deep, resets, cut, oversized
            routes, request = scenario
            fitting = [r for r in routes if request.capacity <= r.worker.capacity]
            oversized += len(fitting) < len(routes)
            if not fitting:
                return
            scan = BlockScan(RouteBlock.from_routes(fitting), request, break_margin=0.0)
            deep += scan.width > 8
            resets += bool((scan.resets[:-1] & scan.extendable[1:]).any())
            cut += bool((scan.in_route & ~scan.scanned).any())

        sweep()
        assert min(deep, resets, cut, oversized) >= 5, (deep, resets, cut, oversized)


# ---------------------------------------------------------- hand-built cases


class TestHandBuiltCases:
    def test_deadline_cuts_the_scan_at_every_j(self):
        """Sweep the deadline across every ``arr[j]`` of a 10-stop route,
        exactly on it and one tick either side, under both early exits."""
        worker = make_worker(location=_vertex(3), capacity=5)
        route = empty_route(worker, start_time=40.0)
        route.refresh(_ORACLE)
        for request_id in range(5):
            rider = make_request(
                request_id, origin=_vertex(7 * request_id + 5),
                destination=_vertex(11 * request_id + 20), deadline=50_000.0,
            )
            found = _OPERATORS[False].best_insertion(route, rider, _ORACLE)
            assert found.feasible
            route = route.with_insertion(rider, found.pickup_index, found.dropoff_index, _ORACLE)
        assert route.num_stops == 10
        short = empty_route(make_worker(worker_id=1, location=_vertex(9)), start_time=40.0)
        short.refresh(_ORACLE)
        for arrival in route.arr:
            for nudge in (-TIME_QUANTUM, 0.0, TIME_QUANTUM, 25.0):
                if arrival + nudge < 0:
                    continue
                request = make_request(
                    1000, origin=_vertex(15), destination=_vertex(33),
                    deadline=arrival + nudge,
                )
                for operator in _OPERATORS.values():
                    _assert_block_equals_scalar(operator, [route, short], request, _ORACLE)

    def test_full_vehicle_resets_dio_mid_route(self):
        """Line 0-1-...-11 (10 s edges): a one-seat vehicle at 0 is due at 3 to
        carry a rider to 6, with 10 s to spare. A new rider 1 -> 8 could be
        picked up on the way for free (``Dio = 0`` after ``j = 0``) and dropped
        after 6 for 20 s — through the full leg. The detour found at ``j = 0``
        must be forgotten at ``j = 1``, leaving only the append at the end."""
        oracle = DistanceOracle(build_line_network(num_vertices=12), backend="apsp")
        route = empty_route(make_worker(location=0, capacity=1))
        route.refresh(oracle)
        first = make_request(1, origin=3, destination=6, deadline=70.0)
        route = route.with_insertion(first, 0, 0, oracle)
        assert route.picked == [0, 1, 0] and route.slack[0] == 10.0
        request = make_request(2, origin=1, destination=8)
        found = _assert_block_equals_scalar(_OPERATORS[False], [route], request, oracle)
        assert (found.pickup_index[0], found.dropoff_index[0]) == (2, 2)
        assert found.delta[0] == 50.0 + 70.0  # 6 -> 1 -> 8, appended
        expected = _BASIC.best_insertion(route, request, oracle)
        assert found.delta[0] == expected.delta

    def test_first_of_equal_pickup_detours_keeps_the_pickup(self):
        """On a line every on-the-way pickup costs detour 0: ``Plc`` must stay
        at the first such position (strict ``<``), as in the scalar walk."""
        oracle = DistanceOracle(build_line_network(num_vertices=12), backend="apsp")
        route = empty_route(make_worker(location=0, capacity=4))
        route.refresh(oracle)
        for request_id, (origin, destination) in enumerate([(2, 4), (5, 7)]):
            rider = make_request(request_id, origin=origin, destination=destination)
            found = _OPERATORS[False].best_insertion(route, rider, oracle)
            route = route.with_insertion(rider, found.pickup_index, found.dropoff_index, oracle)
        # the pickup at 2 is free after l_0 (0 -> 2) and again after l_1 (the
        # stop at 2 itself); the drop-off at 10 has to be appended
        request = make_request(9, origin=2, destination=10)
        found = _assert_block_equals_scalar(_OPERATORS[False], [route], request, oracle)
        assert (found.pickup_index[0], found.dropoff_index[0]) == (0, 4)

    def test_oversized_request_costs_no_query(self):
        route = empty_route(make_worker(location=_vertex(0), capacity=1))
        route.refresh(_ORACLE)
        request = make_request(5, origin=_vertex(3), destination=_vertex(9), capacity=3)
        before = _ORACLE.counters.distance_queries
        found = _OPERATORS[False].best_insertions([route], request, _ORACLE, direct=10.0)
        assert _ORACLE.counters.distance_queries == before
        assert math.isinf(found.delta[0])
        assert (found.pickup_index[0], found.dropoff_index[0]) == (-1, -1)

    def test_default_entry_point_is_the_scalar_loop(self):
        """Operators without a kernel answer through the base-class loop, which
        passes ``L`` to each walk and writes no route's memo."""
        routes = []
        for worker_id in range(3):
            route = empty_route(make_worker(worker_id, location=_vertex(5 * worker_id)))
            route.refresh(_ORACLE)
            routes.append(route)
        request = make_request(7, origin=_vertex(12), destination=_vertex(40))
        direct = _ORACLE.distance(request.origin, request.destination)
        found = _BASIC.best_insertions(routes, request, _ORACLE, direct)
        for index, route in enumerate(routes):
            expected = _scalar(_BASIC, route, request, _ORACLE, direct)
            assert found.delta[index] == expected.delta
            assert found.pickup_index[index] == expected.pickup_index
            assert found.dropoff_index[index] == expected.dropoff_index
            assert not route._direct_distances


# ------------------------------------------------------------ live fleet rows


def _probe_live_rows(service, probes, rng) -> int:
    """Kernel on ``fleet.table`` rows vs scalar walk on the ``Route`` objects."""
    fleet = service.fleet
    oracle = service.instance.oracle
    table = fleet.table
    feasible = 0
    for request in probes:
        probe = Request(
            id=10_000 + request.id, origin=request.origin, destination=request.destination,
            release_time=fleet.clock,
            deadline=fleet.clock + rng.choice([120.0, 400.0, 900.0, 2400.0]),
            penalty=request.penalty, capacity=request.capacity,
        )
        rows = np.flatnonzero(table.online)
        rows = rows[np.asarray(rng.sample(range(rows.size), rows.size), dtype=np.int64)]
        routes = [state.route for state in fleet.states_of(rows)]
        for operator in _OPERATORS.values():
            found = _assert_block_equals_scalar(
                operator, routes, probe, oracle, block=table.take(rows)
            )
            feasible += int(np.isfinite(found.delta).sum())
    return feasible


class TestLiveFleetRows:
    def test_mid_run_after_partial_advancement_and_repaired_closure(self):
        rng = random.Random(17)
        config = ScenarioConfig(city="small-grid", num_workers=12, num_requests=90,
                                worker_capacity=3, horizon_hours=0.5, seed=11)
        spec = PlatformSpec(scenario=config, dispatcher=DispatcherSpec.parse("batch"))
        service = MatchingService.from_spec(spec)
        backend = service.instance.oracle.backend
        assert backend.name == "apsp"
        requests = service.instance.requests
        for request in requests[:40]:
            service.submit(request)
        fleet = service.fleet
        # lazily advanced: some busy workers sit mid-leg on a recorded path
        assert any(
            state.route.concrete_path is not None and not state.route.is_empty
            for state in fleet.states.values()
        )
        feasible = _probe_live_rows(service, requests[40:46], rng)

        edge = _busy_edge(service)
        assert edge is not None, "no busy worker to disrupt"
        removed = service.close_edge(edge.u, edge.v)
        assert backend.stats()["repairs"] >= 1  # repaired in place, not rebuilt
        feasible += _probe_live_rows(service, requests[46:52], rng)
        for request in requests[40:70]:
            service.submit(request)
        feasible += _probe_live_rows(service, requests[70:76], rng)
        service.reopen_edge(removed)
        feasible += _probe_live_rows(service, requests[76:82], rng)
        assert feasible > 20  # the probes were not all trivially infeasible
        service.drain()
