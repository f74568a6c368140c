"""The time grid: where time enters the model it lands on a multiple of
``TIME_QUANTUM``, rounded up, and grid sums are exact in any order. A time a
caller builds itself (request, shift, cancellation) must already be on it."""

import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.cluster.dispatcher import ClusterDispatcher
from repro.core.instance import Cancellation, InstanceDynamics, URPSMInstance, WorkerShift
from repro.core.objective import paper_default_objective
from repro.core.timegrid import TIME_QUANTUM, on_grid, require_on_grid
from repro.dispatch import DispatcherConfig
from repro.exceptions import ConfigurationError
from repro.network.graph import Edge
from repro.network.oracle import DistanceOracle
from repro.service import MatchingService, PlatformSpec
from repro.workloads.requests import (
    RequestGeneratorConfig,
    generate_requests,
    poisson_request_stream,
    sample_cancellations,
)
from repro.workloads.scenarios import CITY_BUILDERS
from repro.workloads.workers import WorkerGeneratorConfig, generate_workers, staggered_shifts
from tests.conftest import make_request, make_worker


def is_on_grid(seconds: float) -> bool:
    return (seconds / TIME_QUANTUM).is_integer()


class TestOnGrid:
    def test_the_quantum_is_two_to_the_minus_ten(self):
        assert TIME_QUANTUM == 2.0**-10 == 1 / 1024

    def test_rounds_up_to_the_next_multiple(self):
        assert on_grid(1.37) == 1403 / 1024
        assert on_grid(1e-9) == TIME_QUANTUM
        assert on_grid(-1e-9) == 0.0

    def test_grid_values_are_fixed_points(self):
        for seconds in (0.0, 1.0, 6.0, 5.0 + 1403 / 1024, 2.0**42, 3 * TIME_QUANTUM):
            assert on_grid(seconds) == seconds

    @pytest.mark.parametrize(
        "seconds", [2.0**43, 2.0**43 + 1.0, -(2.0**43), math.inf, -math.inf, math.nan]
    )
    def test_rejects_times_off_the_exact_range_naming_the_field(self, seconds):
        with pytest.raises(ConfigurationError, match="release time"):
            on_grid(seconds, "release time")

    def test_the_last_representable_second_below_the_bound_is_accepted(self):
        assert on_grid(2.0**43 - 1.0) == 2.0**43 - 1.0

    @given(st.lists(st.floats(0.0, 1e6), min_size=2, max_size=40), st.randoms())
    def test_grid_sums_do_not_depend_on_their_order(self, values, rng):
        grid = [on_grid(value) for value in values]
        shuffled = list(grid)
        rng.shuffle(shuffled)
        assert sum(grid) == sum(shuffled) == math.fsum(grid)
        assert all(on_grid(value) >= value for value in values)


class TestWhereTimeEnters:
    def test_edge_cost_is_rounded_up_onto_the_grid(self):
        edge = Edge(u=0, v=1, length=13.7, speed=10.0)
        assert edge.cost == 1403 / 1024 >= 13.7 / 10.0

    def test_generated_requests_keep_an_exact_window(self):
        network = CITY_BUILDERS["small-grid"](3)
        oracle = DistanceOracle(network, backend="apsp")
        config = RequestGeneratorConfig(count=60, deadline_seconds=600.1, seed=5)
        streams = (
            generate_requests(network, oracle, paper_default_objective(), config),
            poisson_request_stream(
                network, oracle, paper_default_objective(), rate_per_second=0.5,
                horizon_seconds=120.0, deadline_seconds=600.1, seed=5,
            ),
        )
        for requests in streams:
            assert requests
            for request in requests:
                assert is_on_grid(request.release_time)
                assert request.deadline - request.release_time == on_grid(600.1)
            for cancellation in sample_cancellations(requests, rate=0.5, seed=1):
                assert is_on_grid(cancellation.time)

    def test_shift_bounds_and_the_batch_window_are_on_the_grid(self):
        network = CITY_BUILDERS["small-grid"](3)
        workers = generate_workers(network, WorkerGeneratorConfig(count=9, seed=2))
        shifts = staggered_shifts(workers, horizon_seconds=7200.0, shift_seconds=1000.3, seed=4)
        for shift in shifts:
            assert is_on_grid(shift.start)
            assert shift.end - shift.start == on_grid(1000.3)
        assert DispatcherConfig(batch_interval=6.0001).batch_interval == on_grid(6.0001)

    def test_a_city_s_edge_costs_sum_exactly_in_any_order(self):
        network = CITY_BUILDERS["chengdu-like"](2018)
        costs = [edge.cost for edge in network.edges()]
        random.Random(7).shuffle(costs)
        assert sum(costs) == math.fsum(costs)

    def test_the_service_clock_is_on_the_grid(self):
        spec = (PlatformSpec.builder().city("small-grid")
                .workload(num_workers=3, num_requests=4).dispatcher("pruneGreedyDP").build())
        service = MatchingService.from_spec(spec)
        service.advance_to(12.3456789)
        assert service.clock == on_grid(12.3456789)
        with pytest.raises(ConfigurationError, match="advance_to"):
            service.advance_to(math.inf)


class TestCallerBuiltTimesMustBeOnTheGrid:
    """``on_grid`` rounds where the model makes a time; a time a caller chose
    is checked instead, so an off-grid value cannot reach the engine."""

    def test_require_on_grid_accepts_grid_values_only(self):
        for seconds in (0.0, 13.0, 5.0 + 1403 / 1024, 2.0**42):
            require_on_grid(seconds, "clock")
        with pytest.raises(ConfigurationError, match="clock"):
            require_on_grid(0.1, "clock")
        with pytest.raises(ConfigurationError, match="clock"):
            require_on_grid(math.inf, "clock")

    def test_an_off_grid_release_time_is_rejected(self):
        with pytest.raises(ConfigurationError, match="release_time"):
            make_request(1, 0, 1, release=0.1, deadline=600.0)

    def test_an_off_grid_deadline_is_rejected(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            make_request(1, 0, 1, release=0.0, deadline=600.0 + TIME_QUANTUM / 2)

    def _instance(self, dynamics: InstanceDynamics) -> URPSMInstance:
        network = CITY_BUILDERS["small-grid"](3)
        return URPSMInstance(
            network, DistanceOracle(network, backend="apsp"), [make_worker(0, 0)],
            [make_request(1, 0, 5, release=10.0, deadline=900.0)], dynamics=dynamics,
        )

    def test_an_off_grid_shift_start_is_rejected(self):
        instance = self._instance(InstanceDynamics(shifts=[WorkerShift(0, start=0.3, end=60.0)]))
        with pytest.raises(ConfigurationError, match="shift start"):
            instance.validate()

    def test_an_off_grid_shift_end_is_rejected(self):
        instance = self._instance(InstanceDynamics(shifts=[WorkerShift(0, start=0.0, end=60.3)]))
        with pytest.raises(ConfigurationError, match="shift end"):
            instance.validate()

    def test_an_off_grid_cancellation_time_is_rejected(self):
        instance = self._instance(InstanceDynamics(cancellations=[Cancellation(1, time=20.3)]))
        with pytest.raises(ConfigurationError, match="cancellation time"):
            instance.validate()

    def test_on_grid_dynamics_validate(self):
        self._instance(InstanceDynamics(
            shifts=[WorkerShift(0, start=0.0, end=60.5)], cancellations=[Cancellation(1, time=20.25)],
        )).validate()

    def test_the_cluster_restart_delay_is_rounded_onto_the_grid(self):
        dispatcher = ClusterDispatcher(restart_delay_s=0.3)
        assert dispatcher.restart_delay_s == on_grid(0.3) > 0.3
