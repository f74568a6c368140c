"""Tests for the basic URPSM entities (Definitions 2-3)."""

import pytest

from repro.core.types import Request, StopKind, Worker, dropoff_stop, pickup_stop
from repro.exceptions import ConfigurationError


class TestRequest:
    def test_valid_request(self):
        request = Request(id=1, origin=0, destination=5, release_time=10.0, deadline=70.0,
                          penalty=3.0, capacity=2)
        assert request.time_window == pytest.approx(60.0)

    def test_deadline_before_release_rejected(self):
        with pytest.raises(ConfigurationError, match="deadline"):
            Request(id=1, origin=0, destination=5, release_time=100.0, deadline=50.0, penalty=1.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ConfigurationError, match="penalty"):
            Request(id=1, origin=0, destination=5, release_time=0.0, deadline=10.0, penalty=-1.0)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            Request(id=1, origin=0, destination=5, release_time=0.0, deadline=10.0,
                    penalty=1.0, capacity=0)

    def test_negative_release_rejected(self):
        with pytest.raises(ConfigurationError, match="release_time"):
            Request(id=1, origin=0, destination=5, release_time=-1.0, deadline=10.0, penalty=1.0)

    @pytest.mark.parametrize("field, times", [
        ("release_time", (0.0001, 10.0)), ("deadline", (0.0, 10.0001)),
    ])
    def test_off_grid_time_rejected(self, field, times):
        with pytest.raises(ConfigurationError, match=field):
            Request(id=1, origin=0, destination=5, release_time=times[0], deadline=times[1],
                    penalty=1.0)

    def test_a_configuration_error_is_a_value_error(self):
        with pytest.raises(ValueError, match="deadline"):
            Request(id=1, origin=0, destination=5, release_time=100.0, deadline=50.0, penalty=1.0)

    def test_requests_are_hashable(self):
        request = Request(id=1, origin=0, destination=5, release_time=0.0, deadline=10.0, penalty=1.0)
        assert request in {request}


class TestWorker:
    def test_valid_worker(self):
        worker = Worker(id=3, initial_location=7, capacity=6)
        assert worker.capacity == 6

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            Worker(id=3, initial_location=7, capacity=0)


class TestStops:
    def test_pickup_stop_properties(self):
        request = Request(id=1, origin=2, destination=9, release_time=0.0, deadline=99.0,
                          penalty=1.0, capacity=3)
        stop = pickup_stop(request)
        assert stop.vertex == 2
        assert stop.is_pickup and not stop.is_dropoff
        assert stop.kind is StopKind.PICKUP
        assert stop.load_change == 3

    def test_dropoff_stop_properties(self):
        request = Request(id=1, origin=2, destination=9, release_time=0.0, deadline=99.0,
                          penalty=1.0, capacity=3)
        stop = dropoff_stop(request)
        assert stop.vertex == 9
        assert stop.is_dropoff and not stop.is_pickup
        assert stop.load_change == -3
