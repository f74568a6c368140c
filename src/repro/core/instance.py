"""A self-contained URPSM problem instance.

Bundles the road network (with its distance oracle), the worker fleet, the
request stream and the objective parameterisation. The dynamic simulator
consumes instances; the workload generators produce them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.objective import ObjectiveConfig, paper_default_objective
from repro.core.timegrid import require_on_grid
from repro.core.types import Request, Worker
from repro.exceptions import ConfigurationError
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle


@dataclass(frozen=True, slots=True)
class WorkerShift:
    """Duty window of one worker (dynamic-fleet extension).

    Outside ``[start, end]`` the worker accepts no new assignments; the window
    is inclusive at both bounds (a request released exactly at ``end`` may
    still be assigned — :class:`~repro.simulation.events.WorkerOffline` sorts
    after arrivals at the same timestamp). A route in progress at ``end`` is
    still completed. ``end=None`` means the shift never ends. At most one
    shift per worker is supported.
    """

    worker_id: int
    start: float = 0.0
    end: float | None = None


@dataclass(frozen=True, slots=True)
class Cancellation:
    """A rider cancelling request ``request_id`` at absolute ``time``."""

    request_id: int
    time: float


@dataclass
class InstanceDynamics:
    """Optional dynamic-fleet behaviour layered on top of an instance.

    The seed's request-stream loop cannot replay these; they require the
    event-driven kernel (:mod:`repro.simulation.engine`).
    """

    cancellations: list[Cancellation] = field(default_factory=list)
    shifts: list[WorkerShift] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """Whether there is no dynamic behaviour at all."""
        return not self.cancellations and not self.shifts


@dataclass
class URPSMInstance:
    """One URPSM problem: network + oracle + workers + time-ordered requests.

    Attributes:
        network: the road network.
        oracle: the shared distance oracle over ``network``.
        workers: the fleet.
        requests: requests sorted by release time (enforced by
            :meth:`validate`).
        objective: the (alpha, penalty) parameterisation.
        name: human-readable name used in reports.
        dynamics: optional cancellations / worker shifts (event kernel only).
    """

    network: RoadNetwork
    oracle: DistanceOracle
    workers: list[Worker]
    requests: list[Request]
    objective: ObjectiveConfig = field(default_factory=paper_default_objective)
    name: str = "urpsm-instance"
    dynamics: InstanceDynamics | None = None

    def validate(self) -> None:
        """Check referential integrity; raise :class:`ConfigurationError` otherwise."""
        if not self.workers:
            raise ConfigurationError("an instance needs at least one worker")
        worker_ids = [worker.id for worker in self.workers]
        if len(set(worker_ids)) != len(worker_ids):
            raise ConfigurationError("duplicate worker identifiers")
        request_ids = [request.id for request in self.requests]
        if len(set(request_ids)) != len(request_ids):
            raise ConfigurationError("duplicate request identifiers")
        for worker in self.workers:
            if not self.network.has_vertex(worker.initial_location):
                raise ConfigurationError(
                    f"worker {worker.id} starts at unknown vertex {worker.initial_location}"
                )
        previous_release = float("-inf")
        for request in self.requests:
            if not self.network.has_vertex(request.origin):
                raise ConfigurationError(
                    f"request {request.id} has unknown origin {request.origin}"
                )
            if not self.network.has_vertex(request.destination):
                raise ConfigurationError(
                    f"request {request.id} has unknown destination {request.destination}"
                )
            if request.release_time < previous_release:
                raise ConfigurationError("requests must be sorted by release time")
            previous_release = request.release_time
        self._validate_dynamics()

    def _validate_dynamics(self) -> None:
        if self.dynamics is None:
            return
        worker_ids = {worker.id for worker in self.workers}
        requests_by_id = {request.id: request for request in self.requests}
        shifted_workers: set[int] = set()
        for shift in self.dynamics.shifts:
            if shift.worker_id not in worker_ids:
                raise ConfigurationError(f"shift references unknown worker {shift.worker_id}")
            if shift.worker_id in shifted_workers:
                raise ConfigurationError(
                    f"worker {shift.worker_id} has more than one shift; "
                    "only one duty window per worker is supported"
                )
            shifted_workers.add(shift.worker_id)
            require_on_grid(shift.start, f"worker {shift.worker_id}: shift start")
            if shift.end is not None:
                require_on_grid(shift.end, f"worker {shift.worker_id}: shift end")
            if shift.start < 0:
                raise ConfigurationError(f"worker {shift.worker_id}: negative shift start")
            if shift.end is not None and shift.end <= shift.start:
                raise ConfigurationError(
                    f"worker {shift.worker_id}: shift ends at {shift.end} "
                    f"before it starts at {shift.start}"
                )
        for cancellation in self.dynamics.cancellations:
            request = requests_by_id.get(cancellation.request_id)
            if request is None:
                raise ConfigurationError(
                    f"cancellation references unknown request {cancellation.request_id}"
                )
            require_on_grid(cancellation.time, f"request {request.id}: cancellation time")
            if cancellation.time < request.release_time:
                raise ConfigurationError(
                    f"request {request.id} cancelled at {cancellation.time} "
                    f"before its release at {request.release_time}"
                )

    # ------------------------------------------------------------ statistics

    def statistics(self) -> dict[str, float]:
        """Aggregate instance statistics (Table 4 flavour)."""
        stats = self.network.statistics()
        stats.update(
            {
                "workers": float(len(self.workers)),
                "requests": float(len(self.requests)),
                "alpha": self.objective.alpha,
            }
        )
        if self.requests:
            horizons = [request.time_window for request in self.requests]
            stats["mean_time_window_s"] = sum(horizons) / len(horizons)
            stats["horizon_s"] = max(request.release_time for request in self.requests)
        return stats

    @property
    def num_workers(self) -> int:
        """Fleet size |W|."""
        return len(self.workers)

    @property
    def num_requests(self) -> int:
        """Number of requests |R|."""
        return len(self.requests)
