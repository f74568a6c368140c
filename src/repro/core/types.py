"""Problem entities of the URPSM model (Definitions 2-4 of the paper).

* :class:`Request` — origin, destination, release time, deadline, penalty and
  capacity (number of passengers / parcels).
* :class:`Worker` — initial location and capacity.
* :class:`Stop` — one pickup or drop-off location inside a planned route.

All times are seconds since the start of the simulation, on the 2⁻¹⁰ s grid
(:mod:`repro.core.timegrid`); all locations are road-network vertex identifiers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.timegrid import require_on_grid
from repro.exceptions import ConfigurationError
from repro.network.graph import Vertex
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True, slots=True)
class Request:
    """A transportation request (Definition 3).

    Attributes:
        id: unique identifier.
        origin: pickup vertex ``o_r``.
        destination: drop-off vertex ``d_r``.
        release_time: time ``t_r`` at which the platform learns about the request.
        deadline: delivery deadline ``e_r`` (absolute time).
        penalty: platform penalty ``p_r`` incurred if the request is rejected.
        capacity: ``K_r``, number of passengers / items in the request.
    """

    id: int
    origin: Vertex
    destination: Vertex
    release_time: float
    deadline: float
    penalty: float
    capacity: int = 1

    def __post_init__(self) -> None:
        # every failure is a ConfigurationError naming its field
        require_non_negative(self.release_time, "release_time")
        require_on_grid(self.release_time, "release_time")
        require_on_grid(self.deadline, "deadline")
        require_non_negative(self.penalty, "penalty")
        require_positive(self.capacity, "capacity")
        if self.deadline < self.release_time:
            raise ConfigurationError(
                f"request {self.id}: deadline {self.deadline} precedes release "
                f"time {self.release_time}"
            )

    @property
    def time_window(self) -> float:
        """Length of the service window ``e_r - t_r`` in seconds."""
        return self.deadline - self.release_time


@dataclass(frozen=True, slots=True)
class Worker:
    """A worker / vehicle (Definition 2).

    Attributes:
        id: unique identifier.
        initial_location: vertex ``o_w`` where the worker starts.
        capacity: ``K_w``, the maximum number of passengers / items carried at
            any moment.
    """

    id: int
    initial_location: Vertex
    capacity: int = 4

    def __post_init__(self) -> None:
        require_positive(self.capacity, "capacity")


class StopKind(enum.Enum):
    """Whether a route stop is a pickup (origin) or a drop-off (destination)."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"


@dataclass(frozen=True, slots=True)
class Stop:
    """One location of a planned route, tied to a request.

    Attributes:
        vertex: the road-network vertex to visit.
        request: the request being picked up or dropped off.
        kind: pickup or drop-off.
    """

    vertex: Vertex
    request: Request
    kind: StopKind

    @property
    def is_pickup(self) -> bool:
        """Whether this stop picks up the request."""
        return self.kind is StopKind.PICKUP

    @property
    def is_dropoff(self) -> bool:
        """Whether this stop drops off the request."""
        return self.kind is StopKind.DROPOFF

    @property
    def load_change(self) -> int:
        """Signed change in on-board load when the stop is served."""
        return self.request.capacity if self.is_pickup else -self.request.capacity


def pickup_stop(request: Request) -> Stop:
    """The pickup stop of ``request``."""
    return Stop(vertex=request.origin, request=request, kind=StopKind.PICKUP)


def dropoff_stop(request: Request) -> Stop:
    """The drop-off stop of ``request``."""
    return Stop(vertex=request.destination, request=request, kind=StopKind.DROPOFF)


INFEASIBLE = math.inf
"""Sentinel increased-cost value meaning "no feasible insertion exists"."""
