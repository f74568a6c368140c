"""Dynamic simulation of the URPSM setting: events, kernel, fleet, metrics."""

from repro.simulation.engine import EventEngine
from repro.simulation.events import (
    BatchFlush,
    Event,
    RequestArrival,
    RequestCancellation,
    StopCompletion,
    WorkerOffline,
    WorkerOnline,
)
from repro.simulation.fleet import FleetState, ServiceRecord, WorkerState
from repro.simulation.metrics import MetricsCollector, SimulationResult

__all__ = [
    "BatchFlush",
    "Event",
    "EventEngine",
    "FleetState",
    "MetricsCollector",
    "RequestArrival",
    "RequestCancellation",
    "ServiceRecord",
    "SimulationResult",
    "StopCompletion",
    "WorkerOffline",
    "WorkerOnline",
    "WorkerState",
]
