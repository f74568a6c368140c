"""The seed's request loop, kept as a test-only reference for the event kernel.

At every release time it flushes the batches that fell due, walks *every*
worker there with ``WorkerState.advance_to`` (not ``FleetState.advance_all``,
the code under test), marks every grid entry for rewriting and dispatches;
then the bounded final flush and ``finish_all``. No event heap, no route-table
window — so served rate and unified cost must match the kernel's.
"""

from __future__ import annotations

import time

from repro.exceptions import DispatchError
from repro.simulation.engine import MAX_UNPRODUCTIVE_FLUSHES
from repro.simulation.fleet import FleetState
from repro.simulation.metrics import MetricsCollector, SimulationResult


def walk_every_worker(fleet: FleetState, now: float) -> list:
    """Advance every worker to ``now`` one by one; deliveries in fleet order."""
    fleet.set_clock(now)
    completed = [record for state in fleet.states.values() for record in state.advance_to(now)]
    fleet._moved.update(fleet.states)  # the next grid sync rewrites every entry
    return completed


def run_seed_loop(instance, dispatcher) -> SimulationResult:
    """Replay ``instance`` through ``dispatcher`` with the seed's full walk."""
    instance.validate()
    assert instance.dynamics is None or instance.dynamics.is_empty, "dynamics-free only"
    oracle = instance.oracle
    fleet = FleetState(instance.workers, oracle)
    metrics = MetricsCollector(
        algorithm=dispatcher.name, instance_name=instance.name, alpha=instance.objective.alpha
    )
    oracle.reset_counters()
    dispatcher.setup(instance, fleet)

    def record(completions: list) -> None:
        for completed in completions:
            request = completed.request
            metrics.record_completion(completed, oracle.distance(request.origin, request.destination))

    def timed(call):
        started = time.perf_counter()
        result = call()
        metrics.record_dispatch_time(time.perf_counter() - started)
        return result

    def flush(now: float) -> list:
        record(walk_every_worker(fleet, now))
        outcomes = timed(lambda: dispatcher.flush(now))
        for outcome in outcomes:
            metrics.record_outcome(outcome)
        return outcomes

    clock = 0.0
    for request in instance.requests:
        clock = max(clock, request.release_time)
        while (due := dispatcher.next_flush_time()) is not None and due <= clock:
            flush(due)
        record(walk_every_worker(fleet, clock))
        outcome = timed(lambda: dispatcher.dispatch(request, clock))
        if outcome is not None:  # None: deferred into a batch window
            metrics.record_outcome(outcome)
    unproductive = 0
    while (due := dispatcher.next_flush_time()) is not None:
        clock = max(due, clock)
        unproductive = 0 if flush(clock) else unproductive + 1
        if unproductive > MAX_UNPRODUCTIVE_FLUSHES:
            raise DispatchError(f"{dispatcher.name}: the final drain does not terminate")
    record(fleet.finish_all())
    totals = dispatcher.oracle_counter_totals()
    return metrics.finalise(
        total_travel_cost=fleet.total_travel_cost(),
        oracle_counters=totals if totals is not None else oracle.counters,
        index_memory_bytes=dispatcher.memory_estimate_bytes(),
        dispatcher_extra=dispatcher.extra_metrics(),
    )
