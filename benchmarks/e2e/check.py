"""Independent post-drain checker of routes and fleet state.

Written against the plain shape of the fleet's service records (request,
worker, pickup time, drop-off time) and sharing no code with the repo's own
stress-harness invariants, so a bug in one checker is not a bug in both.

Run ``python3 benchmarks/e2e/check.py`` for the self-test: it corrupts clean
records (drop-off before pickup, an overfull leg, ...) and confirms each
corruption is reported.
"""

from __future__ import annotations

from types import SimpleNamespace

#: float slack on time comparisons, in simulated seconds.
TOLERANCE = 1e-6


def check_records(records, capacity: int, worker_id, *, enforce_deadlines: bool) -> list[dict]:
    """Violations among one worker's service records after drain.

    Checks release <= pickup <= drop-off, every accepted rider delivered,
    drop-off <= deadline (only when no street ever closed) and, by a sweep
    over pickup/drop-off events, that the load never exceeds ``capacity``.
    """
    violations: list[dict] = []
    events: list[tuple[float, int]] = []
    for record in records:
        request = record.request
        pickup, dropoff = record.pickup_time, record.dropoff_time
        if record.worker_id != worker_id:
            violations.append({"kind": "wrong_holder", "request": request.id,
                               "record_worker": record.worker_id, "holder": worker_id})
        if pickup is None or dropoff is None:
            violations.append({"kind": "undelivered_after_drain", "request": request.id,
                               "pickup_time": pickup, "dropoff_time": dropoff})
            continue
        if pickup < request.release_time - TOLERANCE:
            violations.append({"kind": "pickup_before_release", "request": request.id,
                               "pickup_time": pickup, "release_time": request.release_time})
        if dropoff < pickup - TOLERANCE:
            violations.append({"kind": "dropoff_before_pickup", "request": request.id,
                               "pickup_time": pickup, "dropoff_time": dropoff})
        if enforce_deadlines and dropoff > request.deadline + TOLERANCE:
            violations.append({"kind": "deadline_missed", "request": request.id,
                               "dropoff_time": dropoff, "deadline": request.deadline})
        events.append((pickup, request.capacity))
        events.append((dropoff, -request.capacity))
    # at one instant riders leave before others board (negative deltas first)
    load = peak = 0
    for _, delta in sorted(events):
        load += delta
        peak = max(peak, load)
    if peak > capacity:
        violations.append({"kind": "capacity_overflow", "worker": worker_id,
                           "peak_load": peak, "capacity": capacity})
    return violations


def check_fleet(fleet, *, enforce_deadlines: bool) -> list[dict]:
    """Violations over ``fleet.states[*].assigned_requests`` after drain."""
    violations: list[dict] = []
    holder_of: dict[int, int] = {}
    for worker_id, state in fleet.states.items():
        records = list(state.assigned_requests.values())
        for record in records:
            previous = holder_of.setdefault(record.request.id, worker_id)
            if previous != worker_id:
                violations.append({"kind": "assigned_twice", "request": record.request.id,
                                   "workers": [previous, worker_id]})
        violations.extend(
            check_records(records, state.worker.capacity, worker_id,
                          enforce_deadlines=enforce_deadlines)
        )
    return violations


def completed_records(fleet) -> int:
    """Number of delivered riders (one *operation* each in the failure count)."""
    return sum(
        1
        for state in fleet.states.values()
        for record in state.assigned_requests.values()
        if record.dropoff_time is not None
    )


def _record(request_id, release, deadline, pickup, dropoff, riders=1, worker_id=7):
    request = SimpleNamespace(id=request_id, release_time=release, deadline=deadline,
                              capacity=riders)
    return SimpleNamespace(request=request, worker_id=worker_id,
                           pickup_time=pickup, dropoff_time=dropoff)


def self_test() -> None:
    """Seed one corruption at a time into clean records; each must be caught."""

    def expect(label, records, wanted, capacity=4, enforce_deadlines=True):
        found = check_records(records, capacity, 7, enforce_deadlines=enforce_deadlines)
        kinds = sorted(violation["kind"] for violation in found)
        # raised, not asserted: the self-test must also bite under ``python -O``
        if kinds != wanted:
            raise AssertionError(f"{label}: expected {wanted}, checker reported {kinds}")

    clean = [_record(1, 0.0, 600.0, 50.0, 300.0, riders=2),
             _record(2, 10.0, 700.0, 100.0, 400.0, riders=2),
             _record(3, 350.0, 900.0, 400.0, 800.0, riders=4)]
    expect("clean records", clean, [])
    swapped = [_record(1, 0.0, 600.0, 300.0, 50.0, riders=2)] + clean[1:]
    expect("drop-off before pickup", swapped, ["dropoff_before_pickup"])
    overfull = clean[:2] + [_record(3, 150.0, 900.0, 200.0, 800.0, riders=1)]
    expect("overfull leg", overfull, ["capacity_overflow"])
    expect("pickup before release", [_record(1, 60.0, 600.0, 50.0, 300.0)],
           ["pickup_before_release"])
    late = [_record(1, 0.0, 200.0, 50.0, 300.0)]
    expect("missed deadline", late, ["deadline_missed"])
    expect("deadline slip under closures", late, [], enforce_deadlines=False)
    expect("never delivered", [_record(1, 0.0, 600.0, 50.0, None)], ["undelivered_after_drain"])
    expect("filed under the wrong worker", [_record(1, 0.0, 600.0, 50.0, 300.0, worker_id=8)],
           ["wrong_holder"])


if __name__ == "__main__":
    self_test()
    print("check.py self-test: every seeded corruption was reported")
