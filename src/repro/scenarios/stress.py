"""Seeded scenario fuzzer / stress harness.

:func:`generate_stress_scenario` derives a random-but-reproducible
(:class:`~repro.workloads.scenarios.ScenarioConfig`,
:class:`~repro.scenarios.program.ScenarioProgram`) pair from a master seed
and a scenario index via SeedSequence spawn keys, so every scenario is an
independent stream and the whole sweep replays bit-for-bit from one seed.

:func:`run_stress` sweeps those scenarios against every registry dispatcher
(plus sharded and cluster serving), flagging

* **crashes** — any exception out of compile/run;
* **non-determinism** — rerunning the same (scenario, dispatcher) pair must
  reproduce the exact metrics fingerprint (float bits included);
* **invariant violations** — negative waits, dropoff before pickup,
  deadline breaches (disruption-free programs only; closures may
  legitimately slip committed arrivals past deadlines), and per-worker
  capacity overflows reconstructed from the completion records;
* **served-rate cliffs** — a dispatcher serving dramatically less than the
  best dispatcher on the same scenario (reported, not failed: some
  algorithms are legitimately weak on adversarial programs).

Cluster combinations run the full program, disruptions included — the
front door broadcasts live closures/reopenings to its shard worker
processes via the replica-sync update protocol, so nothing is stripped and
the determinism rerun covers the cluster mutation path too.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.dispatch.registry import DispatcherSpec, list_dispatchers
from repro.scenarios.program import (
    DemandSurge,
    FleetClass,
    NetworkDisruption,
    ScenarioProgram,
    WorkloadClass,
)
from repro.scenarios.runner import ScenarioRunResult, run_program
from repro.service.spec import PlatformSpec
from repro.utils.rng import derive_spawned_seed, make_rng
from repro.workloads.scenarios import ScenarioConfig

_STRESS_CITIES = ("small-grid", "random", "chengdu-like")
_STRESS_CITY_WEIGHTS = (0.45, 0.45, 0.10)


def default_stress_dispatchers() -> list[str]:
    """Every registry dispatcher, plus one sharded and one cluster variant.

    The plain names cover every in-process algorithm; the ``sharded:`` and
    ``cluster:`` entries exercise the partitioned and process-isolated
    serving paths on the reference algorithm.
    """
    return list_dispatchers() + ["sharded:pruneGreedyDP", "cluster:pruneGreedyDP"]


def generate_stress_scenario(
    master_seed: int, index: int, *, allow_disruptions: bool = True
) -> tuple[ScenarioConfig, ScenarioProgram]:
    """Derive stress scenario ``index`` of the sweep keyed by ``master_seed``.

    Scenarios are deliberately small (6–14 workers, 30–80 requests, compact
    cities) so a whole sweep finishes in CI; the *structure* — fleet mixes,
    workload mixes, surges, disruptions, cancellations — is where the fuzzing
    happens. The same ``(master_seed, index)`` always yields the same pair.
    """
    seed = derive_spawned_seed(master_seed, "stress", index)
    rng = make_rng(seed)

    city = _STRESS_CITIES[int(rng.choice(len(_STRESS_CITIES), p=_STRESS_CITY_WEIGHTS))]
    num_workers = int(rng.integers(6, 15))
    num_requests = int(rng.integers(30, 81))
    horizon_hours = float(rng.uniform(1.0, 2.0))
    cancellation_rate = float(rng.uniform(0.05, 0.2)) if rng.random() < 0.3 else 0.0
    config = ScenarioConfig(
        city=city,
        num_workers=num_workers,
        num_requests=num_requests,
        worker_capacity=int(rng.integers(2, 7)),
        deadline_minutes=float(rng.uniform(8.0, 15.0)),
        horizon_hours=horizon_hours,
        cancellation_rate=cancellation_rate,
        seed=seed,
    )

    fleet: tuple[FleetClass, ...] = ()
    if rng.random() < 0.4:
        class_count = int(rng.integers(2, 4))
        classes = []
        for class_index in range(class_count):
            classes.append(
                FleetClass(
                    name=f"class-{class_index}",
                    count=int(rng.integers(2, 7)),
                    capacity=int(rng.integers(1, 7)),
                    shift_hours=(
                        float(rng.uniform(0.5, horizon_hours)) if rng.random() < 0.3 else 0.0
                    ),
                    hotspot_share=float(rng.uniform(0.2, 0.8)),
                )
            )
        fleet = tuple(classes)

    workload: tuple[WorkloadClass, ...] = ()
    if rng.random() < 0.4:
        class_count = int(rng.integers(2, 4))
        classes = []
        for class_index in range(class_count):
            classes.append(
                WorkloadClass(
                    name=f"load-{class_index}",
                    count=int(rng.integers(10, 31)),
                    deadline_minutes=(
                        float(rng.uniform(6.0, 25.0)) if rng.random() < 0.5 else None
                    ),
                    penalty_factor=(
                        float(rng.uniform(4.0, 16.0)) if rng.random() < 0.5 else None
                    ),
                    capacity=int(rng.integers(1, 3)) if rng.random() < 0.5 else None,
                )
            )
        workload = tuple(classes)

    surges: tuple[DemandSurge, ...] = ()
    if rng.random() < 0.5:
        surge_count = int(rng.integers(1, 3))
        surges = tuple(
            DemandSurge(
                name=f"surge-{surge_index}",
                start_hours=float(rng.uniform(0.2, 0.7) * horizon_hours),
                duration_minutes=float(rng.uniform(10.0, 20.0)),
                count=int(rng.integers(8, 21)),
                deadline_minutes=float(rng.uniform(8.0, 15.0)) if rng.random() < 0.5 else None,
                capacity=int(rng.integers(1, 3)) if rng.random() < 0.3 else None,
                spread_fraction=float(rng.uniform(0.02, 0.08)),
            )
            for surge_index in range(surge_count)
        )

    disruptions: tuple[NetworkDisruption, ...] = ()
    if allow_disruptions and rng.random() < 0.5:
        disruption_count = int(rng.integers(1, 3))
        disruptions = tuple(
            NetworkDisruption(
                name=f"closure-{disruption_index}",
                start_hours=float(rng.uniform(0.2, 0.6) * horizon_hours),
                duration_minutes=(
                    float(rng.uniform(20.0, 40.0)) if rng.random() < 0.6 else None
                ),
                edge_count=int(rng.integers(1, 3)),
            )
            for disruption_index in range(disruption_count)
        )

    program = ScenarioProgram(
        name=f"stress-{index}",
        description=f"fuzzed scenario {index} of master seed {master_seed}",
        fleet=fleet,
        workload=workload,
        surges=surges,
        disruptions=disruptions,
    ).validate()
    return config, program


@dataclass
class StressReport:
    """Outcome of one :func:`run_stress` sweep.

    Attributes:
        master_seed: sweep seed.
        num_scenarios: scenarios generated.
        dispatchers: dispatcher names swept.
        runs: one record per (scenario, dispatcher) combination.
        crashes: combinations that raised (with tracebacks).
        nondeterministic: combinations whose rerun fingerprints diverged.
        violations: invariant violations (capacity/deadline/negative waits).
        cliffs: served-rate cliffs (informational, not failures).
    """

    master_seed: int
    num_scenarios: int
    dispatchers: list[str]
    runs: list[dict] = field(default_factory=list)
    crashes: list[dict] = field(default_factory=list)
    nondeterministic: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    cliffs: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No crashes, no non-determinism, no invariant violations."""
        return not (self.crashes or self.nondeterministic or self.violations)

    def to_dict(self) -> dict:
        """JSON-ready representation (``BENCH_stress.json`` payload)."""
        return {
            "master_seed": self.master_seed,
            "num_scenarios": self.num_scenarios,
            "dispatchers": list(self.dispatchers),
            "total_runs": len(self.runs),
            "ok": self.ok,
            "crashes": self.crashes,
            "nondeterministic": self.nondeterministic,
            "violations": self.violations,
            "cliffs": self.cliffs,
            "runs": self.runs,
        }


def run_stress(
    num_scenarios: int = 30,
    dispatchers: list[str] | None = None,
    *,
    master_seed: int = 2018,
    reruns: int = 1,
    cliff_threshold: float = 0.5,
    num_shards: int = 2,
    progress: Callable[[str], None] | None = None,
) -> StressReport:
    """Sweep seeded random scenarios against the dispatcher registry.

    Args:
        num_scenarios: scenarios to generate (indices ``0..n-1``).
        dispatchers: dispatcher names (default
            :func:`default_stress_dispatchers`).
        master_seed: sweep seed; the whole report is a pure function of it.
        reruns: extra reruns per combination for the determinism check
            (0 disables).
        cliff_threshold: flag a dispatcher whose served rate falls this far
            below the scenario's best.
        num_shards: shard count for ``sharded:``/``cluster:`` entries.
        progress: optional line sink for live progress output.
    """
    dispatchers = list(default_stress_dispatchers() if dispatchers is None else dispatchers)
    report = StressReport(
        master_seed=master_seed, num_scenarios=num_scenarios, dispatchers=dispatchers
    )
    for index in range(num_scenarios):
        config, program = generate_stress_scenario(master_seed, index)
        scenario_rates: dict[str, float] = {}
        for dispatcher_name in dispatchers:
            spec = _stress_spec(config, dispatcher_name, num_shards)
            # cluster combinations run disruptions like everyone else since
            # the replica-sync protocol gained NetworkUpdateCommand; the key
            # stays in the combo schema so trajectory diffs show the change
            effective = program
            combo = {
                "scenario": index,
                "seed": config.seed,
                "city": config.city,
                "workers": config.num_workers,
                "requests": config.num_requests,
                "program": program.name,
                "disruptions_stripped": len(effective.disruptions) != len(program.disruptions),
                "dispatcher": dispatcher_name,
            }
            if progress is not None:
                progress(f"[{index + 1}/{num_scenarios}] {program.name} x {dispatcher_name}")
            try:
                outcome = run_program(spec, effective)
                fingerprints = [_fingerprint(outcome)]
                for _ in range(reruns):
                    fingerprints.append(_fingerprint(run_program(spec, effective)))
            except Exception as exc:  # noqa: BLE001 - the harness reports, never dies
                report.crashes.append(
                    {**combo, "error": repr(exc), "traceback": traceback.format_exc()}
                )
                report.runs.append({**combo, "crashed": True})
                continue
            if any(fingerprint != fingerprints[0] for fingerprint in fingerprints[1:]):
                report.nondeterministic.append({**combo, "fingerprints": fingerprints})
            violations = _check_invariants(outcome, allow_deadline_slip=bool(effective.disruptions))
            for violation in violations:
                report.violations.append({**combo, **violation})
            result = outcome.result
            scenario_rates[dispatcher_name] = result.served_rate
            report.runs.append(
                {
                    **combo,
                    "crashed": False,
                    "served_rate": result.served_rate,
                    "served": result.served_requests,
                    "rejected": result.rejected_requests,
                    "cancelled": result.cancelled_requests,
                    "unified_cost": result.unified_cost,
                    "deadline_violations": result.deadline_violations,
                    "violations": len(violations),
                }
            )
        if scenario_rates:
            best = max(scenario_rates.values())
            for dispatcher_name, rate in sorted(scenario_rates.items()):
                if rate < best - cliff_threshold:
                    report.cliffs.append(
                        {
                            "scenario": index,
                            "dispatcher": dispatcher_name,
                            "served_rate": rate,
                            "best_rate": best,
                        }
                    )
    return report


def _stress_spec(config: ScenarioConfig, dispatcher_name: str, num_shards: int) -> PlatformSpec:
    """Platform spec for one sweep combination (small shard counts)."""
    dispatcher = DispatcherSpec.parse(dispatcher_name)
    if (dispatcher.sharded or dispatcher.cluster) and dispatcher.num_shards <= 1:
        dispatcher = replace(dispatcher, num_shards=num_shards)
    return PlatformSpec(scenario=config, dispatcher=dispatcher)


def _fingerprint(outcome: ScenarioRunResult) -> tuple:
    """Exact (bit-level) metrics fingerprint for the determinism check."""
    result = outcome.result
    return (
        result.total_requests,
        result.served_requests,
        result.rejected_requests,
        result.cancelled_requests,
        float(result.unified_cost).hex(),
        float(result.total_travel_cost).hex(),
        float(result.mean_wait_seconds).hex(),
        float(result.mean_detour_ratio).hex(),
        result.distance_queries,
    )


def _check_invariants(outcome: ScenarioRunResult, *, allow_deadline_slip: bool) -> list[dict]:
    """Physical-consistency checks over the run's completion records.

    Deadline breaches are only violations for disruption-free programs: a
    street closure after commitment may legitimately slip an arrival past
    its deadline (the run then counts it in ``deadline_violations``).
    """
    violations: list[dict] = []
    capacities = {worker.id: worker.capacity for worker in outcome.compiled.instance.workers}
    per_worker_events: dict[int, list[tuple[float, int]]] = {}
    for record in outcome.completions:
        request = record.request
        if record.pickup_time is not None and record.pickup_time < request.release_time:
            violations.append(
                {
                    "kind": "negative_wait",
                    "request": request.id,
                    "pickup_time": record.pickup_time,
                    "release_time": request.release_time,
                }
            )
        if not record.completed:
            continue
        if record.dropoff_time < record.pickup_time:
            violations.append(
                {
                    "kind": "dropoff_before_pickup",
                    "request": request.id,
                    "pickup_time": record.pickup_time,
                    "dropoff_time": record.dropoff_time,
                }
            )
        if not allow_deadline_slip and record.dropoff_time > request.deadline:
            violations.append(
                {
                    "kind": "deadline_breach",
                    "request": request.id,
                    "dropoff_time": record.dropoff_time,
                    "deadline": request.deadline,
                }
            )
        per_worker_events.setdefault(record.worker_id, []).append(
            (record.pickup_time, request.capacity)
        )
        per_worker_events[record.worker_id].append((record.dropoff_time, -request.capacity))
    for worker_id, events in sorted(per_worker_events.items()):
        load = 0
        peak = 0
        # dropoffs sort before pickups at the same instant (delta -k < +k)
        for _time, delta in sorted(events, key=lambda event: (event[0], event[1])):
            load += delta
            peak = max(peak, load)
        capacity = capacities.get(worker_id)
        if capacity is not None and peak > capacity:
            violations.append(
                {
                    "kind": "capacity_overflow",
                    "worker": worker_id,
                    "peak_load": peak,
                    "capacity": capacity,
                }
            )
    return violations


__all__ = [
    "StressReport",
    "default_stress_dispatchers",
    "generate_stress_scenario",
    "run_stress",
]
