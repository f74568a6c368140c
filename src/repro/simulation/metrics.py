"""Metrics collected during a simulation run.

The paper evaluates every algorithm with three primary metrics (Section 6.1):

* **unified cost** — ``alpha * sum_w D(S_w) + sum_{r rejected} p_r``;
* **served rate** — ``|R+| / |R|``;
* **response time** — average wall-clock time to process one request.

Secondary metrics reported in the text and reproduced here: the number of
shortest-distance queries (to quantify the savings of the Lemma 8 pruning),
the memory footprint of the grid index, and per-request work counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.objective import unified_cost
from repro.core.types import Request
from repro.dispatch.base import DispatchOutcome
from repro.network.oracle import OracleCounters
from repro.simulation.fleet import ServiceRecord


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation run."""

    algorithm: str
    instance_name: str
    alpha: float

    total_requests: int = 0
    served_requests: int = 0
    rejected_requests: int = 0
    decision_rejections: int = 0
    cancelled_requests: int = 0
    """Requests withdrawn by the rider (event-kernel dynamics); they count in
    ``total_requests`` but neither as served nor as rejected, and incur no
    penalty."""

    total_travel_cost: float = 0.0
    total_penalty: float = 0.0
    unified_cost: float = 0.0

    total_dispatch_seconds: float = 0.0
    distance_queries: int = 0
    #: Euclidean lower-bound probes issued (Lemma 7); each is a straight-line
    #: distance, not a shortest-path query, so it is counted apart from
    #: ``distance_queries``.
    lower_bound_queries: int = 0
    candidates_considered: int = 0
    insertions_evaluated: int = 0

    index_memory_bytes: int = 0
    deadline_violations: int = 0

    mean_wait_seconds: float = 0.0
    mean_detour_ratio: float = 0.0

    #: dispatcher/oracle-reported extras; floats, plus the string
    #: ``oracle_backend``.
    extra: dict[str, float | str] = field(default_factory=dict)

    @property
    def served_rate(self) -> float:
        """Fraction of requests served."""
        if self.total_requests == 0:
            return 0.0
        return self.served_requests / self.total_requests

    @property
    def response_time_seconds(self) -> float:
        """Average wall-clock time to process one request."""
        if self.total_requests == 0:
            return 0.0
        return self.total_dispatch_seconds / self.total_requests

    def as_row(self) -> dict[str, float | str]:
        """Flat representation for tabular reports."""
        row: dict[str, float | str] = {
            "algorithm": self.algorithm,
            "instance": self.instance_name,
            "unified_cost": self.unified_cost,
            "served_rate": self.served_rate,
            "response_time_s": self.response_time_seconds,
            "served": self.served_requests,
            "rejected": self.rejected_requests,
            "travel_cost": self.total_travel_cost,
            "penalty": self.total_penalty,
            "distance_queries": self.distance_queries,
            "index_memory_bytes": self.index_memory_bytes,
            "mean_wait_s": self.mean_wait_seconds,
            "mean_detour_ratio": self.mean_detour_ratio,
            "deadline_violations": self.deadline_violations,
        }
        if "path_cache_hit_rate" in self.extra:
            row["path_cache_hit_rate"] = self.extra["path_cache_hit_rate"]
        # sharded runs report routing counters (local hits, escalations, ...)
        for key in sorted(self.extra):
            if key.startswith("sharding_"):
                row[key] = self.extra[key]
        # cluster runs report recovery telemetry next to them
        for key in (
            "cluster_worker_failures",
            "cluster_worker_restarts",
            "cluster_retries",
            "cluster_degraded_dispatches",
            "cluster_network_updates",
            "cluster_update_ack_retries",
        ):
            if key in self.extra:
                row[key] = self.extra[key]
        return row


class MetricsCollector:
    """Accumulates per-request outcomes and produces a :class:`SimulationResult`."""

    def __init__(self, algorithm: str, instance_name: str, alpha: float) -> None:
        self._result = SimulationResult(
            algorithm=algorithm, instance_name=instance_name, alpha=alpha
        )
        self._rejected: list[Request] = []
        self._dispatch_seconds = 0.0
        self._waits: list[float] = []
        self._detour_ratios: list[float] = []

    # ------------------------------------------------------------ recording

    def record_outcome(self, outcome: DispatchOutcome) -> None:
        """Record the dispatch outcome of one request."""
        result = self._result
        result.total_requests += 1
        result.candidates_considered += outcome.candidates_considered
        result.insertions_evaluated += outcome.insertions_evaluated
        if outcome.served:
            result.served_requests += 1
        else:
            result.rejected_requests += 1
            self._rejected.append(outcome.request)
            if outcome.decision_rejected:
                result.decision_rejections += 1

    def record_dispatch_time(self, seconds: float) -> None:
        """Add wall-clock time spent inside the dispatcher."""
        self._dispatch_seconds += seconds

    def record_cancellation(self, request: Request, was_assigned: bool) -> None:
        """Record a rider cancellation.

        Args:
            request: the cancelled request.
            was_assigned: ``True`` when the request had already been assigned
                (and recorded as served) — the earlier outcome is retracted;
                ``False`` when it was still deferred inside a batch window and
                never produced an outcome.
        """
        result = self._result
        result.cancelled_requests += 1
        if was_assigned:
            result.served_requests -= 1
        else:
            result.total_requests += 1

    def record_completion(self, record: ServiceRecord, direct_distance: float) -> None:
        """Record a completed delivery (waiting time, detour ratio, deadline check)."""
        if record.pickup_time is not None:
            self._waits.append(max(record.pickup_time - record.request.release_time, 0.0))
        if record.dropoff_time is not None and direct_distance > 0 and record.pickup_time is not None:
            self._detour_ratios.append(
                (record.dropoff_time - record.pickup_time) / direct_distance
            )
        if not record.on_time:
            self._result.deadline_violations += 1

    # ------------------------------------------------------------- finishing

    def finalise(
        self,
        total_travel_cost: float,
        oracle_counters: OracleCounters,
        index_memory_bytes: int,
        dispatcher_extra: dict[str, float] | None = None,
    ) -> SimulationResult:
        """Compute the derived metrics and return the result object.

        ``dispatcher_extra`` carries dispatcher-reported metrics
        (:meth:`~repro.dispatch.base.Dispatcher.extra_metrics`) into
        :attr:`SimulationResult.extra`.
        """
        result = self._result
        result.total_travel_cost = total_travel_cost
        result.total_penalty = sum(request.penalty for request in self._rejected)
        result.unified_cost = unified_cost(total_travel_cost, self._rejected, result.alpha)
        result.total_dispatch_seconds = self._dispatch_seconds
        result.distance_queries = oracle_counters.distance_queries
        result.lower_bound_queries = oracle_counters.lower_bound_queries
        result.index_memory_bytes = index_memory_bytes
        # surface the path LRU's statistics (hits/misses/evictions/hit rate)
        # and the per-backend counters next to the query counters in
        # experiment reports
        base_counters = {
            "distance_queries", "path_queries", "lower_bound_queries", "dijkstra_runs",
        }
        for key, value in oracle_counters.snapshot().items():
            if key not in base_counters:
                result.extra[key] = float(value)
        result.extra["oracle_backend"] = oracle_counters.backend
        if dispatcher_extra:
            result.extra.update(dispatcher_extra)
        if self._waits:
            result.mean_wait_seconds = sum(self._waits) / len(self._waits)
        if self._detour_ratios:
            result.mean_detour_ratio = sum(self._detour_ratios) / len(self._detour_ratios)
        return result

    @property
    def rejected_requests(self) -> list[Request]:
        """Requests rejected so far."""
        return list(self._rejected)

    @property
    def live(self) -> SimulationResult:
        """The in-progress result (live counters; derived metrics unset).

        Read-only observability accessor for service snapshots — the derived
        fields (unified cost, penalties, means) are only populated by
        :meth:`finalise`.
        """
        return self._result
