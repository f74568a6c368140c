"""repro — reproduction of *A Unified Approach to Route Planning for Shared Mobility*.

Tong, Zeng, Zhou, Chen, Ye, Xu — PVLDB 11(11), 2018.

The package provides:

* the URPSM problem model (workers, requests, routes, unified objective);
* the paper's linear DP insertion plus the basic and naive-DP references;
* the two-phase ``pruneGreedyDP`` solution and the evaluation baselines
  (``GreedyDP``, ``tshare``, ``kinetic``, ``batch``);
* a road-network substrate (graph, shortest paths, hub labels, grid indexes);
* a dynamic simulator, synthetic NYC/Chengdu-like workloads, and an experiment
  harness reproducing every table and figure of the paper's evaluation.

Quickstart (online API)::

    from repro import MatchingService, PlatformSpec

    spec = (PlatformSpec.builder()
            .city("chengdu-like")
            .workload(num_workers=50, num_requests=300)
            .dispatcher("pruneGreedyDP")
            .build())
    service = MatchingService.from_spec(spec)
    for request in service.instance.requests:
        decision = service.submit(request)   # typed AssignmentDecision
    result = service.drain()
    print(result.unified_cost, result.served_rate)
"""

from repro.core import (
    BasicInsertion,
    InsertionResult,
    LinearDPInsertion,
    NaiveDPInsertion,
    ObjectiveConfig,
    PenaltyPolicy,
    Request,
    Route,
    Stop,
    StopKind,
    URPSMInstance,
    Worker,
    empty_route,
    euclidean_insertion_lower_bound,
    max_revenue_objective,
    max_served_requests_objective,
    min_total_distance_objective,
    paper_default_objective,
    unified_cost,
)
from repro.dispatch import (
    ALGORITHMS,
    Batch,
    Dispatcher,
    DispatcherConfig,
    DispatcherSpec,
    DispatchOutcome,
    GreedyDP,
    Kinetic,
    NearestWorker,
    PruneGreedyDP,
    TShare,
    list_dispatchers,
    make_dispatcher,
)
from repro.network import (
    DistanceOracle,
    RoadNetwork,
    grid_city,
    random_geometric_city,
    ring_radial_city,
)
from repro.service import (
    AssignmentDecision,
    CancellationOutcome,
    DecisionStatus,
    MatchingService,
    PlatformSpec,
    RejectionReason,
    ServiceSnapshot,
    replay_workload,
)
from repro.simulation import SimulationResult
from repro.workloads import ScenarioConfig, build_instance, paper_default_scenario

__version__ = "1.0.0"

__all__ = [
    "BasicInsertion",
    "InsertionResult",
    "LinearDPInsertion",
    "NaiveDPInsertion",
    "ObjectiveConfig",
    "PenaltyPolicy",
    "Request",
    "Route",
    "Stop",
    "StopKind",
    "URPSMInstance",
    "Worker",
    "empty_route",
    "euclidean_insertion_lower_bound",
    "max_revenue_objective",
    "max_served_requests_objective",
    "min_total_distance_objective",
    "paper_default_objective",
    "unified_cost",
    "ALGORITHMS",
    "Batch",
    "Dispatcher",
    "DispatcherConfig",
    "DispatcherSpec",
    "DispatchOutcome",
    "list_dispatchers",
    "GreedyDP",
    "Kinetic",
    "NearestWorker",
    "PruneGreedyDP",
    "TShare",
    "make_dispatcher",
    "DistanceOracle",
    "RoadNetwork",
    "grid_city",
    "random_geometric_city",
    "ring_radial_city",
    "AssignmentDecision",
    "CancellationOutcome",
    "DecisionStatus",
    "MatchingService",
    "PlatformSpec",
    "RejectionReason",
    "ServiceSnapshot",
    "replay_workload",
    "SimulationResult",
    "ScenarioConfig",
    "build_instance",
    "paper_default_scenario",
    "__version__",
]
