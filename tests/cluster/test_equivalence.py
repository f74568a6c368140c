"""Cluster replay must be metric-identical to the in-process sharded wrapper.

The shard worker replicas are kept deterministic through three ingredients
(plan snapshots, membership deltas, clock-replayed member advancement — see
``repro.cluster.worker``), so at the same shard count K a cluster replay and
an in-process ``sharded:<inner>`` replay see identical state at every
decision point and must produce identical metrics.

At K>1 the agreement is bit-exact: both regimes materialise exact positions
at every arrival and flush, the replicas replay the authoritative
``advance_all`` clock sequence, and decision anchors either match the
authoritative floats or are adopted from the replica's left-to-right
edge-cost summation, which the in-process run performs identically.

At K=1 the in-process wrapper deliberately stays bit-locked to the *lazy*
unsharded dispatcher (workers advance only when touched), while the cluster
must materialise exact positions to keep its replica in sync. Partial
advancement's anchor arithmetic is grouping-dependent
(``start_time = arr[0] + moved_cost`` associates edge costs by advancement
step), so the two regimes place pickup/dropoff stamps a few ULP apart.
Decisions and served sets still match exactly; the derived means are gated
at 1e-9 relative.
"""

import pytest

from repro.dispatch import DispatcherConfig, make_dispatcher
from repro.simulation.engine import EventEngine
from repro.workloads.scenarios import ScenarioConfig, build_instance

_CONFIG = ScenarioConfig(city="small-grid", num_workers=14, num_requests=80, seed=2018)


def _fingerprint(algorithm: str, shards: int) -> dict:
    instance = build_instance(_CONFIG)
    config = DispatcherConfig(
        grid_cell_metres=_CONFIG.grid_km * 1000.0, num_shards=shards
    )
    dispatcher = make_dispatcher(algorithm, config)
    try:
        result = EventEngine(instance, dispatcher).run()
    finally:
        close = getattr(dispatcher, "close", None)
        if close is not None:
            close()
    return {
        "served": result.served_requests,
        "unified_cost": result.unified_cost,
        "mean_wait": result.mean_wait_seconds,
        "mean_detour": result.mean_detour_ratio,
    }


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("inner", ["pruneGreedyDP", "batch"])
def test_cluster_matches_in_process_sharded(inner, shards):
    expected = _fingerprint(f"sharded:{inner}", shards)
    actual = _fingerprint(f"cluster:{inner}", shards)
    if shards > 1:
        assert actual == expected
    else:
        # lazy (in-process K=1) vs exact-positions (cluster) float
        # association — see module docstring
        assert actual["served"] == expected["served"]
        for key in ("unified_cost", "mean_wait", "mean_detour"):
            assert actual[key] == pytest.approx(expected[key], rel=1e-9, abs=1e-9)
