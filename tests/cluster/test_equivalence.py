"""Cluster replay must be metric-identical to the in-process sharded wrapper.

The shard worker replicas are kept deterministic through three ingredients
(plan snapshots, membership deltas, member advancement to the command clock —
see ``repro.cluster.worker``), so at the same shard count K a cluster replay
and an in-process ``sharded:<inner>`` replay see identical state at every
decision point and must produce identical metrics, bit for bit. That holds at
K=1 too, where the in-process wrapper advances workers lazily while the
cluster materialises the whole fleet at every arrival: every time is on the
grid of :mod:`repro.core.timegrid`, so the number of advancement steps
changes no sum.
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
    assert actual == expected
