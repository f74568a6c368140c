"""Oracle counts of a cluster run: every replica's, summed at the front door.

A replica answers ``StatsCommand`` with a copy of its oracle's counts (the
caches stay behind: they do not cross the pipe). The front door sums its own
counts with every live replica's through ``OracleCounters.merge`` and keeps
its own cache statistics.
"""

import pickle

from repro.cluster.messages import DispatchCommand, DispatchReply, StatsCommand, StatsReply
from repro.network.oracle import OracleCounters
from repro.scenarios.compile import compile_program
from repro.scenarios.runner import _build_service

from tests.cluster.test_replica_advancement import _Harness, _spec
from tests.cluster.test_replica_table import _single_shard_runtime

_FIELDS = ("distance_queries", "path_queries", "lower_bound_queries", "dijkstra_runs")


def _counts(counters: OracleCounters) -> tuple:
    return (
        *(getattr(counters, name) for name in _FIELDS),
        dict(counters.backend_queries), dict(counters.backend_settled),
    )


def test_stats_reply_is_a_detached_copy_of_the_replica_counts():
    runtime, instance = _single_shard_runtime()
    for request in instance.requests[:3]:
        reply = runtime.handle_dispatch(DispatchCommand(request.release_time, request, plans=()))
        assert isinstance(reply, DispatchReply)
    counters = runtime.instance.oracle.counters
    assert counters.distance_queries > 0

    reply = runtime.handle_stats(StatsCommand())
    assert isinstance(reply, StatsReply)
    assert reply.counters is not counters
    assert _counts(reply.counters) == _counts(counters)
    assert reply.counters.path_cache is None
    # the reply crosses the pipe as it is
    assert _counts(pickle.loads(pickle.dumps(reply)).counters) == _counts(counters)

    # later queries do not reach a reply already sent
    sent = _counts(reply.counters)
    vertices = sorted(instance.network.vertices())
    runtime.instance.oracle.distance(vertices[0], vertices[-1])
    assert _counts(reply.counters) == sent
    assert counters.distance_queries == sent[0] + 1


def test_totals_are_the_front_door_plus_every_live_replica(monkeypatch):
    harness = _Harness(touch_phase=0)
    harness.install(monkeypatch)
    spec, program = _spec("cluster:pruneGreedyDP", 0)
    compiled = compile_program(spec.scenario, program.validate())
    service = _build_service(spec, compiled)
    harness.front = service.dispatcher
    front = service.dispatcher
    try:
        for request in compiled.instance.requests[:20]:
            service.submit(request)
        totals = front.oracle_counter_totals()
    finally:
        service.close()

    assert harness.commands["StatsCommand"] == 2
    replicas = [link.runtime.instance.oracle.counters for link in harness.links]
    assert len(replicas) == 2
    assert all(counters.distance_queries > 0 for counters in replicas)
    shared = front.oracle.counters
    assert _counts(totals) == _counts(OracleCounters.merge([shared, *replicas]))
    assert totals.distance_queries > shared.distance_queries
    # the cache is the front door's; the replicas' stay in their processes
    assert totals.path_cache is shared.path_cache
    assert totals.backend == shared.backend
