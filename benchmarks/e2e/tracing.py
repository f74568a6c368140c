"""Per-layer tracing, done from the benchmark's own files.

``Tracer.install`` replaces the public entry points of each layer — methods
of the live service, engine, fleet, dispatcher, insertion operator, grid
index and oracle classes, the lower-bound functions as imported into
``repro.dispatch.greedy_dp``, and on a cluster ``Connection.send/recv/poll``
— with shims that record a span: name, start, end, the span that caused it
and the request being served. ``Tracer.remove`` puts every original back.

Patches go on the *classes* of the live objects, not on the instances: a
live network update replaces the dispatcher's ``GridIndex`` and every
``Route``, and an instance patch would silently stop counting there.

Aggregates (calls, total seconds, self seconds) are kept for every span;
full span records only for every ``SAMPLE_EVERY``-th request, in memory,
written out by ``write_spans`` when the run ends. A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans under one root add up to the root's duration exactly.
"""

from __future__ import annotations

import json
import os
import time
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

from repro.cluster.dispatcher import ClusterDispatcher
from repro.core.route import Route
from repro.dispatch import greedy_dp
from repro.dispatch.base import Dispatcher
from repro.index.grid import GridIndex

#: full span records are kept for one request in this many
SAMPLE_EVERY = 50

#: the Lemma 7/8 bound functions, patched where ``greedy_dp`` imported them.
LOWER_BOUND_FUNCTIONS = (
    "euclidean_idle_lower_bounds",
    "euclidean_insertion_lower_bound",
    "euclidean_insertion_lower_bounds",
)


class Tracer:
    """Span recorder plus the monkey-patches that feed it."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        #: named counts observed at the span boundaries
        self.counts: dict[str, float] = {}
        #: sampled span records: (id, parent id, name, start, end, request id)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [child seconds, span id]
        self._next_span_id = 0
        self._requests_seen = 0
        self._request_id: int | None = None
        self._sampling = False
        self._patched: list[tuple] = []  # (owner, attribute, original or _ABSENT)
        self._pid = os.getpid()

    # ------------------------------------------------------------- recording

    def _wrap(self, name: str, original, observe=None, front_door_only: bool = False):
        """A shim around ``original`` recording one span per call.

        ``observe(args, result)`` runs after the span closed (its cost is the
        caller's, not the traced call's). ``front_door_only`` shims are
        class-level patches a forked shard worker inherits; there they must
        be transparent.
        """
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def shim(*args, **kwargs):
            if front_door_only and os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            frame = [0.0, -1]
            if tracer._sampling:
                frame[1] = tracer._next_span_id
                tracer._next_span_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] >= 0:
                    parent = stack[-1][1] if stack else -1
                    tracer.spans.append(
                        (frame[1], parent, name, start, end, tracer._request_id)
                    )
            if observe is not None:
                observe(args, result)
            return result

        return shim

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    # -------------------------------------------------------------- patching

    _ABSENT = object()

    def _replace(self, owner, attribute: str, replacement) -> None:
        """Set ``owner.attribute``, remembering what ``remove`` must put back."""
        self._patched.append((owner, attribute, vars(owner).get(attribute, self._ABSENT)))
        setattr(owner, attribute, replacement)

    def _patch(self, owner, attribute: str, name: str, observe=None, **options) -> None:
        shim = self._wrap(name, getattr(owner, attribute), observe, **options)
        self._replace(owner, attribute, shim)

    def install_setup(self) -> None:
        """Time dispatcher set-up (grid build; on a cluster, worker spawn up to
        the ready acknowledgements). Installed before the platform is built;
        ``setup.`` spans are outside the measured phase."""
        self._patch(Dispatcher, "setup", "setup.dispatcher")
        self._patch(ClusterDispatcher, "setup", "setup.cluster_spawn")

    def install(self, service) -> None:
        """Patch every layer reachable from the live ``service``.

        Called after the platform is built: shard workers are forked during
        the build and must not inherit the shims.

        Owners are the classes of the live objects, so the cluster facade,
        the batch dispatcher and whichever insertion operator is configured
        are covered without naming them.
        """
        count = self._count
        service_class = type(service)
        engine_class = type(service._backend)  # the facade has no public engine handle
        fleet_class = type(service.fleet)
        oracle_class = type(service.instance.oracle)
        dispatcher = service.dispatcher
        dispatcher_class = type(dispatcher)

        submit = self._wrap("service.submit", service_class.submit)
        self._replace(service_class, "submit", self._per_request(submit))
        patches = [
            (service_class, "drain", "service.drain", None),
            (service_class, "advance_to", "service.advance_to", None),
            (service_class, "apply_network_update", "scenarios.update", None),
            (engine_class, "submit", "engine.submit", None),
            (engine_class, "advance_until", "engine.advance_until", None),
            (engine_class, "finish", "engine.finish", None),
            (engine_class, "apply_network_update", "engine.network_update", None),
            (fleet_class, "state_of", "fleet.state_of", None),
            (fleet_class, "states_of", "fleet.states_of",
             lambda args, states: count("fleet.states_returned", len(states))),
            (fleet_class, "idle_partition", "fleet.idle_partition", None),
            (fleet_class, "advance_all", "fleet.advance_all", None),
            (fleet_class, "finish_all", "fleet.finish_all", None),
            (GridIndex, "members_near_vertex", "index.near",
             lambda args, members: count("index.members_returned", len(members))),
            (GridIndex, "update", "index.update", None),
            (Route, "with_insertion", "insertion.with_insertion", None),
            (oracle_class, "distance", "network.distance",
             lambda args, _: count("network.traced_queries")),
            (oracle_class, "distances_many", "network.batched",
             lambda args, _: count("network.traced_queries", len(args[2]))),
            (oracle_class, "distance_pairs", "network.batched",
             lambda args, _: count("network.traced_queries", len(args[1]))),
            (oracle_class, "endpoint_distances", "network.batched",
             lambda args, _: count("network.traced_queries", 2 * len(args[1]))),
            (oracle_class, "path", "network.path", None),
            (oracle_class, "lower_bound", "network.euclid", None),
            (oracle_class, "euclidean_lower_bounds", "network.euclid", None),
            (oracle_class, "euclidean_lower_bounds_to", "network.euclid", None),
            (oracle_class, "refresh_topology", "network.refresh", None),
        ]
        patches += [(greedy_dp, function, "insertion.lower_bounds", None)
                    for function in LOWER_BOUND_FUNCTIONS]
        if isinstance(dispatcher, ClusterDispatcher):
            # the front door is the dispatcher here; the inner dispatchers,
            # their grids and insertion operators live in the shard workers
            patches += [
                (dispatcher_class, "dispatch", "cluster.dispatch", self._observe_outcome),
                (dispatcher_class, "flush", "cluster.flush", self._observe_outcomes),
            ]
            self._replace(Connection, "send", self._wrap(
                "cluster.send", self._pickling_send(), front_door_only=True))
            self._patch(Connection, "poll", "cluster.poll", front_door_only=True)
            self._patch(Connection, "recv", "cluster.recv", front_door_only=True)
        else:
            patches += [
                (dispatcher_class, "dispatch", "dispatch.dispatch", self._observe_outcome),
                (dispatcher_class, "flush", "dispatch.flush", self._observe_outcomes),
                # in-process dispatchers absorb a network update by rebuilding the grid
                (dispatcher_class, "apply_network_update", "index.rebuild", None),
                (type(dispatcher.insertion), "best_insertion", "insertion.best_insertion",
                 lambda args, found: count("insertion.feasible", float(found.feasible))),
            ]
        for owner, attribute, name, observe in patches:
            self._patch(owner, attribute, name, observe)

    def _per_request(self, submit_shim):
        """Tag spans with the request being served; sample every n-th request."""

        def submit(service, request):
            self._request_id = request.id
            self._sampling = self._requests_seen % SAMPLE_EVERY == 0
            self._requests_seen += 1
            try:
                return submit_shim(service, request)
            finally:
                self._request_id = None
                self._sampling = False

        return submit

    def _pickling_send(self):
        """``Connection.send`` with the pickle timed and its size counted.

        ``send(obj)`` is ``send_bytes(ForkingPickler.dumps(obj))`` on the
        wire, so pickling here and handing the bytes on changes nothing the
        peer sees, and the object is still pickled exactly once.
        """
        dumps = self._wrap("cluster.pickle", ForkingPickler.dumps)
        send_bytes = Connection.send_bytes

        def send(connection, obj):
            payload = dumps(obj)
            self._count("cluster.sent_bytes", len(payload))
            send_bytes(connection, payload)

        return send

    def _observe_outcome(self, args, outcome) -> None:
        if outcome is None:
            self._count("dispatch.deferred")
            return
        self._count("dispatch.outcomes")
        self._count("dispatch.candidates", outcome.candidates_considered)
        self._count("dispatch.insertions", outcome.insertions_evaluated)
        if outcome.decision_rejected:
            self._count("dispatch.decision_rejected")

    def _observe_outcomes(self, args, outcomes) -> None:
        for outcome in outcomes:
            self._observe_outcome(args, outcome)

    def remove(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patched:
            owner, attribute, own = self._patched.pop()
            if own is self._ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    # --------------------------------------------------------------- reading

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, *prefixes: str) -> float:
        """Self time summed over every span whose name starts with a prefix."""
        return sum(
            entry[2]
            for name, entry in self.totals.items()
            if any(name.startswith(prefix) for prefix in prefixes)
        )

    def write_spans(self, path: str) -> None:
        """Write the sampled span records as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, request_id in sorted(self.spans):
                handle.write(json.dumps({
                    "span": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "request": request_id,
                }) + "\n")
