"""A shard worker run in this process, behind the link surface.

:class:`LoopbackLink` answers the front door exactly as a forked worker
would — the same :meth:`~repro.cluster.worker.ShardWorkerRuntime.handle` on
a pickled copy of the init payload — but synchronously, so a test can read
the replica between commands. :func:`install` makes every shard worker of
the clusters built afterwards (respawns included) a loopback.
"""

from __future__ import annotations

import pickle
from collections import deque

import repro.cluster.link as link_module
from repro.cluster.messages import AckReply, ShutdownCommand
from repro.cluster.worker import ShardWorkerRuntime


class LoopbackLink:
    """One shard worker's runtime and both ends of its pipe, run synchronously."""

    #: no process to reap
    process = None

    def __init__(self, shard_id: int, init) -> None:
        payload = init if isinstance(init, bytes) else pickle.dumps(init)
        self.shard_id = shard_id
        self.runtime = ShardWorkerRuntime(pickle.loads(payload))
        self.replies: deque = deque([AckReply()])  # ready
        self.running = True

    def send(self, command) -> None:
        if isinstance(command, ShutdownCommand):
            self.running = False
            self.replies.append(AckReply())
            return
        self.replies.append(self.runtime.handle(command))

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self.replies)

    def recv(self):
        return self.replies.popleft()

    def alive(self) -> bool:
        return self.running

    def kill(self) -> None:
        self.running = False

    def close(self, grace: float = 0.0) -> None:
        self.running = False


def install(monkeypatch, make=LoopbackLink) -> list:
    """Start every shard worker as ``make(shard_id, init)``; returns the
    links in start order."""
    links = []

    def start(shard_id, init, incarnation=0):
        links.append(make(shard_id, init))
        return links[-1]

    monkeypatch.setattr(link_module, "start_worker", start)
    return links


__all__ = ["LoopbackLink", "install"]
