"""The front door's link to one shard worker: its process and pipe end.

:func:`start_worker` is the one place a worker process is forked, at setup
and on every respawn. ``send`` / ``poll`` / ``recv`` call
:class:`multiprocessing.connection.Connection` at call time, so a tracer
that patches ``Connection`` sees every message.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

from repro.cluster.messages import ShardInit
from repro.cluster.worker import shard_worker_main

#: ``fork`` where the platform has it: a worker then inherits the imported
#: package instead of re-importing it.
_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else multiprocessing.get_context()
)


class WorkerLink:
    """One shard worker process and the front door's end of its pipe."""

    def __init__(self, process: multiprocessing.process.BaseProcess, connection) -> None:
        self.process = process
        self.connection = connection

    def send(self, message) -> None:
        self.connection.send(message)

    def poll(self, timeout: float) -> bool:
        return self.connection.poll(timeout)

    def recv(self):
        return self.connection.recv()

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker and wait until it is gone."""
        if self.process.is_alive():
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.join(10.0)

    def close(self, grace: float = 0.0) -> None:
        """Give the worker ``grace`` seconds to exit, terminate it, reap it
        and close the pipe; idempotent."""
        if grace > 0:
            self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(5.0)
        try:
            self.connection.close()
        except OSError:
            pass


def start_worker(shard_id: int, init: ShardInit | bytes, incarnation: int = 0) -> WorkerLink:
    """Fork the worker of ``shard_id`` and return its link without waiting.

    ``init`` is the worker's :class:`ShardInit`, or — for a respawn — its
    bytes, pickled before the live instance could change further. The worker
    answers its first ``recv`` with a ready acknowledgement (or the error
    that kept it from building its replica).
    """
    parent, child = _CONTEXT.Pipe(duplex=True)
    name = f"repro-shard-{shard_id}" + (f"-r{incarnation}" if incarnation else "")
    process = _CONTEXT.Process(
        target=shard_worker_main, args=(child, init), name=name, daemon=True
    )
    process.start()
    child.close()
    return WorkerLink(process, parent)


def wait_ready(worker, timeout: float) -> str | None:
    """Wait up to ``timeout`` seconds for a started worker's ready acknowledgement.

    Returns ``None`` once the worker is ready, else why it is not: the error
    it sent, or that it died or stayed silent. Reads ``worker`` only through
    ``poll``, ``recv`` and ``alive``, so any link-like object will do.
    """
    deadline = time.monotonic() + timeout
    try:
        while True:
            # a worker that exits right after sending has its answer read first
            if worker.poll(0.1) or (not worker.alive() and worker.poll(0)):
                return worker.recv().error
            if not worker.alive():
                return "shard worker died before it became ready"
            if time.monotonic() > deadline:
                return f"shard worker sent no ready acknowledgement within {timeout} s"
    except (EOFError, OSError):
        return "shard worker died before it became ready"


__all__ = ["WorkerLink", "start_worker", "wait_ready"]
