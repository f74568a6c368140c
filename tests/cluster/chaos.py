"""Seeded chaos harness for the shard-worker cluster.

Shared by ``tests/cluster/test_recovery.py`` and
``tests/cluster/test_network_updates.py`` (the module name carries no
``test_`` prefix, so pytest does not collect it as a test file).

Faults fire in a wrapper around each shard worker's
:class:`~repro.cluster.link.WorkerLink`, installed by monkeypatching
:func:`repro.cluster.link.start_worker`. They are **deterministic**: each one
anchors to a shard and a per-shard command ordinal (how many commands the
front door successfully sent to that shard before the fault point, counted
across respawns), not to wall-clock timing, so a chaos run is exactly
reproducible — and comparable bit-for-bit against its fault-free twin. :func:`seeded_faults` derives random-but-reproducible fault plans from
a seed through the repo's spawn-key stream derivation.

Fault kinds:

* ``kill`` — SIGKILL the shard's worker process at the fault point and sever
  its pipe there (``phase="before_send"`` kills between commands, i.e.
  between batch windows; ``phase="after_send"`` kills mid-round-trip, after
  the command crossed the pipe but before the reply is read);
* ``transient_send`` / ``transient_recv`` — raise
  :class:`~repro.cluster.recovery.TransientRPCError` ``count`` times at the
  fault point (the retry/backoff path, never lethal below the retry budget);
* ``delay`` — hold the reply to the ``at_command``-th command back from
  ``poll`` for ``seconds`` (the ``dispatch_timeout`` path);
* ``kill_before_ready`` — SIGKILL the shard's ``incarnation``-th respawned
  worker as soon as it is forked, before its ready acknowledgement (the
  failed-ready path of the adoption gate).

Faults can alternatively anchor to **network-update ordinals**
(``at_update`` + ``window``): a kill fires immediately before the shard's
``at_update``-th :class:`~repro.cluster.messages.NetworkUpdateCommand` is
sent (``window="before"``), right after it crossed the pipe but before its
barrier acknowledgement (``"during"``), or before the first command that
follows the acknowledged update (``"after"``) — the three positions a crash
can take relative to a live topology mutation. :func:`closure_plan` builds a
deterministic timed close→reopen plan over connectivity-safe edges, and
:func:`run_chaos` drives it through the service exactly like the scenario
runner drives disruption programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import pytest

import repro.cluster.link as link_module
from repro.cluster.messages import NetworkUpdateCommand
from repro.cluster.recovery import TransientRPCError
from repro.cluster.service import ClusterMatchingService
from repro.dispatch import DispatcherConfig
from repro.network.graph import connected_components
from repro.utils.rng import derive_spawned_seed, make_rng
from repro.workloads.scenarios import ScenarioConfig, build_instance

#: the chaos scenario: small enough for CI, large enough that all four
#: shards see traffic and batch windows accumulate multiple requests.
DEFAULT_SCENARIO = ScenarioConfig(
    city="small-grid", num_workers=14, num_requests=80, seed=2018
)
DEFAULT_SHARDS = 4
#: per-algorithm :func:`run_chaos` options the gates run both algorithms with:
#: the batch window is widened so that several requests share one
RUN_KWARGS = {"pruneGreedyDP": {}, "batch": {"batch_interval": 30.0}}


@dataclass(frozen=True)
class Fault:
    """One deterministic fault, anchored to a shard + command ordinal.

    When ``at_update`` is set, the fault anchors to the shard's per-shard
    network-update ordinal instead of ``at_command``: ``window`` places the
    kill ``"before"`` the update command is sent, ``"during"`` the barrier
    round-trip (sent, acknowledgement lost), or ``"after"`` the update is
    acknowledged (the kill fires before the shard's next command of any
    kind). Update-anchored faults are kills — the windows are defined by
    the broadcast protocol, not the retry loop.
    """

    #: ``kill`` | ``transient_send`` | ``transient_recv`` | ``delay`` |
    #: ``kill_before_ready``
    kind: str
    shard: int
    at_command: int = 0
    phase: str = "before_send"  #: kill faults: ``before_send`` | ``after_send``
    count: int = 1  #: transient faults: times the error is raised
    seconds: float = 0.0  #: delay faults: how long the reply is held back
    at_update: int | None = None  #: anchor to the Nth NetworkUpdateCommand
    window: str = "during"  #: update faults: ``before`` | ``during`` | ``after``
    incarnation: int = 1  #: kill_before_ready faults: which respawn of the shard


class ChaosInjector:
    """Fires a fault plan at exact protocol points; records what fired.

    :meth:`install` replaces :func:`repro.cluster.link.start_worker`, so every
    shard worker — respawns included — starts behind a :class:`_ChaosLink`.
    Command ordinals count the sends to a shard across its respawns.
    """

    def __init__(self, faults) -> None:
        self.faults = list(faults)
        self.fired: list[tuple[str, int, int]] = []
        self._once: set[int] = set()
        self._budget: dict[int, int] = {}
        #: per-shard count of commands successfully sent — the anchor stream
        #: for ``at_command`` faults.
        self._sent: dict[int, int] = {}
        #: per-shard count of NetworkUpdateCommands successfully sent —
        #: the anchor stream for ``at_update`` faults.
        self._updates_seen: dict[int, int] = {}

    def install(self, monkeypatch) -> None:
        start = link_module.start_worker

        def start_chaotic(shard_id, init, incarnation=0):
            chaotic = _ChaosLink(self, shard_id, start(shard_id, init, incarnation))
            self.after_start(chaotic, incarnation)
            return chaotic

        monkeypatch.setattr(link_module, "start_worker", start_chaotic)

    # ------------------------------------------------------------------ hooks

    def after_start(self, link, incarnation: int) -> None:
        for fault in self._faults_of(link.shard_id):
            if (
                fault.kind == "kill_before_ready"
                and fault.incarnation == incarnation
                and self._fire_once(fault)
            ):
                self.fired.append(("kill_before_ready", link.shard_id, incarnation))
                link.kill()

    def before_send(self, link, command) -> None:
        shard = link.shard_id
        ordinal = self._sent.get(shard, 0)
        seen = self._updates_seen.get(shard, 0)
        for fault in self._faults_of(shard):
            if fault.at_update is not None:
                if fault.kind != "kill":
                    continue
                if (
                    fault.window == "before"
                    and isinstance(command, NetworkUpdateCommand)
                    and seen == fault.at_update
                    and self._fire_once(fault)
                ):
                    self.fired.append(("kill_before_update", shard, fault.at_update))
                    link.kill()
                elif (
                    fault.window == "after"
                    and seen == fault.at_update + 1
                    and self._fire_once(fault)
                ):
                    self.fired.append(("kill_after_update", shard, fault.at_update))
                    link.kill()
                continue
            if fault.at_command != ordinal:
                continue
            if fault.kind == "kill" and fault.phase == "before_send":
                if self._fire_once(fault):
                    self.fired.append(("kill", shard, ordinal))
                    link.kill()
            elif fault.kind == "transient_send" and self._spend(fault):
                self.fired.append(("transient_send", shard, ordinal))
                raise TransientRPCError(f"injected send fault on shard {shard}")

    def after_send(self, link, command) -> None:
        shard = link.shard_id
        ordinal = self._sent.get(shard, 0)
        seen = self._updates_seen.get(shard, 0)
        link.awaiting = ordinal
        for fault in self._faults_of(shard):
            if fault.at_update is not None:
                if (
                    fault.kind == "kill"
                    and fault.window == "during"
                    and isinstance(command, NetworkUpdateCommand)
                    and seen == fault.at_update
                    and self._fire_once(fault)
                ):
                    self.fired.append(("kill_during_update", shard, fault.at_update))
                    link.kill()
                continue
            if fault.at_command != ordinal:
                continue
            if fault.kind == "delay":
                link.held_until = time.monotonic() + fault.seconds
            elif (
                fault.kind == "kill"
                and fault.phase == "after_send"
                and self._fire_once(fault)
            ):
                self.fired.append(("kill_after_send", shard, ordinal))
                link.kill()
        self._sent[shard] = ordinal + 1
        if isinstance(command, NetworkUpdateCommand):
            self._updates_seen[shard] = seen + 1

    def before_poll(self, link) -> None:
        for fault in self._faults_of(link.shard_id):
            if (
                fault.kind == "transient_recv"
                and fault.at_command == link.awaiting
                and self._spend(fault)
            ):
                self.fired.append(("transient_recv", link.shard_id, fault.at_command))
                raise TransientRPCError(f"injected recv fault on shard {link.shard_id}")

    # -------------------------------------------------------------- internals

    def _faults_of(self, shard: int) -> list[Fault]:
        return [fault for fault in self.faults if fault.shard == shard]

    def _fire_once(self, fault: Fault) -> bool:
        key = id(fault)
        if key in self._once:
            return False
        self._once.add(key)
        return True

    def _spend(self, fault: Fault) -> bool:
        key = id(fault)
        used = self._budget.get(key, 0)
        if used >= fault.count:
            return False
        self._budget[key] = used + 1
        return True


class _ChaosLink:
    """A real :class:`~repro.cluster.link.WorkerLink` with the plan's faults.

    A kill SIGKILLs the real process and severs the pipe at that point: the
    front door reads EOF even if the worker answered in the meantime, so the
    fault point is exact. A delay holds the reply back from ``poll``.
    """

    def __init__(self, injector: ChaosInjector, shard_id: int, real) -> None:
        self.injector = injector
        self.shard_id = shard_id
        self.real = real
        self.process = real.process
        #: ordinal of the command whose reply is awaited, if any
        self.awaiting: int | None = None
        self.held_until = 0.0
        self.severed = False

    def send(self, command) -> None:
        self.injector.before_send(self, command)
        if self.severed:
            raise BrokenPipeError(f"shard {self.shard_id} worker was killed")
        self.real.send(command)
        self.injector.after_send(self, command)

    def poll(self, timeout: float) -> bool:
        self.injector.before_poll(self)
        if self.severed:
            raise EOFError(f"shard {self.shard_id} worker was killed")
        held = self.held_until - time.monotonic()
        if held > 0:
            time.sleep(min(held, timeout))
            if time.monotonic() < self.held_until:
                return False
            timeout = 0.0
        return self.real.poll(timeout)

    def recv(self):
        self.awaiting = None
        return self.real.recv()

    def alive(self) -> bool:
        return not self.severed and self.real.alive()

    def kill(self) -> None:
        self.real.kill()
        self.severed = True

    def close(self, grace: float = 0.0) -> None:
        self.real.close(grace)


def seeded_faults(
    seed: int,
    *,
    num_shards: int = DEFAULT_SHARDS,
    kinds: tuple[str, ...] = ("kill", "transient_send", "delay"),
    count: int = 3,
    max_ordinal: int = 12,
) -> list[Fault]:
    """A reproducible random fault plan derived from ``seed``."""
    rng = make_rng(derive_spawned_seed(seed, "chaos-faults"))
    faults = []
    for _ in range(count):
        kind = kinds[int(rng.integers(len(kinds)))]
        shard = int(rng.integers(num_shards))
        ordinal = int(rng.integers(max_ordinal))
        if kind == "kill":
            phase = "after_send" if rng.random() < 0.5 else "before_send"
            faults.append(Fault(kind, shard, ordinal, phase=phase))
        elif kind == "delay":
            faults.append(Fault(kind, shard, ordinal, seconds=float(rng.uniform(0.05, 0.2))))
        else:
            faults.append(Fault(kind, shard, ordinal, count=int(rng.integers(1, 3))))
    return faults


@dataclass(frozen=True)
class UpdateAction:
    """One timed live network mutation driven through the service."""

    time: float
    kind: str  #: ``close`` | ``reopen``
    u: int
    v: int
    length: float = 0.0
    speed: float = 10.0
    road_class: str = "residential"

    def apply(self, network) -> None:
        if self.kind == "close":
            network.remove_edge(self.u, self.v)
        else:
            network.add_edge(
                self.u, self.v, length=self.length, speed=self.speed,
                road_class=self.road_class,
            )


def closure_plan(
    instance,
    *,
    closures: int = 1,
    close_fraction: float = 0.35,
    reopen_fraction: float = 0.65,
) -> tuple[UpdateAction, ...]:
    """A deterministic timed close→reopen plan over connectivity-safe edges.

    Edges are picked in iteration order, skipping any whose removal would
    disconnect the network; the closure lands at the release time of the
    request ``close_fraction`` of the way through the workload and reopens
    at ``reopen_fraction``, so kills anchored before/during/after the update
    window land inside live traffic.
    """
    network = instance.network
    releases = sorted(request.release_time for request in instance.requests)
    t_close = releases[int(len(releases) * close_fraction)]
    t_reopen = releases[int(len(releases) * reopen_fraction)]
    picked = []
    for edge in list(network.edges()):
        if len(picked) >= closures:
            break
        removed = network.remove_edge(edge.u, edge.v)
        keep = connected_components(network).count == 1
        network.add_edge(
            removed.u, removed.v, length=removed.length, speed=removed.speed,
            road_class=removed.road_class,
        )
        if keep:
            picked.append(removed)
    actions = []
    for edge in picked:
        actions.append(UpdateAction(
            t_close, "close", edge.u, edge.v, edge.length, edge.speed,
            edge.road_class,
        ))
        actions.append(UpdateAction(
            t_reopen, "reopen", edge.u, edge.v, edge.length, edge.speed,
            edge.road_class,
        ))
    return tuple(sorted(actions, key=lambda action: action.time))


@dataclass
class ChaosRun:
    """Everything a gate needs from one chaos replay."""

    result: object  #: the :class:`SimulationResult`
    fingerprint: dict
    recovery_log: list[tuple[str, int]]
    fired: list[tuple[str, int, int]]
    worker_failures: int
    worker_restarts: int
    retries: int
    degraded_dispatches: int
    shard_health: tuple[str, ...]
    orphans: list = field(default_factory=list)
    network_updates: int = 0
    update_ack_retries: int = 0
    replica_rebuilds: tuple[int, ...] = ()


def result_fingerprint(result) -> dict:
    """The exact-comparison fingerprint of one replay (bit-identity gate)."""
    return {
        "served": result.served_requests,
        "rejected": result.rejected_requests,
        "unified_cost": result.unified_cost,
        "mean_wait_s": result.mean_wait_seconds,
        "mean_detour_ratio": result.mean_detour_ratio,
    }


def run_chaos(
    inner: str,
    faults=(),
    *,
    scenario: ScenarioConfig = DEFAULT_SCENARIO,
    num_shards: int = DEFAULT_SHARDS,
    batch_interval: float | None = None,
    dispatch_timeout: float = 60.0,
    retry_attempts: int = 3,
    retry_backoff_s: float = 0.0,
    max_restarts: int = 2,
    restart_delay_s: float = 0.0,
    instance=None,
    updates: tuple = (),
    additions: dict | None = None,
) -> ChaosRun:
    """Replay the chaos scenario through a cluster session with ``faults``.

    ``retry_backoff_s`` defaults to 0 so injected transient faults retry
    without real sleeps (jitter × 0 = 0); the retry *path* is identical.

    ``updates`` is an optional timed :class:`UpdateAction` plan (see
    :func:`closure_plan`); when present the replay interleaves submissions
    with ``advance_to`` + ``apply_network_update`` exactly the way the
    scenario runner drives disruption programs. ``additions`` maps a
    request's position in the stream to the :class:`~repro.core.types.Worker`
    that joins the fleet right before it is submitted.
    """
    config_kwargs = {"grid_cell_metres": scenario.grid_km * 1000.0}
    if batch_interval is not None:
        config_kwargs["batch_interval"] = batch_interval
    additions = additions or {}
    injector = ChaosInjector(faults)
    if instance is None:
        instance = build_instance(scenario)
    with pytest.MonkeyPatch.context() as monkeypatch:
        if faults:
            injector.install(monkeypatch)
        service = ClusterMatchingService.build(
            instance,
            inner=inner,
            num_shards=num_shards,
            config=DispatcherConfig(**config_kwargs),
            seed=scenario.seed,
            dispatch_timeout=dispatch_timeout,
            retry_attempts=retry_attempts,
            retry_backoff_s=retry_backoff_s,
            max_restarts=max_restarts,
            restart_delay_s=restart_delay_s,
        )
        dispatcher = service.dispatcher
        timeline = sorted(updates, key=lambda action: action.time)
        cursor = 0

        def run_updates(until: float) -> None:
            nonlocal cursor
            while cursor < len(timeline) and timeline[cursor].time <= until:
                action = timeline[cursor]
                service.advance_to(action.time)
                service.apply_network_update(action.apply)
                cursor += 1

        with service:
            for position, request in enumerate(instance.requests):
                run_updates(request.release_time)
                if position in additions:
                    service.add_worker(additions[position])
                service.submit(request)
            run_updates(float("inf"))
            result = service.drain()
    return ChaosRun(
        result=result,
        fingerprint=result_fingerprint(result),
        recovery_log=list(dispatcher.recovery_log),
        fired=list(injector.fired),
        worker_failures=dispatcher.worker_failures,
        worker_restarts=dispatcher.worker_restarts,
        retries=dispatcher.retries,
        degraded_dispatches=dispatcher.degraded_dispatches,
        shard_health=dispatcher.shard_health(),
        orphans=dispatcher.child_processes(),
        network_updates=dispatcher.network_updates_applied,
        update_ack_retries=dispatcher.update_ack_retries,
        replica_rebuilds=tuple(
            handle.replica_rebuilds for handle in dispatcher._handles
        ),
    )


__all__ = [
    "ChaosInjector",
    "ChaosRun",
    "DEFAULT_SCENARIO",
    "DEFAULT_SHARDS",
    "RUN_KWARGS",
    "Fault",
    "UpdateAction",
    "closure_plan",
    "result_fingerprint",
    "run_chaos",
    "seeded_faults",
]
