"""`ClusterMatchingService` — the multiprocess front door of the platform.

The cluster facade *is* a :class:`~repro.service.facade.MatchingService`: the
same submit / cancel / advance_to / drain / snapshot session API, the same
typed responses, the same event kernel behind it — the only difference is the
dispatcher, a :class:`~repro.cluster.dispatcher.ClusterDispatcher` delegating
each shard's matching work to a long-lived worker process.

Because worker processes are real resources, the cluster facade adds a
lifecycle: it is a context manager, :meth:`drain` always shuts the workers
down after collecting the result, and :meth:`close` can be called at any
point (idempotently) to reap them early.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cluster.dispatcher import ClusterDispatcher
from repro.core.instance import URPSMInstance
from repro.dispatch.base import DispatcherConfig
from repro.exceptions import ConfigurationError
from repro.network.graph import RoadNetwork
from repro.network.oracle import DistanceOracle
from repro.service.facade import MatchingService
from repro.service.spec import PlatformSpec
from repro.simulation.metrics import SimulationResult


class ClusterMatchingService(MatchingService):
    """An online matching session served by shard worker processes.

    Args:
        instance: the URPSM instance (network, oracle, fleet, requests).
        dispatcher: the cluster front-door dispatcher. Build it with
            :meth:`ClusterDispatcher` directly, or use
            :meth:`ClusterMatchingService.from_spec` /
            :meth:`ClusterMatchingService.build` which assemble it for you.
        collect_completions: track waits / detour ratios of completions.
    """

    def __init__(
        self,
        instance: URPSMInstance,
        dispatcher: ClusterDispatcher,
        *,
        collect_completions: bool = True,
    ) -> None:
        if not isinstance(dispatcher, ClusterDispatcher):
            raise ConfigurationError(
                "ClusterMatchingService requires a ClusterDispatcher; got "
                f"{type(dispatcher).__name__}"
            )
        super().__init__(instance, dispatcher, collect_completions=collect_completions)

    # ------------------------------------------------------------ construction

    @classmethod
    def build(
        cls,
        instance: URPSMInstance,
        *,
        inner: str = "pruneGreedyDP",
        num_shards: int = 1,
        config=None,
        strategy: str | None = None,
        escalate_k: int | None = None,
        seed: int = 0,
        max_pending: int = 1024,
        dispatch_timeout: float = 60.0,
        retry_attempts: int = 3,
        retry_backoff_s: float = 0.05,
        max_restarts: int = 2,
        restart_delay_s: float = 0.0,
        collect_completions: bool = True,
    ) -> "ClusterMatchingService":
        """Assemble a cluster session over ``instance`` with ``num_shards`` workers.

        ``strategy`` and ``escalate_k`` override the shard layout of
        ``config`` when given.
        """
        config = config or DispatcherConfig()
        config = replace(
            config,
            num_shards=num_shards,
            shard_strategy=config.shard_strategy if strategy is None else strategy,
            shard_escalate_k=config.shard_escalate_k if escalate_k is None else escalate_k,
        )
        dispatcher = ClusterDispatcher(
            config,
            inner=inner,
            seed=seed,
            max_pending=max_pending,
            dispatch_timeout=dispatch_timeout,
            retry_attempts=retry_attempts,
            retry_backoff_s=retry_backoff_s,
            max_restarts=max_restarts,
            restart_delay_s=restart_delay_s,
        )
        return cls(instance, dispatcher, collect_completions=collect_completions)

    @classmethod
    def from_spec(
        cls,
        spec: PlatformSpec,
        *,
        network: RoadNetwork | None = None,
        oracle: DistanceOracle | None = None,
    ) -> "ClusterMatchingService":
        """Build the whole cluster platform from one :class:`PlatformSpec`.

        The sharding layout of ``spec.dispatcher`` (``num_shards``,
        ``shard_strategy``, ``shard_escalate_k``) doubles as the
        worker-process layout; ``spec.dispatcher.algorithm`` is the
        per-shard inner algorithm.
        """
        spec.validate()
        instance = spec.build_instance(network=network, oracle=oracle)
        dispatcher = ClusterDispatcher(
            spec.dispatcher_config(),
            inner=spec.dispatcher.algorithm,
            seed=spec.scenario.seed,
            max_pending=spec.cluster_max_pending,
            dispatch_timeout=spec.cluster_dispatch_timeout,
            retry_attempts=spec.cluster_retry_attempts,
            retry_backoff_s=spec.cluster_retry_backoff_s,
            max_restarts=spec.cluster_max_restarts,
            restart_delay_s=spec.cluster_restart_delay_s,
        )
        return cls(
            instance, dispatcher, collect_completions=spec.collect_completions
        )

    # --------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Shut all shard worker processes down (idempotent)."""
        self.dispatcher.close()

    def drain(self) -> SimulationResult:
        """Resolve pending work, collect the result, then reap the workers.

        The result gathering (oracle counters) needs live workers, so the
        shutdown happens strictly after :meth:`MatchingService.drain`.
        """
        try:
            return super().drain()
        finally:
            self.close()

    def __enter__(self) -> "ClusterMatchingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ observability

    def _queue_depth(self) -> int:
        return self.dispatcher.queue_depth()

    def _recovery_stats(self) -> dict:
        dispatcher = self.dispatcher
        return {
            "worker_failures": dispatcher.worker_failures,
            "worker_restarts": dispatcher.worker_restarts,
            "retries": dispatcher.retries,
            "degraded_dispatches": dispatcher.degraded_dispatches,
            "shard_health": dispatcher.shard_health(),
            "update_ack_retries": dispatcher.update_ack_retries,
            "shard_replica_rebuilds": tuple(
                handle.replica_rebuilds for handle in dispatcher._handles
            ),
        }


__all__ = ["ClusterMatchingService"]
