"""Declarative platform configuration: :class:`PlatformSpec`.

One validated value composes everything that used to be smeared across
``ScenarioConfig`` kwargs, ``DispatcherConfig`` knobs and
``"sharded:<inner>"`` registry-name parsing:

* the **scenario** — city, workload, oracle acceleration, dynamics
  (:class:`~repro.workloads.scenarios.ScenarioConfig`);
* the **dispatcher** — algorithm, its knobs and the sharding layout
  (:class:`~repro.dispatch.registry.DispatcherSpec`);
* the **serving path** — the in-process facade or the shard-worker cluster,
  with the cluster's self-healing knobs.

A spec can be built fluently (:meth:`PlatformSpec.builder`), from plain data
(:meth:`PlatformSpec.from_dict`) or from a JSON/TOML file
(:meth:`PlatformSpec.from_file`); :meth:`PlatformSpec.to_dict` is the exact
inverse of ``from_dict`` (round-trip tested). ``MatchingService.from_spec``
and the experiment runners consume specs, so offline batch runs and online
serving are configured — and executed — identically.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from repro.dispatch.base import DispatcherConfig
from repro.dispatch.registry import DispatcherSpec, unknown_fields_error
from repro.exceptions import ConfigurationError
from repro.workloads.scenarios import CITY_BUILDERS, FILE_CITY_PREFIX, ScenarioConfig

#: shared "unknown field(s) ... did you mean" error builder.
_unknown_keys_error = unknown_fields_error


def _scenario_from_dict(data: dict) -> ScenarioConfig:
    known = {scenario_field.name for scenario_field in fields(ScenarioConfig)}
    unknown = set(data) - known
    if unknown:
        raise _unknown_keys_error("scenario", unknown, known)
    return ScenarioConfig(**data)


@dataclass(frozen=True)
class PlatformSpec:
    """Complete, validated description of one matching platform.

    Attributes:
        scenario: city + workload + oracle settings.
        dispatcher: algorithm + knobs + sharding layout.
        collect_completions: track waiting times / detour ratios of completed
            requests.
        cluster: serve through the multiprocess shard-worker cluster
            (:class:`~repro.cluster.service.ClusterMatchingService`) instead
            of the in-process facade.
        cluster_max_pending: bounded-queue backpressure — deferred requests
            tolerated per shard worker before new requests are
            admission-rejected as ``saturated``.
        cluster_dispatch_timeout: seconds to wait for one shard-worker reply;
            each expiry burns one retry attempt before the worker is declared
            dead and its shard fails over to degraded in-process serving.
        cluster_retry_attempts: bounded retries per shard-worker pipe
            operation (transient errors and reply-timeout windows) before the
            worker is marked down.
        cluster_retry_backoff_s: base of the exponential retry backoff.
        cluster_max_restarts: respawn budget per shard worker; exhausted, the
            shard serves degraded (in-process) for the rest of the session.
        cluster_restart_delay_s: simulated seconds after a worker death
            before its respawn may be adopted.
    """

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    dispatcher: DispatcherSpec = field(default_factory=DispatcherSpec)
    collect_completions: bool = True
    cluster: bool = False
    cluster_max_pending: int = 1024
    cluster_dispatch_timeout: float = 60.0
    cluster_retry_attempts: int = 3
    cluster_retry_backoff_s: float = 0.05
    cluster_max_restarts: int = 2
    cluster_restart_delay_s: float = 0.0

    # -------------------------------------------------------------- validation

    def validate(self) -> "PlatformSpec":
        """Check the composition; returns ``self`` so calls can be chained."""
        city = self.scenario.city
        if city.startswith(FILE_CITY_PREFIX):
            if not city[len(FILE_CITY_PREFIX):]:
                raise ConfigurationError(
                    f"city {city!r} names no file; use '{FILE_CITY_PREFIX}<path>'"
                )
        elif city not in CITY_BUILDERS:
            close = difflib.get_close_matches(
                city, sorted(CITY_BUILDERS), n=1, cutoff=0.4
            )
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ConfigurationError(
                f"unknown city {city!r}; available: {sorted(CITY_BUILDERS)} "
                f"or '{FILE_CITY_PREFIX}<path>' for a GeoJSON/CSV extract{hint}"
            )
        self.dispatcher.validate()
        if self.cluster or self.dispatcher.cluster:
            if self.cluster_max_pending < 1:
                raise ConfigurationError(
                    f"cluster_max_pending must be >= 1, got {self.cluster_max_pending}"
                )
            if self.cluster_dispatch_timeout <= 0:
                raise ConfigurationError(
                    "cluster_dispatch_timeout must be positive, got "
                    f"{self.cluster_dispatch_timeout}"
                )
            if self.cluster_retry_attempts < 1:
                raise ConfigurationError(
                    "cluster_retry_attempts must be >= 1, got "
                    f"{self.cluster_retry_attempts}"
                )
            if self.cluster_retry_backoff_s < 0:
                raise ConfigurationError(
                    "cluster_retry_backoff_s must be >= 0, got "
                    f"{self.cluster_retry_backoff_s}"
                )
            if self.cluster_max_restarts < 0:
                raise ConfigurationError(
                    "cluster_max_restarts must be >= 0, got "
                    f"{self.cluster_max_restarts}"
                )
            if self.cluster_restart_delay_s < 0:
                raise ConfigurationError(
                    "cluster_restart_delay_s must be >= 0, got "
                    f"{self.cluster_restart_delay_s}"
                )
        return self

    # --------------------------------------------------------------- builders

    @staticmethod
    def builder() -> "PlatformSpecBuilder":
        """A fluent builder (``PlatformSpec.builder().city(...).build()``)."""
        return PlatformSpecBuilder()

    def with_overrides(self, **kwargs: Any) -> "PlatformSpec":
        """Copy with top-level fields replaced (``scenario=``, ``cluster=``...)."""
        return replace(self, **kwargs).validate()

    # ---------------------------------------------------------- materialising

    def dispatcher_config(self) -> DispatcherConfig:
        """The dispatcher knobs with scenario-derived defaults filled in."""
        return self.dispatcher.to_config(
            default_grid_cell_metres=self.scenario.grid_km * 1000.0
        )

    def build_dispatcher(self):
        """Materialise the dispatcher described by :attr:`dispatcher`."""
        return self.dispatcher.build(config=self.dispatcher_config())

    def build_instance(self, network=None, oracle=None):
        """Materialise the scenario into a URPSM instance.

        Passing a pre-built ``network``/``oracle`` lets sweeps reuse the
        expensive city construction.
        """
        from repro.workloads.scenarios import build_instance  # lazy: heavy deps

        return build_instance(self.scenario, network=network, oracle=oracle)

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> dict:
        """Plain-data representation (exact inverse of :meth:`from_dict`)."""
        return {
            "scenario": dataclasses.asdict(self.scenario),
            "dispatcher": self.dispatcher.to_dict(),
            "collect_completions": self.collect_completions,
            "cluster": self.cluster,
            "cluster_max_pending": self.cluster_max_pending,
            "cluster_dispatch_timeout": self.cluster_dispatch_timeout,
            "cluster_retry_attempts": self.cluster_retry_attempts,
            "cluster_retry_backoff_s": self.cluster_retry_backoff_s,
            "cluster_max_restarts": self.cluster_max_restarts,
            "cluster_restart_delay_s": self.cluster_restart_delay_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PlatformSpec":
        """Build a validated spec from a plain mapping (JSON/TOML payloads)."""
        known = {
            "scenario",
            "dispatcher",
            "collect_completions",
            "cluster",
            "cluster_max_pending",
            "cluster_dispatch_timeout",
            "cluster_retry_attempts",
            "cluster_retry_backoff_s",
            "cluster_max_restarts",
            "cluster_restart_delay_s",
        }
        unknown = set(data) - known
        if unknown:
            raise _unknown_keys_error("platform spec", unknown, known)
        scenario_data = data.get("scenario", {})
        dispatcher_data = data.get("dispatcher", {})
        if not isinstance(scenario_data, dict):
            raise ConfigurationError("'scenario' must be a mapping of scenario fields")
        if not isinstance(dispatcher_data, dict):
            raise ConfigurationError("'dispatcher' must be a mapping of dispatcher fields")
        return cls(
            scenario=_scenario_from_dict(scenario_data),
            dispatcher=DispatcherSpec.from_dict(dispatcher_data),
            collect_completions=data.get("collect_completions", True),
            cluster=data.get("cluster", False),
            cluster_max_pending=data.get("cluster_max_pending", 1024),
            cluster_dispatch_timeout=data.get("cluster_dispatch_timeout", 60.0),
            cluster_retry_attempts=data.get("cluster_retry_attempts", 3),
            cluster_retry_backoff_s=data.get("cluster_retry_backoff_s", 0.05),
            cluster_max_restarts=data.get("cluster_max_restarts", 2),
            cluster_restart_delay_s=data.get("cluster_restart_delay_s", 0.0),
        ).validate()

    @classmethod
    def from_file(cls, path: str | Path) -> "PlatformSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        path = Path(path)
        suffix = path.suffix.lower()
        if suffix == ".json":
            data = json.loads(path.read_text(encoding="utf-8"))
        elif suffix == ".toml":
            import tomllib

            data = tomllib.loads(path.read_text(encoding="utf-8"))
        else:
            raise ConfigurationError(
                f"unsupported platform spec format {suffix!r} ({path}); "
                "use .json or .toml"
            )
        if not isinstance(data, dict):
            raise ConfigurationError(f"platform spec file {path} must contain a mapping")
        return cls.from_dict(data)

    def to_json(self, path: str | Path | None = None, indent: int = 2) -> str:
        """Serialise to JSON; also writes ``path`` when given."""
        payload = json.dumps(self.to_dict(), indent=indent) + "\n"
        if path is not None:
            Path(path).write_text(payload, encoding="utf-8")
        return payload


class PlatformSpecBuilder:
    """Fluent construction of a :class:`PlatformSpec`.

    Example::

        spec = (PlatformSpec.builder()
                .city("chengdu-like", seed=7)
                .workload(num_workers=50, num_requests=300)
                .dispatcher("pruneGreedyDP", batch_interval=4.0)
                .sharding(num_shards=4, strategy="kd")
                .build())
    """

    def __init__(self) -> None:
        self._scenario: dict[str, Any] = {}
        self._dispatcher: dict[str, Any] = {}
        self._algorithm: str | None = None
        self._collect_completions = True
        self._cluster = False
        self._cluster_max_pending = 1024
        self._cluster_dispatch_timeout = 60.0
        self._cluster_retry_attempts = 3
        self._cluster_retry_backoff_s = 0.05
        self._cluster_max_restarts = 2
        self._cluster_restart_delay_s = 0.0

    # ---------------------------------------------------------------- scenario

    def city(
        self, name: str, seed: int | None = None, city_seed: int | None = None
    ) -> "PlatformSpecBuilder":
        """Select the synthetic city (and optionally pin its seeds)."""
        self._scenario["city"] = name
        if seed is not None:
            self._scenario["seed"] = seed
        if city_seed is not None:
            self._scenario["city_seed"] = city_seed
        return self

    def workload(self, **scenario_fields: Any) -> "PlatformSpecBuilder":
        """Set workload / Table-5 scenario fields (``num_workers=...``, ...)."""
        known = {scenario_field.name for scenario_field in fields(ScenarioConfig)}
        unknown = set(scenario_fields) - known
        if unknown:
            raise _unknown_keys_error("scenario", unknown, known)
        self._scenario.update(scenario_fields)
        return self

    def oracle(
        self, backend: str | None = None, artifact_dir: str | None = None
    ) -> "PlatformSpecBuilder":
        """Configure the distance oracle.

        ``backend`` selects a distance backend by name (``"auto"``,
        ``"apsp"``, ``"ch"``). ``artifact_dir`` attaches the
        content-addressed preprocessing store (:mod:`repro.artifacts`), so
        precomputed backends load from disk when a build for the exact
        network is cached.
        """
        if backend is not None:
            self._scenario["oracle_backend"] = backend
        if artifact_dir is not None:
            self._scenario["oracle_artifact_dir"] = artifact_dir
        return self

    # -------------------------------------------------------------- dispatcher

    def dispatcher(self, algorithm: str | None = None, **knobs: Any) -> "PlatformSpecBuilder":
        """Select the algorithm (registry or ``sharded:<inner>`` name) + knobs."""
        if algorithm is not None:
            self._algorithm = algorithm
        known = {spec_field.name for spec_field in fields(DispatcherSpec)}
        unknown = set(knobs) - known
        if unknown:
            raise _unknown_keys_error("dispatcher spec", unknown, known)
        self._dispatcher.update(knobs)
        return self

    def sharding(
        self,
        num_shards: int,
        strategy: str | None = None,
        escalate_k: int | None = None,
    ) -> "PlatformSpecBuilder":
        """Enable spatial sharding with ``num_shards`` shards."""
        self._dispatcher["num_shards"] = num_shards
        self._dispatcher["sharded"] = True
        if strategy is not None:
            self._dispatcher["shard_strategy"] = strategy
        if escalate_k is not None:
            self._dispatcher["shard_escalate_k"] = escalate_k
        return self

    # ---------------------------------------------------------------- platform

    def cluster(
        self,
        num_shards: int | None = None,
        max_pending: int | None = None,
        dispatch_timeout: float | None = None,
        retry_attempts: int | None = None,
        retry_backoff_s: float | None = None,
        max_restarts: int | None = None,
        restart_delay_s: float | None = None,
    ) -> "PlatformSpecBuilder":
        """Serve through the multiprocess shard-worker cluster.

        ``num_shards`` sets the worker-process count (it is the sharding K);
        omitted, the previously configured sharding layout is reused. The
        remaining knobs tune the self-healing layer (retry budget, respawn
        budget, adoption delay).
        """
        self._cluster = True
        if num_shards is not None:
            self._dispatcher["num_shards"] = num_shards
            self._dispatcher["sharded"] = True
        if max_pending is not None:
            self._cluster_max_pending = max_pending
        if dispatch_timeout is not None:
            self._cluster_dispatch_timeout = dispatch_timeout
        if retry_attempts is not None:
            self._cluster_retry_attempts = retry_attempts
        if retry_backoff_s is not None:
            self._cluster_retry_backoff_s = retry_backoff_s
        if max_restarts is not None:
            self._cluster_max_restarts = max_restarts
        if restart_delay_s is not None:
            self._cluster_restart_delay_s = restart_delay_s
        return self

    def collect_completions(self, flag: bool) -> "PlatformSpecBuilder":
        """Toggle completion bookkeeping (waits, detours)."""
        self._collect_completions = flag
        return self

    def build(self) -> PlatformSpec:
        """Assemble and validate the spec."""
        knobs = dict(self._dispatcher)
        sharded_flag = bool(knobs.pop("sharded", False))
        if self._algorithm is not None:
            parsed = DispatcherSpec.parse(self._algorithm)
            dispatcher = replace(
                parsed, sharded=parsed.sharded or sharded_flag, **knobs
            ).validate()
        else:
            dispatcher = DispatcherSpec(sharded=sharded_flag, **knobs).validate()
        return PlatformSpec(
            scenario=ScenarioConfig(**self._scenario),
            dispatcher=dispatcher,
            collect_completions=self._collect_completions,
            cluster=self._cluster,
            cluster_max_pending=self._cluster_max_pending,
            cluster_dispatch_timeout=self._cluster_dispatch_timeout,
            cluster_retry_attempts=self._cluster_retry_attempts,
            cluster_retry_backoff_s=self._cluster_retry_backoff_s,
            cluster_max_restarts=self._cluster_max_restarts,
            cluster_restart_delay_s=self._cluster_restart_delay_s,
        ).validate()


__all__ = ["PlatformSpec", "PlatformSpecBuilder"]
