"""Structured dispatcher selection: :class:`DispatcherSpec` and discovery.

The registry used to be addressed by bare strings, with the sharded wrapper
selected through ad-hoc ``"sharded:<inner>"`` prefix parsing scattered across
the CLI and the experiment runner. This module makes the selection a value:

* :class:`DispatcherSpec` — a frozen, serialisable description of *which*
  algorithm to run and with *which* knobs (grid cell, batch window, sharding
  layout). ``spec.build()`` materialises the dispatcher; ``"sharded:<inner>"``
  strings are still accepted through :meth:`DispatcherSpec.parse` so existing
  call sites and saved configurations keep working.
* :func:`list_dispatchers` — discovery of every registered algorithm name
  (optionally including the sharded variants).
* :func:`suggest_dispatchers` — close-match suggestions used to build helpful
  "unknown algorithm" errors in the CLI and the spec validators.

The class registry itself (:data:`repro.dispatch.ALGORITHMS`) stays where it
always was; this module only adds the structured front door.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, fields, replace

from repro.dispatch.base import Dispatcher, DispatcherConfig
from repro.exceptions import ConfigurationError

#: prefix historically selecting the sharded wrapper (``"sharded:<inner>"``).
SHARDED_PREFIX = "sharded:"

#: prefix selecting the multiprocess cluster front door (``"cluster:<inner>"``).
CLUSTER_PREFIX = "cluster:"


def _registry() -> dict:
    from repro.dispatch import ALGORITHMS  # lazy: registry.py is imported by the package

    return ALGORITHMS


def list_dispatchers(include_sharded: bool = False) -> list[str]:
    """Names of every registered dispatch algorithm, sorted.

    Args:
        include_sharded: also list the ``sharded:<name>`` wrapper variants.
    """
    names = sorted(_registry())
    if include_sharded:
        names += [f"{SHARDED_PREFIX}{name}" for name in sorted(_registry())]
    return names


def suggest_dispatchers(name: str, limit: int = 3) -> list[str]:
    """Registry names close to ``name`` (for "did you mean" errors)."""
    candidates = list_dispatchers(include_sharded=True) + ["sharded", "cluster"]
    return difflib.get_close_matches(name, candidates, n=limit, cutoff=0.4)


def _unknown_name_error(kind: str, name: str) -> ConfigurationError:
    message = f"unknown {kind} {name!r}; available: {list_dispatchers()}"
    suggestions = suggest_dispatchers(name)
    if suggestions:
        message += f" (did you mean {', '.join(repr(s) for s in suggestions)}?)"
    return ConfigurationError(message)


def unknown_fields_error(kind: str, unknown: set[str], known: set[str]) -> ConfigurationError:
    """Error for unknown mapping keys with close-match suggestions.

    Shared by every ``from_dict``-style loader (dispatcher spec, platform
    spec, builder kwargs) so the error format stays uniform.
    """
    hints = []
    for key in sorted(unknown):
        close = difflib.get_close_matches(key, sorted(known), n=1, cutoff=0.4)
        hints.append(f"{key!r}" + (f" (did you mean {close[0]!r}?)" if close else ""))
    return ConfigurationError(
        f"unknown {kind} field(s): {', '.join(hints)}; valid fields: {sorted(known)}"
    )


@dataclass(frozen=True)
class DispatcherSpec:
    """Declarative description of one dispatcher configuration.

    Replaces the ``"sharded:<inner>"`` string convention and the loose
    :class:`~repro.dispatch.base.DispatcherConfig` kwargs with a single
    validated value that can be built, compared, serialised
    (:meth:`to_dict`/:meth:`from_dict`) and embedded in a
    :class:`~repro.service.spec.PlatformSpec`.

    Attributes:
        algorithm: registry name of the (inner) algorithm.
        sharded: wrap the algorithm in the sharded dispatcher even at
            ``num_shards=1`` (the exactness wrapper); ``num_shards > 1``
            implies sharding regardless of this flag.
        cluster: run the shards as long-lived worker *processes* behind the
            :class:`~repro.cluster.dispatcher.ClusterDispatcher` front door
            instead of the in-process sharded wrapper. Takes precedence over
            ``sharded`` when both are set.
        num_shards: spatial shards ``K`` of the sharded wrapper.
        shard_strategy: partitioning strategy (see
            :data:`repro.sharding.partitioner.STRATEGIES`).
        shard_escalate_k: neighbouring shards tried after the origin shard.
        grid_cell_metres: grid-index cell size; ``None`` derives it from the
            scenario (``grid_km * 1000``) when built through a platform spec,
            or falls back to the :class:`DispatcherConfig` default.
        reject_unprofitable: post-planning profitability check.
        batch_interval: accumulation window of batch-style dispatchers (s).
        kinetic_node_budget: search-node budget of the kinetic baseline.
    """

    algorithm: str = "pruneGreedyDP"
    sharded: bool = False
    cluster: bool = False
    num_shards: int = 1
    shard_strategy: str = "grid"
    shard_escalate_k: int = 2
    grid_cell_metres: float | None = None
    reject_unprofitable: bool = False
    batch_interval: float = 6.0
    kinetic_node_budget: int = 20_000

    # ------------------------------------------------------------ constructors

    @classmethod
    def parse(cls, name: str, **overrides) -> "DispatcherSpec":
        """Build a spec from a registry name (``"sharded:<inner>"`` included).

        ``overrides`` may set any spec field except ``algorithm`` (the name
        carries it); a ``sharded`` override is OR-ed with the name's prefix.
        Raises :class:`~repro.exceptions.ConfigurationError` with close-match
        suggestions when the name is unknown.
        """
        if "algorithm" in overrides:
            raise ConfigurationError(
                "pass the algorithm through the name argument of parse(), "
                "not as an override"
            )
        sharded = bool(overrides.pop("sharded", False))
        cluster = bool(overrides.pop("cluster", False))
        algorithm = name
        if name == "sharded":
            sharded, algorithm = True, "pruneGreedyDP"
        elif name == "cluster":
            cluster, algorithm = True, "pruneGreedyDP"
        elif name.startswith(SHARDED_PREFIX):
            sharded, algorithm = True, name[len(SHARDED_PREFIX):]
            if algorithm not in _registry():
                raise _unknown_name_error("sharded inner dispatcher", algorithm)
        elif name.startswith(CLUSTER_PREFIX):
            cluster, algorithm = True, name[len(CLUSTER_PREFIX):]
            if algorithm not in _registry():
                raise _unknown_name_error("cluster inner dispatcher", algorithm)
        if algorithm not in _registry():
            raise _unknown_name_error("dispatcher", algorithm)
        return cls(
            algorithm=algorithm, sharded=sharded, cluster=cluster, **overrides
        ).validate()

    @classmethod
    def from_config(
        cls,
        config: DispatcherConfig,
        algorithm: str = "pruneGreedyDP",
        sharded: bool = False,
    ) -> "DispatcherSpec":
        """Lift a legacy :class:`DispatcherConfig` into a spec."""
        return cls(
            algorithm=algorithm,
            sharded=sharded,
            num_shards=config.num_shards,
            shard_strategy=config.shard_strategy,
            shard_escalate_k=config.shard_escalate_k,
            grid_cell_metres=config.grid_cell_metres,
            reject_unprofitable=config.reject_unprofitable,
            batch_interval=config.batch_interval,
            kinetic_node_budget=config.kinetic_node_budget,
        )

    @classmethod
    def from_dict(cls, data: dict) -> "DispatcherSpec":
        """Build a spec from a plain mapping (JSON/TOML payloads)."""
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise unknown_fields_error("dispatcher spec", unknown, known)
        return cls(**data).validate()

    # -------------------------------------------------------------- validation

    def validate(self) -> "DispatcherSpec":
        """Check the spec; returns ``self`` so calls can be chained."""
        if self.algorithm not in _registry():
            raise _unknown_name_error("dispatcher", self.algorithm)
        if self.num_shards < 1:
            raise ConfigurationError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.shard_escalate_k < 0:
            raise ConfigurationError(
                f"shard_escalate_k must be >= 0, got {self.shard_escalate_k}"
            )
        if self.is_sharded or self.cluster:
            from repro.sharding.partitioner import STRATEGIES  # lazy import cycle guard

            if self.shard_strategy not in STRATEGIES:
                raise ConfigurationError(
                    f"unknown shard strategy {self.shard_strategy!r}; "
                    f"available: {sorted(STRATEGIES)}"
                )
        if self.grid_cell_metres is not None and self.grid_cell_metres <= 0:
            raise ConfigurationError(
                f"grid_cell_metres must be positive, got {self.grid_cell_metres}"
            )
        if self.batch_interval <= 0:
            raise ConfigurationError(
                f"batch_interval must be positive, got {self.batch_interval}"
            )
        return self

    # --------------------------------------------------------------- accessors

    @property
    def is_sharded(self) -> bool:
        """Whether building yields the sharded wrapper."""
        return self.sharded or self.num_shards > 1

    @property
    def name(self) -> str:
        """Display/registry name (``sharded:``/``cluster:`` prefixed variants)."""
        if self.cluster:
            return f"{CLUSTER_PREFIX}{self.algorithm}"
        return f"{SHARDED_PREFIX}{self.algorithm}" if self.is_sharded else self.algorithm

    def with_algorithm(self, name: str) -> "DispatcherSpec":
        """This spec's knobs with the algorithm replaced by ``name``.

        ``name`` may be a plain registry name or a ``"sharded:<inner>"``
        string; the parsed sharding flag is OR-ed with the spec's own.
        """
        parsed = DispatcherSpec.parse(name)
        return replace(
            self, algorithm=parsed.algorithm, sharded=self.sharded or parsed.sharded
        ).validate()

    # ------------------------------------------------------------ materialising

    def to_config(self, default_grid_cell_metres: float | None = None) -> DispatcherConfig:
        """The :class:`DispatcherConfig` equivalent of this spec.

        ``default_grid_cell_metres`` fills in the cell size when the spec
        leaves it to the scenario (``grid_cell_metres=None``).
        """
        cell = self.grid_cell_metres
        if cell is None:
            cell = (
                default_grid_cell_metres
                if default_grid_cell_metres is not None
                else DispatcherConfig.grid_cell_metres
            )
        return DispatcherConfig(
            grid_cell_metres=cell,
            reject_unprofitable=self.reject_unprofitable,
            batch_interval=self.batch_interval,
            kinetic_node_budget=self.kinetic_node_budget,
            num_shards=self.num_shards,
            shard_strategy=self.shard_strategy,
            shard_escalate_k=self.shard_escalate_k,
        )

    def build(
        self,
        config: DispatcherConfig | None = None,
        default_grid_cell_metres: float | None = None,
    ) -> Dispatcher:
        """Materialise the dispatcher described by this spec.

        Args:
            config: use this exact :class:`DispatcherConfig` instead of the
                spec's knobs (the ``make_dispatcher`` compatibility path).
            default_grid_cell_metres: scenario-derived cell size used when the
                spec does not pin one (ignored when ``config`` is given).
        """
        self.validate()
        if config is None:
            config = self.to_config(default_grid_cell_metres)
        if self.cluster:
            from repro.cluster.dispatcher import ClusterDispatcher  # lazy import cycle guard

            return ClusterDispatcher(config, inner=self.algorithm)
        if self.is_sharded:
            from repro.sharding.dispatcher import ShardedDispatcher  # lazy import cycle guard

            return ShardedDispatcher(config, inner=self.algorithm)
        return _registry()[self.algorithm](config)

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> dict:
        """Plain-data representation (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)


__all__ = [
    "DispatcherSpec",
    "SHARDED_PREFIX",
    "CLUSTER_PREFIX",
    "list_dispatchers",
    "suggest_dispatchers",
    "unknown_fields_error",
]
