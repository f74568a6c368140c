"""Exception hierarchy for the URPSM reproduction library."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class RoadNetworkError(ReproError):
    """Raised for malformed road networks (missing vertices, negative costs...)."""


class DisconnectedError(RoadNetworkError):
    """Raised when a shortest-path query targets an unreachable vertex."""


class InfeasibleRouteError(ReproError):
    """Raised when a route violates precedence, deadline or capacity constraints."""


class DispatchError(ReproError):
    """Raised for invalid dispatcher usage (e.g. unknown worker, duplicate request)."""


class ConfigurationError(ReproError, ValueError):
    """Raised for invalid scenario or experiment configuration, and for an
    entity constructed with an invalid field; a :class:`ValueError`, so a
    caller that catches the built-in still catches it."""


class UnsupportedNetworkUpdateError(ConfigurationError):
    """Raised when a live network mutation reaches a path that cannot apply it.

    The cluster front door raises this when topology changes arrive outside
    the replica-sync ``NetworkUpdateCommand`` flow — worker processes hold
    pickled network copies, so mutating the authoritative network without
    broadcasting the matching update would silently desynchronise replicas.
    """


class IngestError(ReproError):
    """Raised for malformed real-map input (GeoJSON / CSV edge lists)."""


class ArtifactError(ReproError):
    """Raised for invalid preprocessing-artifact store contents."""
