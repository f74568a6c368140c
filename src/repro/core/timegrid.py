"""The time grid: every simulated time is a multiple of ``TIME_QUANTUM``.

Times enter the model in a few places only — edge travel times, request
release times and windows, shift bounds, cancellation and network-update
times, the batch window, the cluster's restart delay and the clocks a caller
hands the service — and each of them goes through :func:`on_grid`; a time a
caller sets on a ``Request``, ``WorkerShift`` or ``Cancellation`` must pass
:func:`require_on_grid`. A sum of grid values below ``2**43`` s is
exact in float64 (53 mantissa bits = 43 integer bits + 10 fractional ones), so
every derived time — arrival times, slacks, partial-advance anchors, shortest
distances — is the same bit pattern whatever order its terms are added in.
"""

from __future__ import annotations

import math

from repro.exceptions import ConfigurationError

#: Resolution of simulated time in seconds (2⁻¹⁰ s, just under a millisecond).
TIME_QUANTUM = 2.0**-10

#: Grid sums stay exact strictly below this many seconds.
TIME_LIMIT = 2.0**43


def on_grid(seconds: float, field: str = "time") -> float:
    """``seconds`` rounded **up** to the next multiple of :data:`TIME_QUANTUM`.

    Rounding up keeps every travel time at or above the true one, so the
    Euclidean lower bounds (Lemmas 7 and 8) stay admissible. ``field`` names
    the offending quantity when ``seconds`` lies outside ``(-2**43, 2**43)``
    (or is NaN), where grid sums would stop being exact.
    """
    if not -TIME_LIMIT < seconds < TIME_LIMIT:
        raise ConfigurationError(
            f"{field} = {seconds!r} s is outside the exact time grid (|t| < 2**43 s)"
        )
    return math.ceil(seconds / TIME_QUANTUM) * TIME_QUANTUM


def require_on_grid(seconds: float, field: str = "time") -> None:
    """Raise :class:`ConfigurationError` naming ``field`` unless ``seconds`` is on the grid."""
    if on_grid(seconds, field) != seconds:
        raise ConfigurationError(f"{field} = {seconds!r} s is off the 2**-10 s time grid")
