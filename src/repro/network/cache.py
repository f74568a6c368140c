"""The LRU cache in front of the oracle's shortest-path queries.

The paper maintains an LRU cache for shortest-distance and shortest-path
queries shared by all compared algorithms (Section 6.1). Here both distance
backends answer distances from a precomputed structure, so the oracle caches
paths only. The cache is a plain ordered-dict LRU with hit/miss counters so
experiments can report query statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: internal sentinel distinguishing "key absent" from "key maps to None/0/...".
_MISSING = object()


@dataclass
class CacheStatistics:
    """Hit/miss/eviction counters of an :class:`LRUCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class LRUCache(Generic[K, V]):
    """A fixed-capacity least-recently-used cache with statistics.

    Example:
        >>> cache: LRUCache[str, int] = LRUCache(capacity=2)
        >>> cache.put("a", 1)
        >>> cache.get("a")
        1
        >>> cache.get("missing") is None
        True
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self.statistics = CacheStatistics()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K, default: V | None = None) -> V | None:
        """Return the cached value for ``key`` or ``default``; updates recency.

        Presence is decided by a sentinel, not truthiness: a legitimately
        cached ``None``/``0``-like value is returned (and counted) as a hit,
        while an absent key is a miss even when ``default`` is falsy. Callers
        that may cache falsy values should pass their own sentinel as
        ``default`` to tell the two apart.
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.statistics.misses += 1
            return default
        self.statistics.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert or refresh ``key``; evicts the least recently used entry if full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.statistics.evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        """Drop all entries (statistics are preserved)."""
        self._entries.clear()

    def reset_statistics(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.statistics = CacheStatistics()
