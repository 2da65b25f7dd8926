"""A counted, bounded, thread-safe LRU cache.

Plain ``functools.lru_cache`` memoizes functions; the engine's caches need
explicit get/put (keys carry data versions computed at call time), runtime
enable/disable, and observable counters — hence this small class.

Every operation (including the counter increments) runs under one
re-entrant lock: the service layer shares one registry across a pool of
engines whose executions run on worker threads, and unlocked ``hits += 1``
increments are read-modify-write sequences that lose updates under
contention — ``stats()`` would then drift from the true lookup count.
The lock is uncontended in single-engine use and its cost is per wrapper
*execution*, not per row, so the hot data plane is unaffected.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Iterator


@dataclass
class CacheStats:
    """Lifetime counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0
    capacity: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 4),
        }


class LRUCache:
    """Least-recently-used cache with hit/miss/eviction accounting.

    A disabled cache misses every lookup and drops every put, so call
    sites never need to branch on the flag themselves.  Safe for
    concurrent use from multiple engines/threads; ``stats()`` snapshots
    the counters atomically.
    """

    def __init__(self, capacity: int = 256, enabled: bool = True):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(list(self._entries))

    def get(self, key: Hashable) -> Any | None:
        """The cached value, refreshing recency; None (and a miss) if absent."""
        with self._lock:
            if not self.enabled:
                self.misses += 1
                return None
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> int:
        """Store *value* as most recent; the number of entries evicted."""
        with self._lock:
            if not self.enabled:
                return 0
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            evicted = 0
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            return evicted

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry; True when it existed."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self.capacity,
            )
