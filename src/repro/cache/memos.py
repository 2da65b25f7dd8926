"""Every process-wide memo of the engine, declared in one place.

These regions hold pure data work that is fully determined by its key —
translated SQL, compiled filters and predicates, decoded terms, fetched
source blocks, recorded run scripts — and is therefore shared by all
engines of the process, including the worker threads of an
``EnginePool``.  All of them are :class:`~repro.cache.lru.LRUCache`
instances: one eviction policy, one lock discipline, one set of counters
(:func:`memo_stats`).

Hit/miss counts depend on what the process ran before, so they are for
inspection only: they never enter a fingerprint, a journal event,
``/stats`` or ``/metrics``.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any

from .lru import CacheStats, LRUCache

#: Fetched relational blocks per ``Database``, keyed by (SQL text, data
#: version, cost model, batch size).
SQL_BLOCK_CAPACITY = 64
#: Columnar star matches per ``Graph``, keyed by (graph version, patterns).
STAR_COLUMNS_CAPACITY = 32
#: Recorded run scripts, keyed by (plan-root data signature, cost model,
#: batch size).
RUN_SCRIPT_CAPACITY = 16
#: Star→SQL translations, keyed structurally (patterns, filters, mapping).
TRANSLATION_CAPACITY = 256
#: Per-binding ``SQL value -> Term`` decode tables (the inner tables are
#: plain dicts on the per-value hot path; only the outer map is bounded).
TERM_DECODER_CAPACITY = 1024
#: Compiled FILTER predicates, keyed by the (frozen) expression node.
COMPILED_HOLDS_CAPACITY = 256
#: Compiled relational WHERE predicates, keyed by (row header, frozen
#: predicate node).
COMPILED_PREDICATES_CAPACITY = 2048


class StoreMemo:
    """One LRU region per live store, released when the store is dropped.

    Keys inside a region carry the store's data version, so a write or an
    index change makes the next lookup miss; stale entries age out by LRU.
    The counters of a released region are kept, so :meth:`stats` never
    runs backwards.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._regions: dict[int, LRUCache] = {}  # by id() of a live store
        self._released = CacheStats()
        # Re-entrant: a store may be finalized (``_release``) by a garbage
        # collection that starts while this thread is inside ``region``.
        self._lock = threading.RLock()

    def region(self, store: Any) -> LRUCache:
        with self._lock:
            region = self._regions.get(id(store))
            if region is None:
                region = self._regions[id(store)] = LRUCache(self.capacity)
                weakref.finalize(store, self._release, id(store))
            return region

    def _release(self, store_id: int) -> None:
        with self._lock:
            stats = self._regions.pop(store_id).stats()
            self._released.hits += stats.hits
            self._released.misses += stats.misses
            self._released.evictions += stats.evictions

    def regions(self) -> list[LRUCache]:
        """The regions of the stores that are still alive."""
        with self._lock:
            return list(self._regions.values())

    def clear(self) -> None:
        for region in self.regions():
            region.clear()

    def stats(self) -> CacheStats:
        """Lifetime counters; size and capacity summed over the live stores."""
        with self._lock:
            live = [region.stats() for region in self._regions.values()]
            total = CacheStats(
                self._released.hits, self._released.misses, self._released.evictions
            )
        for stats in live:
            total.hits += stats.hits
            total.misses += stats.misses
            total.evictions += stats.evictions
            total.size += stats.size
            total.capacity += stats.capacity
        return total


sql_blocks = StoreMemo(SQL_BLOCK_CAPACITY)
star_columns = StoreMemo(STAR_COLUMNS_CAPACITY)
run_scripts = LRUCache(RUN_SCRIPT_CAPACITY)
translations = LRUCache(TRANSLATION_CAPACITY)
term_decoders = LRUCache(TERM_DECODER_CAPACITY)
compiled_holds = LRUCache(COMPILED_HOLDS_CAPACITY)
compiled_predicates = LRUCache(COMPILED_PREDICATES_CAPACITY)

#: Every region, by the name :func:`memo_stats` reports it under.
REGIONS: dict[str, LRUCache | StoreMemo] = {
    "sql_blocks": sql_blocks,
    "star_columns": star_columns,
    "run_scripts": run_scripts,
    "translations": translations,
    "term_decoders": term_decoders,
    "compiled_holds": compiled_holds,
    "compiled_predicates": compiled_predicates,
}


def memo_stats() -> dict[str, CacheStats]:
    """A counter snapshot of every memo region, by name."""
    return {name: region.stats() for name, region in REGIONS.items()}


def clear_memos() -> None:
    """Drop every memoized entry (counters keep running)."""
    for region in REGIONS.values():
        region.clear()
