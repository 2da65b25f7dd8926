"""The caching subsystem.

Federated query engines amortize per-query work aggressively: FedX caches
source-selection outcomes, Odyssey reuses precomputed per-source statistics.
This package brings the same levers to our pipeline, at three layers:

* a **plan cache** (:class:`CacheRegistry.plans`) — canonicalized query text
  + plan-policy fingerprint + network setting + the lake's design version
  map to a fully built :class:`~repro.core.planner.FederatedPlan`, skipping
  parse / decompose / source-select / heuristics / translate entirely;
* a **wrapper sub-result cache** (:class:`CacheRegistry.subresults`) —
  recorded per-source result streams keyed on (source, native query,
  restriction, data version), replayed with *identical* virtual-time
  charges so benchmarks stay bit-identical under a fixed seed;
* **process-wide memos** (:mod:`repro.cache.memos`) — pure data work shared
  by every engine of the process: star→SQL translations, compiled filters,
  decoded terms, fetched source blocks, recorded run scripts.  Inspect
  them with :func:`memo_stats`, drop them with :func:`clear_memos`.

Everything here is dependency-free (no imports from the rest of ``repro``)
so any layer may use it without cycles.  Every cache is an
:class:`LRUCache`: bounded, locked, with hit/miss/eviction counters.
"""

from .keys import canonicalize_query, sparql_result_key, sql_result_key
from .lru import CacheStats, LRUCache
from .memos import clear_memos, memo_stats
from .recording import SourceBlock
from .registry import CacheRegistry

__all__ = [
    "CacheRegistry",
    "CacheStats",
    "LRUCache",
    "SourceBlock",
    "canonicalize_query",
    "clear_memos",
    "memo_stats",
    "sparql_result_key",
    "sql_result_key",
]
