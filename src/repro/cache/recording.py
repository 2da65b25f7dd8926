"""The source-stream artifact: one wrapper sub-result, replayable bit for bit.

The semantics guard of the sub-result cache: **cache saves wall-clock, not
virtual time**.  A warm replay must charge the run context exactly what the
cold run charged, in the same order, consuming the same RNG draws — so the
virtual timeline (and therefore every benchmark number under a fixed seed)
is bit-identical whether a stream came from the source or from the cache.

A wrapper execution is therefore two steps.  **Fetch** is pure data work
(no clock, no RNG) and produces one :class:`SourceBlock`; **charge** is the
single generator in ``federation/wrappers.py`` that walks a block and
issues its charges lazily as downstream operators pull.  Cold batch runs,
warm replays on either data plane and both source kinds go through the
same block and the same loop, so the SQL block memo and the sub-result
cache hold the *same object*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class SourceBlock:
    """The fetched result of one wrapper execution, chunked for one batch size.

    ``pre_costs`` and ``handles`` are parallel, one entry per source event
    in source order: the source-side cost charged before the event, and the
    ``(SolutionBatch, row)`` handle of a kept answer or ``None`` for an
    event dropped at the source.  Handles point into shared, immutable
    column chunks of at most ``batch_size`` rows (``fills`` lists the chunk
    sizes for the batch-fill histogram).  Per event the charge loop issues

    * relational rows: ``source(pre_cost)`` then one message — rows whose
      solution reconstruction yields NULL are dropped but still cross the
      network (``drops_cross_network``) — plus one ``residual`` at the end;
    * RDF matches: ``source(pre_cost)`` (the lookups), and for matches that
      survive restriction/filtering ``source(output_cost)`` + one message.

    Blocks are shared read-only between runs, engines and threads.
    """

    pre_costs: list[float]
    handles: list[tuple[Any, int] | None]
    fills: list[int]
    batch_size: int
    output_cost: float = 0.0
    residual: float = 0.0
    drops_cross_network: bool = False
