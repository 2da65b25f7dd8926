"""Answers, run context and execution statistics.

A *solution* is a ``dict[str, Term]`` (variable name -> RDF term).  The
:class:`RunContext` bundles everything one query execution shares: the
clock, the cost model, the network setting, the RNG and the statistics
being collected — including the **answer trace** (time, answer index) that
reproduces the paper's Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cache import CacheRegistry
from ..network.clock import Clock, VirtualClock
from ..network.costmodel import CostModel, DEFAULT_COST_MODEL
from ..network.delays import NetworkSetting
from ..rdf.terms import Term

if TYPE_CHECKING:  # pragma: no cover
    pass

Solution = dict[str, Term]

#: Engine execution modes: ``batch`` (the default) is the columnar data
#: plane of ``federation.batch``, ``row`` the per-solution reference that
#: hands one dict per answer through every operator.  Both share one source
#: path (``federation.wrappers``).
EXEC_MODES = ("row", "batch")

#: Default rows per columnar batch chunk (overridable per engine via
#: ``batch_size=`` or the ``--batch-size`` flag).
DEFAULT_BATCH_SIZE = 256

#: How many network-delay samples a context draws per RNG refill.
_DELAY_BLOCK = 512


class ChargeBatch:
    """Accumulates engine charges and applies them to the clock in blocks.

    Per-tuple ``charge_engine`` calls dominate the Python overhead of the
    symmetric hash join's insert/probe loop.  Batching is safe because a
    virtual clock only *sums* durations: as long as every pending charge is
    flushed before an answer leaves the operator (and at stream end), the
    clock value observed at each yield — and therefore every answer
    timestamp and the final execution time — is unchanged.
    """

    __slots__ = ("_context", "_pending")

    def __init__(self, context: "RunContext"):
        self._context = context
        self._pending = 0.0

    def add(self, seconds: float) -> None:
        self._pending += seconds

    def flush(self) -> None:
        if self._pending:
            self._context.charge_engine(self._pending)
            self._pending = 0.0


@dataclass
class SourceStats:
    """Per-source accounting of one run."""

    requests: int = 0
    answers: int = 0
    virtual_cost: float = 0.0
    #: Network time (sampled delay + message overhead) charged for this
    #: source's requests and answer transfers — the per-source "delay
    #: charged" series the observability layer reports.
    network_delay: float = 0.0


@dataclass
class ExecutionStats:
    """Everything measured during one query execution.

    The ``*_cache_*`` fields report this run's cache behaviour only; the
    virtual-time metrics above them are cache-neutral by construction
    (cached replays re-charge the clock identically to a cold run).
    ``plan_cache_hit`` is None when no plan cache was consulted.
    """

    answers: int = 0
    execution_time: float = 0.0
    time_to_first_answer: float | None = None
    trace: list[tuple[float, int]] = field(default_factory=list)
    messages: int = 0
    engine_cost: float = 0.0
    source_stats: dict[str, SourceStats] = field(default_factory=dict)
    plan_cache_hit: bool | None = None
    subresult_cache_hits: int = 0
    subresult_cache_misses: int = 0

    def cache_summary(self) -> str:
        plan = (
            "off"
            if self.plan_cache_hit is None
            else ("hit" if self.plan_cache_hit else "miss")
        )
        return (
            f"plan={plan} subresults={self.subresult_cache_hits} hit / "
            f"{self.subresult_cache_misses} miss"
        )

    def record_answer(self, timestamp: float) -> None:
        self.answers += 1
        if self.time_to_first_answer is None:
            self.time_to_first_answer = timestamp
        self.trace.append((timestamp, self.answers))

    def source(self, source_id: str) -> SourceStats:
        if source_id not in self.source_stats:
            self.source_stats[source_id] = SourceStats()
        return self.source_stats[source_id]

    def absorb_transfer(self, other: "ExecutionStats") -> None:
        """Fold a producer task's private transfer accounting into this run.

        The event scheduler gives every producer task its own stats object
        (so thread-pool workers never race on shared counters) and merges
        them here when the task's stream closes.  Only the commutative
        transfer counters move; the engine-side metrics (trace, engine
        cost, execution time) always live on the run's main stats.
        """
        self.messages += other.messages
        self.subresult_cache_hits += other.subresult_cache_hits
        self.subresult_cache_misses += other.subresult_cache_misses
        for source_id, stats in other.source_stats.items():
            mine = self.source(source_id)
            mine.requests += stats.requests
            mine.answers += stats.answers
            mine.virtual_cost += stats.virtual_cost
            mine.network_delay += stats.network_delay

    def blame_components(self) -> dict:
        """Accumulator view of where this run's time went, by blame class.

        Engine charges are ``engine_work``, source-side virtual cost is
        ``cache_miss_penalty`` (the price of actually touching the source
        instead of a cache) and transfer pauses are ``network_delay``.
        Under the event/thread runtimes sibling sources overlap, so these
        components can sum to *more* than ``execution_time`` — they feed
        per-class histograms and accumulator-based attribution, not the
        exact critical-path tiling (see :mod:`repro.obs.critpath`).
        """
        network = 0.0
        cache = 0.0
        per_source: dict[str, dict[str, float]] = {}
        for source_id in sorted(self.source_stats):
            source = self.source_stats[source_id]
            network += source.network_delay
            cache += source.virtual_cost
            per_source[source_id] = {
                "network_delay": source.network_delay,
                "cache_miss_penalty": source.virtual_cost,
            }
        return {
            "engine_work": self.engine_cost,
            "network_delay": network,
            "cache_miss_penalty": cache,
            "sources": per_source,
            "total": self.execution_time,
        }

    @property
    def throughput(self) -> float:
        """Answers per (virtual) second over the whole execution."""
        if self.execution_time <= 0:
            return 0.0
        return self.answers / self.execution_time

    def answers_at(self, timestamp: float) -> int:
        """How many answers had been produced by *timestamp* (dief@t-style)."""
        produced = 0
        for when, count in self.trace:
            if when <= timestamp:
                produced = count
            else:
                break
        return produced

    def trace_area(self, until: float | None = None) -> float:
        """Area under the answer trace (dief@t); larger = more diefficient."""
        horizon = until if until is not None else self.execution_time
        area = 0.0
        previous_time = 0.0
        previous_count = 0
        for when, count in self.trace:
            if when > horizon:
                break
            area += previous_count * (when - previous_time)
            previous_time, previous_count = when, count
        area += previous_count * max(0.0, horizon - previous_time)
        return area


class RunContext:
    """Shared state of one query execution."""

    def __init__(
        self,
        network: NetworkSetting | None = None,
        cost_model: CostModel | None = None,
        clock: Clock | None = None,
        seed: int | None = None,
        caches: CacheRegistry | None = None,
        exec_mode: str = "batch",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        self.network = network or NetworkSetting.no_delay()
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        self.clock = clock if clock is not None else VirtualClock()
        #: The run seed as given.  The sequential runtime feeds it straight
        #: into one shared RNG; the event scheduler derives one independent
        #: substream per producer task from it (see ``repro.runtime.task``).
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.stats = ExecutionStats()
        #: The owning engine's cache registry; None means wrappers run
        #: uncached (e.g. a bare RunContext in tests).
        self.caches = caches
        #: The run's :class:`~repro.obs.observation.RunObservation`, or
        #: None for an unobserved run.  Every instrumentation hook guards
        #: on this being None, which is what makes observation
        #: zero-cost-when-off on the hot paths.
        self.obs = None
        #: The deterministic task identity under the event scheduler (see
        #: :class:`~repro.runtime.task.TaskContext`); the empty tuple marks
        #: the engine-side context of a run.
        self.key: tuple[int, ...] = ()
        #: ``"batch"`` or ``"row"`` — which data plane the operators run.
        #: Wrappers fetch and charge identically under both.
        self.exec_mode = exec_mode
        #: Rows per columnar chunk (source blocks and batch-plane chunks).
        self.batch_size = batch_size
        #: Block-sampled network delays.  All delay draws of one context
        #: come from one distribution (``network.delay``), so the i-th
        #: buffered draw equals the i-th scalar draw regardless of which
        #: stream consumes it — refilling in blocks is bit-neutral.
        self._delay_buffer: list[float] = []
        self._delay_cursor = 0

    # -- network-delay sampling ----------------------------------------------

    def next_delay(self) -> float:
        """The next network-delay sample of this context.

        Drawn from a block-sampled buffer: ``sample_block`` is pinned draw
        for draw to the scalar ``sample`` sequence by tests, and amortizes
        the RNG call overhead.  :func:`repro.federation.wrappers._charge`
        inlines this for per-answer delays.
        """
        cursor = self._delay_cursor
        buffer = self._delay_buffer
        if cursor >= len(buffer):
            buffer = self._delay_buffer = self.network.delay.sample_block(
                self.rng, _DELAY_BLOCK
            )
            cursor = 0
        self._delay_cursor = cursor + 1
        return buffer[cursor]

    # -- cost charging -------------------------------------------------------

    def charge_engine(self, seconds: float) -> None:
        """Charge engine-side work to the clock."""
        if seconds > 0:
            self.clock.sleep(seconds)
            self.stats.engine_cost += seconds

    def charge_request(self, source_id: str) -> None:
        """The round trip that ships one sub-query to a source.

        Per-answer delays — the paper's injection point, the wrapper
        delaying the retrieval of the next answer — are charged by
        :func:`repro.federation.wrappers._charge`.
        """
        pause = self.next_delay() + self.cost_model.message_overhead
        self.clock.sleep(pause)
        self.stats.messages += 1
        source = self.stats.source(source_id)
        source.requests += 1
        source.network_delay += pause

    def now(self) -> float:
        return self.clock.now()
