"""Source wrappers: run one sub-query request and stream answers with delays.

The wrapper is where the paper injects network latency: *"Network delays are
simulated within the SQL wrapper of Ontario; delaying the retrieval of the
next answer from the source."*  Both wrappers here follow that design:

* :class:`SQLWrapper` executes the stars' SQL translation on the
  in-process relational engine (pricing the engine's operation counts into
  virtual source time), and charges one network delay per answer retrieved.
* :class:`SPARQLWrapper` evaluates a :class:`StarRequest` over a native RDF
  source with the local BGP matcher, charging triple-lookup costs and
  per-answer delays.

A wrapper execution is two steps.  **Fetch** is pure data work and yields
one :class:`~repro.cache.SourceBlock`; **charge** (:func:`_charge`, the one
place a streamed answer is delayed) walks a block and issues the request's
source and network charges lazily, as downstream operators pull.  Both
wrappers consult the run's sub-result cache (:attr:`RunContext.caches`),
FedX-style: a hit charges the cached block — request, source and per-answer
network time exactly like a cold run, so virtual timelines stay
bit-identical under a fixed seed — and a miss publishes its block only once
the source exhausted it (a LIMIT-truncated pull caches nothing).  Keys
embed the source's data version, so any INSERT/DELETE or index change on
the underlying store invalidates silently.

Both data planes take this one path: the row plane only materializes each
charged handle into a solution dict, so a source is fetched, charged and
cached the same way whichever plane pulls it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterator, TYPE_CHECKING
from weakref import ref

from ..cache import SourceBlock, sparql_result_key, sql_result_key
from ..cache.memos import sql_blocks
from ..exceptions import WrapperError

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> federation cycle
    from ..core.decomposer import StarSubquery
from ..mapping.translator import TranslationResult
from ..relational.vexecutor import execute_priced
from ..rdf.terms import Term
from ..sparql.algebra import Filter
from ..sparql.bgp import evaluate_bgp, evaluate_bgp_columns
from ..sparql.expressions import compile_holds
from ..network.clock import RecordingClock, VirtualClock
from .answers import _DELAY_BLOCK, RunContext, Solution
from .answers import ANSWER, LOOKUP, PUBLISH, SOURCE_COST
from .batch import Handle, RowView, SolutionBatch, chunk_columns, observe_batches
from .endpoints import RDFSource, RelationalSource


def _obs_track(context: RunContext, source_id: str) -> str:
    """The trace track of one wrapper execution.

    Under the event scheduler every wrapper call runs as a producer task
    with a deterministic key, so each (source, task) pair gets its own
    track — which is what lets a Chrome trace show sibling sources'
    gamma delays overlapping.  The sequential runtime has no tasks; all
    of a source's sub-queries share that source's track.
    """
    key = context.key
    if key:
        return f"{source_id} · task {'.'.join(str(part) for part in key)}"
    return source_id


def _observed_stream(
    context: RunContext,
    source_id: str,
    name: str,
    stream,
    **args: object,
):
    """Wrap a wrapper stream in a span from first charge to stream close.

    The span's start/end come from the *driving* context's virtual clock
    (the task clock under the event runtimes), and the ``finally`` makes
    early-abandoned streams (LIMIT consumers) close their span too.  Cache
    behaviour is read off the context's stats delta: one wrapper call
    performs exactly one sub-result lookup when caching is enabled.
    """
    obs = context.obs
    bus = obs.bus
    stats = context.stats
    hits_before = stats.subresult_cache_hits
    misses_before = stats.subresult_cache_misses
    start = context.now()
    rows = 0
    try:
        for solution in stream:
            rows += 1
            yield solution
    finally:
        if stats.subresult_cache_hits > hits_before:
            cache = "hit"
        elif stats.subresult_cache_misses > misses_before:
            cache = "miss"
        else:
            cache = "off"
        bus.add_span(
            name,
            "wrapper",
            _obs_track(context, source_id),
            start,
            context.now(),
            rows=rows,
            cache=cache,
            source=source_id,
            **args,
        )


def _rechunked(block: SourceBlock, batch_size: int) -> SourceBlock:
    """*block* with its kept answers chunked for another batch size."""
    handles = block.handles
    kept = [i for i, handle in enumerate(handles) if handle is not None]
    names = handles[kept[0]][0].names if kept else ()
    columns: list[list[Term | None]] = [[None] * len(handles) for __ in names]
    for i in kept:
        batch, offset = handles[i]
        for column, values in zip(columns, batch.columns):
            column[i] = values[offset]
    handles, fills = chunk_columns(names, columns, kept, len(handles), batch_size)
    return replace(block, handles=handles, fills=fills, batch_size=batch_size)


def _charge(
    block: SourceBlock, context: RunContext, source_id: str, owner: str
) -> Iterator[Handle]:
    """Stream a block's kept answers, charging every source event lazily.

    The paper's injection point — *delaying the retrieval of the next
    answer from the source* — for cold runs and replays, both data planes
    and both source kinds.  Every delay comes from the context's
    block-sampled buffer (see :meth:`RunContext.next_delay`), inlined here
    with the clock and counter updates to save a call per answer.  Under a
    :class:`RecordingClock` each add is also logged with its tag, inline.
    """
    clock = context.clock
    virtual = type(clock) is VirtualClock
    recording = type(clock) is RecordingClock
    clock_sleep = clock.sleep
    if recording:
        add, tag = clock.adds.append, clock.tags.append
        base = clock.bases[source_id]  # the request charged it
        cost_tag, answer_tag = base + SOURCE_COST, base + ANSWER
    stats = context.stats
    src = stats.source(source_id)
    overhead = context.cost_model.message_overhead
    sample_block = context.network.delay.sample_block
    rng = context.rng
    output_cost = block.output_cost
    output_positive = output_cost > 0
    drops_cross_network = block.drops_cross_network
    try:
        for pre_cost, handle in zip(block.pre_costs, block.handles):
            if pre_cost > 0:
                if virtual:
                    clock._now += pre_cost
                elif recording:
                    clock._now += pre_cost
                    add(pre_cost)
                    tag(cost_tag)
                else:
                    clock_sleep(pre_cost)
                src.virtual_cost += pre_cost
            if handle is None and not drops_cross_network:
                continue
            if output_positive:
                if virtual:
                    clock._now += output_cost
                elif recording:
                    clock._now += output_cost
                    add(output_cost)
                    tag(cost_tag)
                else:
                    clock_sleep(output_cost)
                src.virtual_cost += output_cost
            cursor = context._delay_cursor
            buffer = context._delay_buffer
            if cursor >= len(buffer):
                buffer = context._delay_buffer = sample_block(rng, _DELAY_BLOCK)
                cursor = 0
            context._delay_cursor = cursor + 1
            pause = buffer[cursor] + overhead
            if virtual:
                clock._now += pause
            elif recording:
                clock._now += pause
                tag(answer_tag)
            else:
                clock_sleep(pause)
            stats.messages += 1
            src.answers += 1
            src.network_delay += pause
            if handle is not None:
                yield handle
        residual = block.residual
        if residual > 0:
            if virtual:
                clock._now += residual
            elif recording:
                clock._now += residual
                add(residual)
                tag(cost_tag)
            else:
                clock_sleep(residual)
            src.virtual_cost += residual
    finally:
        if context.exec_mode == "batch":
            observe_batches(context.obs, owner, block.fills, block.batch_size)


class _Wrapper:
    """The request protocol both wrappers share.

    One counted sub-result lookup, the request round trip, then the
    charges of a block — cached, or fetched by the subclass.  A stream
    publishes its block only once the source exhausted it: an
    early-terminated pull (LIMIT) never reaches the ``put``.

    A *request* is one sub-query as a value (:class:`TranslationResult` or
    :class:`StarRequest`) that renders its own text, key parts and span
    arguments; subclasses provide ``_key(request)`` and ``_fetch(context,
    request)``, the only place a source is queried.
    """

    kind = ""

    def __init__(self, source):
        self.source = source

    @property
    def source_id(self) -> str:
        return self.source.source_id

    @property
    def _owner(self) -> str:
        """Names this wrapper's spans and batch-fill metrics."""
        return f"{self.kind} {self.source_id}"

    def _lookup(self, context: RunContext, request):
        """``(cache, key, block)``; cache is None when wrappers run uncached."""
        caches = context.caches
        if caches is None or not caches.subresults.enabled:
            return None, None, None
        subresults = caches.subresults
        key = self._key(request)
        block = subresults.get(key)
        if block is None:
            context.stats.subresult_cache_misses += 1
            return subresults, key, None
        context.stats.subresult_cache_hits += 1
        if context.exec_mode == "batch" and block.batch_size != context.batch_size:
            # Published under another batch size: re-chunk once, republish.
            block = _rechunked(block, context.batch_size)
            subresults.put(key, block)
        return subresults, key, block

    def _handles(self, context: RunContext, request) -> Iterator[Handle]:
        source_id = self.source_id
        subresults, key, block = self._lookup(context, request)
        clock = context.clock
        recording = type(clock) is RecordingClock
        if recording:
            clock.mark(lookup := (LOOKUP, self, request))
        context.charge_request(source_id)
        cached = block is not None
        if not cached:
            block = self._fetch(context, request)
        yield from _charge(block, context, source_id, self._owner)
        if recording:
            clock.mark((PUBLISH, lookup))
        if subresults is not None and not cached:
            subresults.put(key, block)

    def _stream(self, context: RunContext, handles: bool, request):
        """The (optionally observed) stream of one request.

        Not a generator function: nothing runs until the returned stream is
        pulled, and the unobserved path hands the inner stream straight to
        the consumer, skipping a delegation frame per pulled row.
        """
        stream = self._handles(context, request)
        if not handles:
            stream = (batch.materialize(idx) for batch, idx in stream)
        if context.obs is None:
            return stream
        return _observed_stream(
            context, self.source_id, self._owner, stream, **request.span_args
        )


class SQLWrapper(_Wrapper):
    """Wrapper over one relational source."""

    kind = "SQL"
    source: RelationalSource

    def data_version(self) -> tuple:
        """``(weakref to the database, its data version)``: the reference
        pins identity (two lakes may both be at version 0) without keeping a
        dropped store alive through a run-script key, the version
        invalidates on mutation."""
        database = self.source.database
        return ref(database), database.data_version

    def execute(
        self,
        translation: TranslationResult,
        context: RunContext,
    ) -> Iterator[Solution]:
        """Run the SQL and stream solutions, charging source + network time.

        The relational plan runs once and is priced whole
        (``execute_priced``); each answer's price delta and network delay
        are then charged lazily, as the consumer pulls, so the virtual
        timeline interleaves source work and transfer exactly like a
        streaming endpoint would.  With a sub-result cache on the context,
        a cached block for the same (SQL, data version) replays instead —
        saving the RDBMS wall-clock work while re-charging identical
        virtual time.  Observed runs additionally record one wrapper span
        per execution (the span only reads the clock, never advances it).

        This is :meth:`execute_batch` with every handle materialized into a
        dict: the row plane's entry point, and the event/thread runtimes',
        whose schedulers transport plain solutions between tasks.
        """
        return self._stream(context, False, translation)

    def execute_batch(
        self,
        translation: TranslationResult,
        context: RunContext,
    ) -> Iterator[Handle]:
        """Run the SQL and stream *batch handles* (columnar hot path).

        Identical charging to :meth:`execute`: the price deltas are
        float-for-float those of pricing ``Database.query``'s meter
        snapshots (pinned by ``tests/relational/test_meter_golden.py``).
        """
        return self._stream(context, True, translation)

    def _key(self, translation: TranslationResult) -> tuple:
        return sql_result_key(
            self.source_id, *translation.key_parts, self.source.database.data_version
        )

    def _fetch(
        self, context: RunContext, translation: TranslationResult
    ) -> SourceBlock:
        """Vectorized fetch + decode + chunking of one statement.

        Pure data work (no clock or RNG involvement), fully determined by
        (SQL text, data version, cost model, batch size) — so it runs
        eagerly and engines share the block through the
        per-database ``sql_blocks`` memo instead of re-scanning immutable
        tables.  Charges are still issued per row by every run.
        """
        db = self.source.database
        batch_size = context.batch_size
        memo = sql_blocks.region(db)
        memo_key = (translation.sql, db.data_version, context.cost_model, batch_size)
        block = memo.get(memo_key)
        if block is None:
            try:
                plan = db.plan(translation.statement)
                rows, deltas, residual = execute_priced(plan, context.cost_model)
            except Exception as exc:  # pragma: no cover - defensive
                raise WrapperError(
                    f"source {self.source_id!r} failed to execute "
                    f"{translation.sql!r}: {exc}"
                ) from exc
            names, columns, invalid = translation.decode_columns(rows)
            count = len(rows)
            kept = (
                range(count)
                if not invalid
                else [i for i in range(count) if i not in invalid]
            )
            block = SourceBlock(
                deltas,
                *chunk_columns(names, columns, kept, count, batch_size),
                batch_size,
                residual=residual,
                drops_cross_network=True,
            )
            memo.put(memo_key, block)
        return block


@dataclass(frozen=True)
class StarRequest:
    """One star-shaped sub-query in a SPARQL source's native form.

    The sibling of :class:`TranslationResult`: the star's patterns, the
    filters evaluated at the source, and optionally ``bindings`` — one
    variable restricted to a set of terms, the SPARQL equivalent of a
    VALUES clause, which the dependent (bound) join adds per block.
    Restricted-out solutions are dropped *at the source*: they never cross
    the network.
    """

    star: StarSubquery
    filters: tuple[Filter, ...]
    bindings: tuple[str, frozenset] | None = None

    def restricted(self, variable: str, terms: list[Term]) -> "StarRequest":
        """A copy of this request with ``variable`` bound to *terms*."""
        return replace(self, bindings=(variable, frozenset(terms)))

    @cached_property
    def patterns(self) -> str:
        """The patterns' text in plan labels and spans, rendered once."""
        return " . ".join(p.n3().rstrip(" .") for p in self.star.patterns)

    @property
    def text(self) -> str:
        """The Figure-1 rendering of this request in plan labels."""
        return f"SPARQL: {{ {self.patterns} }}"

    @cached_property
    def key_parts(self) -> tuple:
        """The native-query components of the sub-result key, rendered once:
        patterns, pushed filters, and the restriction as a sorted tuple (so
        term order and duplicates never split a key)."""
        bindings = self.bindings
        return (
            " . ".join(pattern.n3() for pattern in self.star.patterns),
            " && ".join(f.n3() for f in self.filters),
            None
            if bindings is None
            else (bindings[0], tuple(sorted(term.n3() for term in bindings[1]))),
        )

    @property
    def span_args(self) -> dict:
        return {"patterns": self.patterns, "restricted": self.bindings is not None}


class SPARQLWrapper(_Wrapper):
    """Wrapper over one native RDF source."""

    kind = "SPARQL"
    source: RDFSource

    def data_version(self) -> tuple:
        """``(weakref to the graph, its version)``; see :class:`SQLWrapper`."""
        graph = self.source.graph
        return ref(graph), graph.version

    def execute(self, request: StarRequest, context: RunContext) -> Iterator[Solution]:
        """Evaluate the star's BGP over the graph, streaming solutions.

        :meth:`execute_batch` with every handle materialized into a dict
        (see :meth:`SQLWrapper.execute`).
        """
        return self._stream(context, False, request)

    def execute_batch(
        self, request: StarRequest, context: RunContext
    ) -> Iterator[Handle]:
        """Evaluate the star and stream *batch handles* (columnar hot path)."""
        return self._stream(context, True, request)

    def _key(self, request: StarRequest) -> tuple:
        return sparql_result_key(
            self.source_id, *request.key_parts, self.source.graph.version
        )

    def _fetch(self, context: RunContext, request: StarRequest) -> SourceBlock:
        """Evaluate the star eagerly into a block (no clock or RNG involved).

        Matching, restriction/filter checks and chunking are pure data
        work; the lookup and output charges are issued per match by the
        charge loop.
        """
        cost_model = context.cost_model
        patterns = request.star.patterns
        lookup_cost = cost_model.rdf_triple_lookup * len(patterns)
        batch_size = context.batch_size
        tests = [compile_holds(f.expression) for f in request.filters]
        graph = self.source.graph
        columnar = evaluate_bgp_columns(graph, patterns)
        if columnar is None:
            # Not a star the columnar matcher supports: generic evaluator.
            solutions = list(evaluate_bgp(graph, patterns))
            names = tuple(solutions[0]) if solutions else ()
            columns = [[solution[name] for solution in solutions] for name in names]
            count = len(solutions)
        else:
            names, columns = columnar
            count = len(columns[0]) if columns else 0
        kept: "list[int] | range" = range(count)
        if request.bindings is not None:
            variable, terms = request.bindings
            if variable in names:
                bound = columns[names.index(variable)]
                kept = [i for i in kept if bound[i] in terms]
            else:
                kept = []
        if tests:
            whole = SolutionBatch(names, columns)
            kept = [
                i for i in kept if all(test(RowView(whole, i)) for test in tests)
            ]
        return SourceBlock(
            [lookup_cost] * count,
            *chunk_columns(names, columns, kept, count, batch_size),
            batch_size,
            output_cost=cost_model.rdf_output_row,
        )
