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

The row plane's cold paths stay lazy and separate (they are the reference
the batch plane is checked against); they publish a block built from the
events they charged.
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
from ..relational.meter import OperationMeter
from ..relational.vexecutor import execute_priced
from ..rdf.terms import Term
from ..sparql.algebra import Filter
from ..sparql.bgp import evaluate_bgp, evaluate_bgp_columns
from ..sparql.expressions import compile_holds
from ..network.clock import VirtualClock
from .answers import _DELAY_BLOCK, RunContext, Solution
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


def _chunk_rows(
    names: tuple[str, ...], rows: list[tuple | None], batch_size: int
) -> tuple[list[Handle | None], list[int]]:
    """Chunk per-event value tuples (None = dropped at the source).

    Every kept row binds exactly *names*, in order — true of one SQL
    statement's decoded rows and of one BGP's solutions alike.
    """
    blank = (None,) * len(names)
    columns = [
        list(column) for column in zip(*(row or blank for row in rows), strict=True)
    ]
    kept = [i for i, row in enumerate(rows) if row is not None]
    return chunk_columns(names, columns, kept, len(rows), batch_size)


def _rechunked(block: SourceBlock, batch_size: int) -> SourceBlock:
    """*block* with its kept answers chunked for another batch size."""
    names = next((h[0].names for h in block.handles if h is not None), ())
    rows = [
        None if handle is None else tuple(c[handle[1]] for c in handle[0].columns)
        for handle in block.handles
    ]
    handles, fills = _chunk_rows(names, rows, batch_size)
    return replace(block, handles=handles, fills=fills, batch_size=batch_size)


def _charge(
    block: SourceBlock, context: RunContext, source_id: str, owner: str
) -> Iterator[Handle]:
    """Stream a block's kept answers, charging every source event lazily.

    The paper's injection point — *delaying the retrieval of the next
    answer from the source* — for cold runs and replays, both data planes
    and both source kinds.  It inlines ``charge_source`` + ``charge_message``
    (including ``next_delay``'s block-buffered sampling under
    ``exec="batch"``): identical float adds on the same accumulators in the
    same order, minus the per-row call overhead.
    """
    clock = context.clock
    virtual = type(clock) is VirtualClock
    clock_sleep = clock.sleep
    stats = context.stats
    src = stats.source(source_id)
    overhead = context.cost_model.message_overhead
    delay = context.network.delay
    sample, sample_block = delay.sample, delay.sample_block
    rng = context.rng
    buffered = context.exec_mode == "batch"
    output_cost = block.output_cost
    output_positive = output_cost > 0
    drops_cross_network = block.drops_cross_network
    try:
        for pre_cost, handle in zip(block.pre_costs, block.handles):
            if pre_cost > 0:
                if virtual:
                    clock._now += pre_cost
                else:
                    clock_sleep(pre_cost)
                src.virtual_cost += pre_cost
            if handle is None and not drops_cross_network:
                continue
            if output_positive:
                if virtual:
                    clock._now += output_cost
                else:
                    clock_sleep(output_cost)
                src.virtual_cost += output_cost
            if buffered:
                cursor = context._delay_cursor
                buffer = context._delay_buffer
                if cursor >= len(buffer):
                    buffer = context._delay_buffer = sample_block(rng, _DELAY_BLOCK)
                    cursor = 0
                context._delay_cursor = cursor + 1
                pause = buffer[cursor] + overhead
            else:
                pause = sample(rng) + overhead
            if virtual:
                clock._now += pause
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
            else:
                clock_sleep(residual)
            src.virtual_cost += residual
    finally:
        if buffered:
            observe_batches(context.obs, owner, block.fills, block.batch_size)


class _Wrapper:
    """The request protocol both wrappers share.

    One counted sub-result lookup, the request round trip, then the
    charges of a block — cached, or fetched by the subclass — or, on the
    row plane's cold path, the subclass's lazy reference stream.  A stream
    publishes its block only once the source exhausted it: an
    early-terminated pull (LIMIT) never reaches the ``put``.

    A *request* is one sub-query as a value (:class:`TranslationResult` or
    :class:`StarRequest`) that renders its own text, key parts and span
    arguments; subclasses provide ``_key(request)``, ``_fetch(context,
    request)`` and ``_cold_rows(context, record, request)`` (a generator
    returning the block it recorded, if asked to).
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
        context.charge_request(source_id)
        cached = block is not None
        if not cached:
            block = self._fetch(context, request)
        yield from _charge(block, context, source_id, self._owner)
        if subresults is not None and not cached:
            subresults.put(key, block)

    def _rows(self, context: RunContext, request) -> Iterator[Solution]:
        source_id = self.source_id
        subresults, key, block = self._lookup(context, request)
        context.charge_request(source_id)
        if block is not None:
            for batch, idx in _charge(block, context, source_id, self._owner):
                yield batch.materialize(idx)
            return
        block = yield from self._cold_rows(context, subresults is not None, request)
        if subresults is not None:
            subresults.put(key, block)

    def _stream(self, context: RunContext, handles: bool, request):
        """The (optionally observed) stream of one request.

        Not a generator function: nothing runs until the returned stream is
        pulled, and the unobserved path hands the inner stream straight to
        the consumer, skipping a delegation frame per pulled row.
        """
        if handles:
            stream = self._handles(context, request)
        elif context.exec_mode == "batch":
            stream = (
                batch.materialize(idx)
                for batch, idx in self._handles(context, request)
            )
        else:
            stream = self._rows(context, request)
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
        dropped store alive through the join-stream memo, the version
        invalidates on mutation."""
        database = self.source.database
        return ref(database), database.data_version

    def execute(
        self,
        translation: TranslationResult,
        context: RunContext,
    ) -> Iterator[Solution]:
        """Run the SQL and stream solutions, charging source + network time.

        Work done inside the RDBMS is priced from the executor's operation
        meter *as it happens* (the per-row delta), so the virtual timeline
        interleaves source work and transfer exactly like a streaming
        endpoint would.  With a sub-result cache on the context, a cached
        block for the same (SQL, data version) replays instead — saving
        the RDBMS wall-clock work while re-charging identical virtual time.

        Observed runs additionally record one wrapper span per execution
        (same charging: the span only reads the clock, never advances it).

        Under ``exec="batch"`` the columnar pipeline runs underneath and
        each handle is materialized back into a dict — the entry point the
        event/thread runtimes use, where the scheduler transports plain
        solutions between tasks.  Charges are issued by the same per-row
        generator either way, so the virtual timeline is identical.
        """
        return self._stream(context, False, translation)

    def execute_batch(
        self,
        translation: TranslationResult,
        context: RunContext,
    ) -> Iterator[Handle]:
        """Run the SQL and stream *batch handles* (columnar hot path).

        Identical charging to :meth:`execute` — the relational plan is
        run once and priced whole (``execute_priced``), with per-row price
        deltas bit-identical to pricing the meter snapshots row mode reads
        from ``Database.query``, and every charge is still issued lazily
        from a per-row generator frame so virtual time interleaves with
        sibling plan branches exactly like row mode.
        """
        return self._stream(context, True, translation)

    def _key(self, translation: TranslationResult) -> tuple:
        return sql_result_key(
            self.source_id, *translation.key_parts, self.source.database.data_version
        )

    def _cold_rows(
        self, context: RunContext, record: bool, translation: TranslationResult
    ) -> Iterator[Solution]:
        source_id = self.source_id
        meter = OperationMeter()
        try:
            result = self.source.database.query(translation.statement, meter)
        except Exception as exc:  # pragma: no cover - defensive
            raise WrapperError(
                f"source {source_id!r} failed to execute {translation.sql!r}: {exc}"
            ) from exc
        priced_so_far = 0.0
        cost_model = context.cost_model
        deltas: list[float] = []
        rows: list[tuple | None] = []
        for row in result:
            # Price the relational work performed to produce this row.
            total_price = cost_model.price_rdb_operations(meter.counts)
            delta = total_price - priced_so_far
            context.charge_source(source_id, delta)
            priced_so_far = total_price
            # The answer crosses the network.
            context.charge_message(source_id)
            solution = translation.solution_for(row)
            if record:
                deltas.append(delta)
                rows.append(None if solution is None else tuple(solution.values()))
            if solution is not None:
                yield solution
        # Residual source work after the last row (e.g. a final scan tail).
        total_price = cost_model.price_rdb_operations(meter.counts)
        residual = total_price - priced_so_far
        context.charge_source(source_id, residual)
        if not record:
            return None
        names = tuple(binding.variable for binding in translation.outputs)
        return SourceBlock(
            deltas,
            *_chunk_rows(names, rows, context.batch_size),
            context.batch_size,
            residual=residual,
            drops_cross_network=True,
        )

    def _fetch(
        self, context: RunContext, translation: TranslationResult
    ) -> SourceBlock:
        """Vectorized fetch + decode + chunking of one statement.

        Pure data work (no clock or RNG involvement), fully determined by
        (SQL text, data version, cost model, batch size) — so it runs
        eagerly and engines in batch mode share the block through the
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

    def survives(self, solution, tests: list) -> bool:
        """True unless the restriction or a pushed filter drops the match."""
        if self.bindings is not None:
            variable, terms = self.bindings
            if solution.get(variable) not in terms:
                return False
        return all(test(solution) for test in tests)


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

        Under ``exec="batch"`` the columnar pipeline runs underneath and
        handles are materialized back into dicts (event/thread entry point);
        the charge sequence is identical either way.
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

    def _cold_rows(
        self, context: RunContext, record: bool, request: StarRequest
    ) -> Iterator[Solution]:
        source_id = self.source_id
        cost_model = context.cost_model
        patterns = request.star.patterns
        lookup_cost = cost_model.rdf_triple_lookup * len(patterns)
        tests = [compile_holds(f.expression) for f in request.filters]
        names: tuple[str, ...] = ()
        rows: list[tuple | None] = []
        for solution in evaluate_bgp(self.source.graph, patterns):
            # Each solution required one lookup per triple pattern (amortized).
            context.charge_source(source_id, lookup_cost)
            kept = request.survives(solution, tests)
            if record:
                names = names or tuple(solution)
                rows.append(tuple(solution.values()) if kept else None)
            if not kept:
                continue
            context.charge_source(source_id, cost_model.rdf_output_row)
            context.charge_message(source_id)
            yield dict(solution)
        if not record:
            return None
        return SourceBlock(
            [lookup_cost] * len(rows),
            *_chunk_rows(names, rows, context.batch_size),
            context.batch_size,
            output_cost=cost_model.rdf_output_row,
        )

    def _fetch(self, context: RunContext, request: StarRequest) -> SourceBlock:
        """Evaluate the star eagerly into a block (no clock or RNG involved).

        Matching, restriction/filter checks and chunking are pure data
        work; the lookup and output charges are issued per match by the
        charge loop, exactly like row mode.
        """
        cost_model = context.cost_model
        patterns = request.star.patterns
        lookup_cost = cost_model.rdf_triple_lookup * len(patterns)
        batch_size = context.batch_size
        tests = [compile_holds(f.expression) for f in request.filters]
        columnar = evaluate_bgp_columns(self.source.graph, patterns)
        if columnar is None:
            # Not a star the columnar matcher supports: generic evaluator.
            solutions = list(evaluate_bgp(self.source.graph, patterns))
            count = len(solutions)
            rows = [
                tuple(solution.values()) if request.survives(solution, tests) else None
                for solution in solutions
            ]
            names = tuple(solutions[0]) if solutions else ()
            chunks = _chunk_rows(names, rows, batch_size)
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
            chunks = chunk_columns(names, columns, kept, count, batch_size)
        return SourceBlock(
            [lookup_cost] * count,
            *chunks,
            batch_size,
            output_cost=cost_model.rdf_output_row,
        )
