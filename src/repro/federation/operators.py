"""ANAPSID-style adaptive physical operators of the federated engine.

ANAPSID's key property (inherited by Ontario) is that operators are
*non-blocking*: they produce answers as soon as the sources deliver the
tuples needed, instead of waiting for complete inputs.  The symmetric hash
join (`agjoin`) here alternates between its inputs, inserting each arriving
solution into its side's hash table and immediately probing the other side.

Every per-tuple action charges engine time to the shared clock through the
:class:`~repro.federation.answers.RunContext`, which is what makes
engine-level work (joins, filters) visible in the virtual timeline — the
quantity the paper's heuristics trade against source work and transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..cache.memos import join_streams
from ..rdf.terms import Term
from ..network.clock import VirtualClock
from ..sparql.algebra import Filter, OrderCondition
from ..sparql.expressions import ExpressionError, compile_holds, evaluate, holds
from .answers import ChargeBatch, RunContext, Solution, interned_names
from .batch import (
    BatchBuilder,
    Handle,
    RowView,
    SolutionBatch,
    handle_identity,
    merge_plan,
    single_solution_batch,
)


class FedOperator:
    """Base class of federated plan operators."""

    #: The planner's cardinality estimate for this operator's output, in
    #: rows (None when the operator was built outside the planner).  Set
    #: once at plan time and never mutated by execution, so a cached plan
    #: keeps its estimates; EXPLAIN ANALYZE compares them against observed
    #: ``rows_out`` to compute per-operator q-error.
    estimated_rows: float | None = None

    #: Stable identity of the logical work this operator performs (see
    #: :mod:`repro.core.statskeys`), stamped by the planner on plan units
    #: and joins.  Observed-statistics ingestion records actual ``rows_out``
    #: under this key; operators the planner never stamps stay ``None`` and
    #: are skipped.  Planning metadata only — never read during execution.
    stats_signature: tuple | None = None

    def execute(self, context: RunContext) -> Iterator[Solution]:
        raise NotImplementedError

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        """Columnar execution: stream handles into shared solution batches.

        The default adapts the row stream one row at a time, so any
        operator without a vectorized implementation still composes with
        batch-mode neighbours (at row-mode speed).  Charging is whatever
        ``execute`` charges — identical by construction.
        """
        for solution in self.execute(context):
            yield single_solution_batch(solution)

    def children(self) -> list["FedOperator"]:
        return []

    def data_signature(self, context: RunContext) -> tuple | None:
        """A hashable identity of this operator's *data* stream, or None.

        Two streams with equal signatures yield the same row data in the
        same order — network delays, cache state and clock type never enter
        the signature because they never influence the data plane (delays
        only move virtual time; caches only change *charges*, not rows).
        Operators that cannot prove this about themselves return None,
        which disables stream-level memoization above them.
        """
        return None

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        lines.extend(child.explain(indent + 1) for child in self.children())
        return "\n".join(lines)


@dataclass
class ServiceNode(FedOperator):
    """A leaf: one sub-query shipped to one source wrapper.

    ``runner`` encapsulates the wrapper call; ``description`` renders the
    native query for explain output (Figure-1-style plans).
    ``restricted_runner``, when provided by the planner, re-issues the
    sub-query with an IN-restriction on one variable — the capability the
    dependent (bound) join needs.
    """

    source_id: str
    description: str
    runner: Callable[[RunContext], Iterator[Solution]]
    engine_filters: list[Filter] = field(default_factory=list)
    restricted_runner: Callable[..., Iterator[Solution]] | None = None
    #: Variable names this sub-query can bind (set by the planner; the
    #: plan-invariant checker uses it to verify join orderings).
    variables: tuple[str, ...] = ()
    #: Columnar twins of ``runner``/``restricted_runner`` (set by the
    #: planner): same wrapper call, but streaming batch handles.
    batch_runner: Callable[[RunContext], Iterator[Handle]] | None = None
    restricted_batch_runner: Callable[..., Iterator[Handle]] | None = None
    #: Returns ``(weakref to the backing store, version)`` (set by the
    #: planner).  The reference pins identity (two lakes may both be at
    #: version 0) without keeping a dropped store alive through the
    #: join-stream memo, the version invalidates on mutation; together with
    #: the rendered native query they make :meth:`data_signature` sound.
    data_version_provider: Callable[[], object] | None = None

    def _filtered(self, context: RunContext, stream: Iterator[Solution]) -> Iterator[Solution]:
        cost = context.cost_model
        filters = self.engine_filters
        tests = [compile_holds(f.expression) for f in filters]
        for solution in stream:
            if filters:
                context.charge_engine(cost.engine_filter_eval * len(filters))
                if not all(test(solution) for test in tests):
                    continue
            yield solution

    def _filtered_batch(
        self, context: RunContext, stream: Iterator[Handle]
    ) -> Iterator[Handle]:
        filters = self.engine_filters
        if not filters:
            yield from stream
            return
        charge = context.cost_model.engine_filter_eval * len(filters)
        positive = charge > 0
        clock_sleep = context.clock.sleep
        stats = context.stats
        tests = [compile_holds(f.expression) for f in filters]
        for handle in stream:
            if positive:
                clock_sleep(charge)
                stats.engine_cost += charge
            view = RowView(handle[0], handle[1])
            if all(test(view) for test in tests):
                yield handle

    def execute(self, context: RunContext) -> Iterator[Solution]:
        yield from self._filtered(context, self.runner(context))

    def _adapted(self, context: RunContext) -> Iterator[Handle]:
        for solution in self.execute(context):
            yield single_solution_batch(solution)

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        # Not a generator function: the unfiltered fast path hands the
        # runner's iterator straight to the consumer, so per-row pulls skip
        # two delegation frames on the hot path.
        if self.batch_runner is None:
            return self._adapted(context)
        if not self.engine_filters:
            return self.batch_runner(context)
        return self._filtered_batch(context, self.batch_runner(context))

    @property
    def supports_restriction(self) -> bool:
        return self.restricted_runner is not None

    def execute_restricted(
        self, context: RunContext, variable: str, terms: list
    ) -> Iterator[Solution]:
        """Run the sub-query restricted to ``variable IN terms``."""
        if self.restricted_runner is None:
            raise RuntimeError(f"service {self.source_id!r} is not restrictable")
        yield from self._filtered(
            context, self.restricted_runner(context, variable, terms)
        )

    def _adapted_restricted(
        self, context: RunContext, variable: str, terms: list
    ) -> Iterator[Handle]:
        for solution in self.execute_restricted(context, variable, terms):
            yield single_solution_batch(solution)

    def execute_restricted_batch(
        self, context: RunContext, variable: str, terms: list
    ) -> Iterator[Handle]:
        """Columnar twin of :meth:`execute_restricted` (not a generator —
        see :meth:`execute_batch`)."""
        if self.restricted_batch_runner is None:
            return self._adapted_restricted(context, variable, terms)
        if not self.engine_filters:
            return self.restricted_batch_runner(context, variable, terms)
        return self._filtered_batch(
            context, self.restricted_batch_runner(context, variable, terms)
        )

    def data_signature(self, context: RunContext) -> tuple | None:
        provider = self.data_version_provider
        if provider is None:
            return None
        return (
            "svc",
            self.source_id,
            self.description,
            tuple(f.expression.n3() for f in self.engine_filters),
            provider(),
        )

    def label(self) -> str:
        base = f"Service[{self.source_id}] {self.description}"
        if self.engine_filters:
            rendered = " AND ".join(f.expression.n3() for f in self.engine_filters)
            base += f" | engine-filter({rendered})"
        return base


def solution_identity(solution: Solution) -> tuple:
    """A hashable identity of a solution, name-sorted (for DISTINCT sets).

    Uses the interned per-shape name tuple so the per-solution sort in the
    DISTINCT hot loop is paid once per solution *shape* instead of once per
    solution.
    """
    return tuple((name, solution[name].n3()) for name in interned_names(solution))


def sort_solutions(
    solutions: list[Solution], conditions: list[OrderCondition]
) -> list[Solution]:
    """Sort *solutions* in place by ORDER BY conditions; returns the list.

    Shared by the pull-based :class:`OrderBy` operator and the event
    runtime's order node so both runtimes use the same typed collation.
    """

    def key_for(condition: OrderCondition):
        def key(solution: Solution):
            try:
                value = evaluate(condition.expression, solution)
            except ExpressionError:
                return (0, "")
            if hasattr(value, "to_python"):
                value = value.to_python()
            elif hasattr(value, "value"):
                value = value.value
            if isinstance(value, bool):
                return (1, int(value))
            if isinstance(value, (int, float)):
                return (2, value)
            return (3, str(value))

        return key

    for condition in reversed(conditions):
        solutions.sort(key=key_for(condition), reverse=not condition.ascending)
    return solutions


def _merge(left: Solution, right: Solution) -> Solution | None:
    """Merge two solutions; None when they disagree on a shared variable."""
    merged = dict(left)
    for name, term in right.items():
        bound = merged.get(name)
        if bound is None:
            merged[name] = term
        elif bound != term:
            return None
    return merged


class _BatchEmitter:
    """Per-execution output builders, one per emitted batch shape."""

    __slots__ = ("batch_size", "builders")

    def __init__(self, context: RunContext):
        self.batch_size = context.batch_size
        self.builders: dict[tuple[str, ...], BatchBuilder] = {}

    def emit(self, names: tuple[str, ...], values: list[Term | None]) -> Handle:
        return self.builder_for(names).append(values)

    def builder_for(self, names: tuple[str, ...]) -> BatchBuilder:
        builder = self.builders.get(names)
        if builder is None:
            builder = self.builders[names] = BatchBuilder(names, self.batch_size)
        return builder


def _positions_cache(variables: tuple[str, ...]):
    """Join-variable column positions, computed once per batch shape."""
    cache: dict[tuple[str, ...], list[int]] = {}

    def positions_for(batch: SolutionBatch) -> list[int]:
        positions = cache.get(batch.names)
        if positions is None:
            index = batch.index
            positions = cache[batch.names] = [
                index.get(name, -1) for name in variables
            ]
        return positions

    return positions_for


# Single-variable join *streams* are memoized across runs in the
# ``join_streams`` region of :mod:`repro.cache.memos`.  Delays and cache
# state never change which rows arrive or in which order (pull-driven
# alternation is data-determined), so for signature-stable inputs the
# join's entire data plane — key extraction, hash tables, merge/gather,
# output batches — is identical across runs, engines and networks.  The
# first complete execution records a script of (pull, flush, yield)
# events; replays re-pull the children live (their charges stay exact)
# and re-issue the recorded engine flushes bitwise.  Keyed by the child
# data signatures plus everything that shapes charges and chunking.


@dataclass
class SymmetricHashJoin(FedOperator):
    """ANAPSID's agjoin: a non-blocking symmetric hash join.

    Both inputs are polled in alternation; each arriving solution is
    inserted into its side's hash table (keyed by the join variables) and
    probed against the opposite table, emitting joins immediately.
    """

    left: FedOperator
    right: FedOperator
    join_variables: tuple[str, ...]

    def execute(self, context: RunContext) -> Iterator[Solution]:
        cost = context.cost_model
        key_of = self._key_function()
        tables: tuple[dict, dict] = ({}, {})
        iterators = [self.left.execute(context), self.right.execute(context)]
        active = [True, True]
        side = 0
        # Insert/probe costs are batched and flushed before every emitted
        # answer (and at stream end): the clock value at each yield — hence
        # every answer timestamp — is identical to per-tuple charging, but
        # non-joining tuples no longer pay two charge calls each.
        charges = ChargeBatch(context)
        insert_probe = cost.engine_hash_insert + cost.engine_hash_probe
        while active[0] or active[1]:
            if not active[side]:
                side = 1 - side
            try:
                solution = next(iterators[side])
            except StopIteration:
                active[side] = False
                side = 1 - side
                continue
            key = key_of(solution)
            if key is None:
                side = 1 - side
                continue
            charges.add(insert_probe)
            tables[side].setdefault(key, []).append(solution)
            other = tables[1 - side]
            for candidate in other.get(key, ()):  # probe
                if side == 0:
                    merged = _merge(solution, candidate)
                else:
                    merged = _merge(candidate, solution)
                if merged is not None:
                    charges.add(cost.engine_join_output_row)
                    charges.flush()
                    yield merged
            side = 1 - side
        charges.flush()

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        # Same pull alternation and charge sequence as ``execute``; the
        # pending-charge accumulation inlines ChargeBatch (identical float
        # adds in identical order), and merge plans are compiled once per
        # (left shape, right shape) pair.  When the shared variables of a
        # pair are exactly the join variables, key equality already proves
        # the rows compatible and the merged row is a plain column gather.
        # The single-variable join (the overwhelmingly common shape) gets
        # its own loop with the key fetch reduced to one column access.
        if len(self.join_variables) == 1:
            return self._execute_batch_single(context)
        return self._execute_batch_multi(context)

    def _execute_batch_single(self, context: RunContext) -> Iterator[Handle]:
        cost = context.cost_model
        name = self.join_variables[0]
        memo_key = None
        script: list | None = None
        if context.obs is None:
            left_sig = self.left.data_signature(context)
            if left_sig is not None:
                right_sig = self.right.data_signature(context)
                if right_sig is not None:
                    memo_key = (
                        name,
                        left_sig,
                        right_sig,
                        cost,
                        context.batch_size,
                    )
                    cached = join_streams.get(memo_key)
                    if cached is not None:
                        return self._replay_single(context, cached)
                    script = []
        return self._run_single(context, memo_key, script)

    def _run_single(
        self, context: RunContext, memo_key, script: list | None
    ) -> Iterator[Handle]:
        cost = context.cost_model
        name = self.join_variables[0]
        pos_cache: dict[tuple[str, ...], int] = {}
        table0: dict = {}
        table1: dict = {}
        own_other = ((table0, table1), (table1, table0))
        nexts = (
            self.left.execute_batch(context).__next__,
            self.right.execute_batch(context).__next__,
        )
        active = [True, True]
        side = 0
        clock = context.clock
        # Sequential batch runs always use a VirtualClock; advancing its
        # ``_now`` directly is the same float add as ``sleep`` without the
        # call.  Other clock types (event/thread task clocks) keep the call.
        virtual = type(clock) is VirtualClock
        clock_sleep = clock.sleep
        stats = context.stats
        insert_probe = cost.engine_hash_insert + cost.engine_hash_probe
        join_output = cost.engine_join_output_row
        emitter = _BatchEmitter(context)
        pair_cache: dict[tuple, tuple] = {}
        variable_set = frozenset((name,))
        pending = 0.0
        while active[0] or active[1]:
            if not active[side]:
                side = 1 - side
            try:
                batch, idx = nexts[side]()
            except StopIteration:
                active[side] = False
                if script is not None:
                    script.append(side + 2)
                side = 1 - side
                continue
            if script is not None:
                script.append(side)
            shape = batch.names
            position = pos_cache.get(shape)
            if position is None:
                position = pos_cache[shape] = batch.index.get(name, -1)
            if position < 0:
                side = 1 - side
                continue
            key = batch.columns[position][idx]
            if key is None:
                side = 1 - side
                continue
            pending += insert_probe
            table, other = own_other[side]
            bucket = table.get(key)
            if bucket is None:
                table[key] = bucket = []
            bucket.append((batch, idx))
            matches = other.get(key)
            if matches:
                for candidate, cidx in matches:
                    if side == 0:
                        lbatch, li, rbatch, ri = batch, idx, candidate, cidx
                    else:
                        lbatch, li, rbatch, ri = candidate, cidx, batch, idx
                    pair = (lbatch.names, rbatch.names)
                    compiled = pair_cache.get(pair)
                    if compiled is None:
                        plan = merge_plan(pair[0], pair[1])
                        gather = (
                            frozenset(pair[0][lpos] for lpos, __ in plan.shared)
                            <= variable_set
                        )
                        builder = emitter.builder_for(plan.names)
                        compiled = pair_cache[pair] = (
                            plan,
                            gather,
                            builder.append,
                            builder.append_gather,
                            plan.right_only,
                        )
                    plan, gather, append, append_gather, right_only = compiled
                    if gather:
                        pending += join_output
                        flush = pending
                        if flush > 0:
                            if virtual:
                                clock._now += flush
                            else:
                                clock_sleep(flush)
                            stats.engine_cost += flush
                            pending = 0.0
                        handle = append_gather(
                            lbatch.columns, li, rbatch.columns, ri, right_only
                        )
                        if script is not None:
                            script.append((flush, handle))
                        yield handle
                        continue
                    values = plan.merge_values(lbatch, li, rbatch, ri)
                    if values is not None:
                        pending += join_output
                        flush = pending
                        if flush > 0:
                            if virtual:
                                clock._now += flush
                            else:
                                clock_sleep(flush)
                            stats.engine_cost += flush
                            pending = 0.0
                        handle = append(values)
                        if script is not None:
                            script.append((flush, handle))
                        yield handle
            side = 1 - side
        if script is not None:
            # Publish only streams that ran to natural completion; an
            # early-closed generator (LIMIT above the join) never gets
            # here, so partial scripts are never cached.
            join_streams.put(memo_key, (tuple(script), pending))
        if pending > 0:
            if virtual:
                clock._now += pending
            else:
                clock_sleep(pending)
            stats.engine_cost += pending

    def _replay_single(self, context: RunContext, cached) -> Iterator[Handle]:
        """Replay a recorded join stream bitwise.

        The children are still pulled live — wrapper and network charges
        depend on cache state and must be issued for real — but every
        engine-side decision (key skips, table ops, merges) is skipped and
        the recorded flush values and output handles are re-issued in the
        recorded order, which is exactly the order the live loop would
        reproduce (pull alternation is data-determined, and the data is
        signature-stable by construction of the memo key).
        """
        script, final_pending = cached
        clock = context.clock
        virtual = type(clock) is VirtualClock
        clock_sleep = clock.sleep
        stats = context.stats
        next0 = self.left.execute_batch(context).__next__
        next1 = self.right.execute_batch(context).__next__
        for entry in script:
            if type(entry) is int:
                if entry == 0:
                    next0()
                elif entry == 1:
                    next1()
                else:
                    try:
                        (next0 if entry == 2 else next1)()
                    except StopIteration:
                        continue
                    raise RuntimeError(
                        "join stream replay out of sync with child stream"
                    )
            else:
                flush = entry[0]
                if flush > 0:
                    if virtual:
                        clock._now += flush
                    else:
                        clock_sleep(flush)
                    stats.engine_cost += flush
                yield entry[1]
        if final_pending > 0:
            if virtual:
                clock._now += final_pending
            else:
                clock_sleep(final_pending)
            stats.engine_cost += final_pending

    def _execute_batch_multi(self, context: RunContext) -> Iterator[Handle]:
        cost = context.cost_model
        variables = self.join_variables
        pos_cache: dict[tuple[str, ...], list[int]] = {}
        tables: tuple[dict, dict] = ({}, {})
        iterators = [
            self.left.execute_batch(context),
            self.right.execute_batch(context),
        ]
        active = [True, True]
        side = 0
        clock = context.clock
        virtual = type(clock) is VirtualClock
        clock_sleep = clock.sleep
        stats = context.stats
        insert_probe = cost.engine_hash_insert + cost.engine_hash_probe
        join_output = cost.engine_join_output_row
        emitter = _BatchEmitter(context)
        pair_cache: dict[tuple, tuple] = {}
        variable_set = frozenset(variables)
        pending = 0.0
        while active[0] or active[1]:
            if not active[side]:
                side = 1 - side
            try:
                batch, idx = next(iterators[side])
            except StopIteration:
                active[side] = False
                side = 1 - side
                continue
            columns = batch.columns
            shape = batch.names
            positions = pos_cache.get(shape)
            if positions is None:
                index = batch.index
                positions = pos_cache[shape] = [
                    index.get(name, -1) for name in variables
                ]
            parts = []
            for position in positions:
                term = None if position < 0 else columns[position][idx]
                if term is None:
                    parts = None
                    break
                parts.append(term)
            key = None if parts is None else tuple(parts)
            if key is None:
                side = 1 - side
                continue
            pending += insert_probe
            table = tables[side]
            bucket = table.get(key)
            if bucket is None:
                table[key] = bucket = []
            bucket.append((batch, idx))
            matches = tables[1 - side].get(key)
            if matches:
                for candidate, cidx in matches:
                    if side == 0:
                        lbatch, li, rbatch, ri = batch, idx, candidate, cidx
                    else:
                        lbatch, li, rbatch, ri = candidate, cidx, batch, idx
                    pair = (lbatch.names, rbatch.names)
                    compiled = pair_cache.get(pair)
                    if compiled is None:
                        plan = merge_plan(pair[0], pair[1])
                        gather = (
                            frozenset(pair[0][lpos] for lpos, __ in plan.shared)
                            <= variable_set
                        )
                        builder = emitter.builder_for(plan.names)
                        compiled = pair_cache[pair] = (
                            plan,
                            gather,
                            builder.append,
                            builder.append_gather,
                            plan.right_only,
                        )
                    plan, gather, append, append_gather, right_only = compiled
                    if gather:
                        pending += join_output
                        if pending > 0:
                            if virtual:
                                clock._now += pending
                            else:
                                clock_sleep(pending)
                            stats.engine_cost += pending
                            pending = 0.0
                        yield append_gather(
                            lbatch.columns, li, rbatch.columns, ri, right_only
                        )
                        continue
                    values = plan.merge_values(lbatch, li, rbatch, ri)
                    if values is not None:
                        pending += join_output
                        if pending > 0:
                            if virtual:
                                clock._now += pending
                            else:
                                clock_sleep(pending)
                            stats.engine_cost += pending
                            pending = 0.0
                        yield append(values)
            side = 1 - side
        if pending > 0:
            if virtual:
                clock._now += pending
            else:
                clock_sleep(pending)
            stats.engine_cost += pending

    def _key_function(self) -> Callable[[Solution], tuple | None]:
        names = self.join_variables

        def key_of(solution: Solution) -> tuple[Term, ...] | None:
            key = []
            for name in names:
                term = solution.get(name)
                if term is None:
                    return None
                key.append(term)
            return tuple(key)

        return key_of

    def children(self) -> list[FedOperator]:
        return [self.left, self.right]

    def data_signature(self, context: RunContext) -> tuple | None:
        left = self.left.data_signature(context)
        if left is None:
            return None
        right = self.right.data_signature(context)
        if right is None:
            return None
        return ("shj", self.join_variables, left, right)

    def label(self) -> str:
        joined = ", ".join(f"?{name}" for name in self.join_variables) or "×"
        return f"SymmetricHashJoin[{joined}]"


@dataclass
class LeftJoin(FedOperator):
    """OPTIONAL: keep every left solution, extend with right matches.

    The right input is materialized into a hash table on the join
    variables (OPTIONAL bodies are typically small); the left streams
    through, emitting each extension — or the bare left solution when the
    optional part has no compatible match.
    """

    left: FedOperator
    right: FedOperator
    join_variables: tuple[str, ...]

    def execute(self, context: RunContext) -> Iterator[Solution]:
        cost = context.cost_model
        table: dict[tuple, list[Solution]] = {}
        for solution in self.right.execute(context):
            context.charge_engine(cost.engine_hash_insert)
            key = tuple(solution.get(name) for name in self.join_variables)
            table.setdefault(key, []).append(solution)
        for solution in self.left.execute(context):
            context.charge_engine(cost.engine_hash_probe)
            key = tuple(solution.get(name) for name in self.join_variables)
            matched = False
            for candidate in table.get(key, ()):
                merged = _merge(solution, candidate)
                if merged is not None:
                    matched = True
                    context.charge_engine(cost.engine_join_output_row)
                    yield merged
            if not matched:
                yield solution

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        cost = context.cost_model
        positions_for = _positions_cache(self.join_variables)
        clock_sleep = context.clock.sleep
        stats = context.stats
        hash_insert = cost.engine_hash_insert
        hash_probe = cost.engine_hash_probe
        output_row = cost.engine_join_output_row
        emitter = _BatchEmitter(context)
        table: dict[tuple, list[Handle]] = {}
        # NB: unlike the symmetric join, unbound join variables participate
        # with a None key component (mirroring ``solution.get`` row mode).
        for batch, idx in self.right.execute_batch(context):
            if hash_insert > 0:
                clock_sleep(hash_insert)
                stats.engine_cost += hash_insert
            columns = batch.columns
            key = tuple(
                None if position < 0 else columns[position][idx]
                for position in positions_for(batch)
            )
            table.setdefault(key, []).append((batch, idx))
        for batch, idx in self.left.execute_batch(context):
            if hash_probe > 0:
                clock_sleep(hash_probe)
                stats.engine_cost += hash_probe
            columns = batch.columns
            key = tuple(
                None if position < 0 else columns[position][idx]
                for position in positions_for(batch)
            )
            matched = False
            for candidate, cidx in table.get(key, ()):
                plan = merge_plan(batch.names, candidate.names)
                values = plan.merge_values(batch, idx, candidate, cidx)
                if values is not None:
                    matched = True
                    if output_row > 0:
                        clock_sleep(output_row)
                        stats.engine_cost += output_row
                    yield emitter.emit(plan.names, values)
            if not matched:
                yield (batch, idx)

    def children(self) -> list[FedOperator]:
        return [self.left, self.right]

    def label(self) -> str:
        joined = ", ".join(f"?{name}" for name in self.join_variables) or "×"
        return f"LeftJoin[{joined}] (OPTIONAL)"


@dataclass
class DependentJoin(FedOperator):
    """ANAPSID-style dependent (bound) join.

    Consumes the outer input in blocks; for each block, the distinct values
    of the join variable are pushed into the inner *service* as an IN
    restriction, so the source only returns joinable rows.  Pays one extra
    request per block but can shrink the transferred inner relation
    dramatically when the outer side is selective.
    """

    outer: FedOperator
    inner: ServiceNode
    join_variable: str
    block_size: int = 50

    def execute(self, context: RunContext) -> Iterator[Solution]:
        cost = context.cost_model
        block: list[Solution] = []
        outer_stream = self.outer.execute(context)
        while True:
            block.clear()
            for solution in outer_stream:
                if self.join_variable in solution:
                    block.append(solution)
                    if len(block) >= self.block_size:
                        break
            if not block:
                return
            terms = []
            seen: set = set()
            for solution in block:
                term = solution[self.join_variable]
                if term not in seen:
                    seen.add(term)
                    terms.append(term)
            by_term: dict = {}
            for solution in block:
                context.charge_engine(cost.engine_hash_insert)
                by_term.setdefault(solution[self.join_variable], []).append(solution)
            for inner_solution in self.inner.execute_restricted(
                context, self.join_variable, terms
            ):
                context.charge_engine(cost.engine_hash_probe)
                for outer_solution in by_term.get(inner_solution[self.join_variable], ()):
                    merged = _merge(outer_solution, inner_solution)
                    if merged is not None:
                        context.charge_engine(cost.engine_join_output_row)
                        yield merged
            if len(block) < self.block_size:
                return

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        cost = context.cost_model
        variable = self.join_variable
        positions_for = _positions_cache((variable,))
        clock_sleep = context.clock.sleep
        stats = context.stats
        hash_insert = cost.engine_hash_insert
        hash_probe = cost.engine_hash_probe
        output_row = cost.engine_join_output_row
        emitter = _BatchEmitter(context)
        block: list[Handle] = []
        block_terms: list[Term] = []
        outer_stream = self.outer.execute_batch(context)
        while True:
            block.clear()
            block_terms.clear()
            for batch, idx in outer_stream:
                position = positions_for(batch)[0]
                term = None if position < 0 else batch.columns[position][idx]
                if term is not None:
                    block.append((batch, idx))
                    block_terms.append(term)
                    if len(block) >= self.block_size:
                        break
            if not block:
                return
            terms = []
            seen: set = set()
            for term in block_terms:
                if term not in seen:
                    seen.add(term)
                    terms.append(term)
            by_term: dict = {}
            for handle, term in zip(block, block_terms):
                if hash_insert > 0:
                    clock_sleep(hash_insert)
                    stats.engine_cost += hash_insert
                by_term.setdefault(term, []).append(handle)
            for ibatch, iidx in self.inner.execute_restricted_batch(
                context, variable, terms
            ):
                if hash_probe > 0:
                    clock_sleep(hash_probe)
                    stats.engine_cost += hash_probe
                inner_term = ibatch.columns[ibatch.index[variable]][iidx]
                for obatch, oidx in by_term.get(inner_term, ()):
                    plan = merge_plan(obatch.names, ibatch.names)
                    values = plan.merge_values(obatch, oidx, ibatch, iidx)
                    if values is not None:
                        if output_row > 0:
                            clock_sleep(output_row)
                            stats.engine_cost += output_row
                        yield emitter.emit(plan.names, values)
            if len(block) < self.block_size:
                return

    def children(self) -> list[FedOperator]:
        return [self.outer, self.inner]

    def label(self) -> str:
        return f"DependentJoin[?{self.join_variable}, block={self.block_size}]"


@dataclass
class EngineFilter(FedOperator):
    """FILTER evaluated at the query-engine level (Heuristic 2's push-up)."""

    child: FedOperator
    filters: list[Filter]

    def execute(self, context: RunContext) -> Iterator[Solution]:
        cost = context.cost_model
        tests = [compile_holds(f.expression) for f in self.filters]
        for solution in self.child.execute(context):
            context.charge_engine(cost.engine_filter_eval * len(self.filters))
            if all(test(solution) for test in tests):
                yield solution

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        charge = context.cost_model.engine_filter_eval * len(self.filters)
        positive = charge > 0
        clock_sleep = context.clock.sleep
        stats = context.stats
        tests = [compile_holds(f.expression) for f in self.filters]
        for handle in self.child.execute_batch(context):
            if positive:
                clock_sleep(charge)
                stats.engine_cost += charge
            view = RowView(handle[0], handle[1])
            if all(test(view) for test in tests):
                yield handle

    def children(self) -> list[FedOperator]:
        return [self.child]

    def data_signature(self, context: RunContext) -> tuple | None:
        child = self.child.data_signature(context)
        if child is None:
            return None
        return ("filter", tuple(f.expression.n3() for f in self.filters), child)

    def label(self) -> str:
        rendered = " AND ".join(f.expression.n3() for f in self.filters)
        return f"EngineFilter[{rendered}]"


@dataclass
class Project(FedOperator):
    """Restrict solutions to the projected variables."""

    child: FedOperator
    variables: tuple[str, ...]

    def execute(self, context: RunContext) -> Iterator[Solution]:
        cost = context.cost_model
        names = self.variables
        for solution in self.child.execute(context):
            context.charge_engine(cost.engine_project_row)
            yield {name: solution[name] for name in names if name in solution}

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        # Zero-copy: the projected batch aliases the kept input columns
        # (holes already encode per-row absence), built once per distinct
        # input batch.  The input batch is kept in the memo value so its
        # id() stays unique for the memo's lifetime.
        project_cost = context.cost_model.engine_project_row
        positive = project_cost > 0
        clock = context.clock
        virtual = type(clock) is VirtualClock
        clock_sleep = clock.sleep
        stats = context.stats
        names = self.variables
        derived: dict[int, tuple[SolutionBatch, SolutionBatch]] = {}
        for batch, idx in self.child.execute_batch(context):
            if positive:
                if virtual:
                    clock._now += project_cost
                else:
                    clock_sleep(project_cost)
                stats.engine_cost += project_cost
            entry = derived.get(id(batch))
            if entry is None:
                index = batch.index
                kept = tuple(name for name in names if name in index)
                projected = SolutionBatch(
                    kept, [batch.columns[index[name]] for name in kept]
                )
                derived[id(batch)] = entry = (batch, projected)
            yield (entry[1], idx)

    def children(self) -> list[FedOperator]:
        return [self.child]

    def label(self) -> str:
        return "Project[" + ", ".join(f"?{name}" for name in self.variables) + "]"


@dataclass
class Distinct(FedOperator):
    child: FedOperator

    def execute(self, context: RunContext) -> Iterator[Solution]:
        cost = context.cost_model
        seen: set[tuple] = set()
        for solution in self.child.execute(context):
            context.charge_engine(cost.engine_distinct_row)
            key = solution_identity(solution)
            if key not in seen:
                seen.add(key)
                yield solution

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        distinct_cost = context.cost_model.engine_distinct_row
        positive = distinct_cost > 0
        clock = context.clock
        virtual = type(clock) is VirtualClock
        clock_sleep = clock.sleep
        stats = context.stats
        seen: set[tuple] = set()
        n3_cache: dict[Term, str] = {}
        cache_get = n3_cache.get
        for batch, idx in self.child.execute_batch(context):
            if positive:
                if virtual:
                    clock._now += distinct_cost
                else:
                    clock_sleep(distinct_cost)
                stats.engine_cost += distinct_cost
            # handle_identity, inlined: sorted bound (name, n3) pairs with a
            # per-term n3 memo (bit-compatible with solution_identity).
            out = []
            for name, column in batch.sorted_pairs:
                value = column[idx]
                if value is None:
                    continue
                n3 = cache_get(value)
                if n3 is None:
                    n3 = n3_cache[value] = value.n3()
                out.append((name, n3))
            key = tuple(out)
            if key not in seen:
                seen.add(key)
                yield (batch, idx)

    def children(self) -> list[FedOperator]:
        return [self.child]


@dataclass
class Limit(FedOperator):
    child: FedOperator
    limit: int | None = None
    offset: int | None = None

    def execute(self, context: RunContext) -> Iterator[Solution]:
        skipped = produced = 0
        for solution in self.child.execute(context):
            if self.offset and skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield solution

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        skipped = produced = 0
        for handle in self.child.execute_batch(context):
            if self.offset and skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield handle

    def children(self) -> list[FedOperator]:
        return [self.child]

    def label(self) -> str:
        return f"Limit[{self.limit}, offset={self.offset}]"


@dataclass
class OrderBy(FedOperator):
    """Blocking sort by ORDER BY conditions (evaluated at the engine)."""

    child: FedOperator
    conditions: list[OrderCondition]

    def execute(self, context: RunContext) -> Iterator[Solution]:
        cost = context.cost_model
        solutions = list(self.child.execute(context))
        context.charge_engine(cost.engine_sort_row * len(solutions))
        yield from sort_solutions(solutions, self.conditions)

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        # RowView is a Mapping, so the shared typed collation applies
        # unchanged; sorts are stable, so the permutation matches row mode.
        cost = context.cost_model
        views = [
            RowView(batch, idx) for batch, idx in self.child.execute_batch(context)
        ]
        context.charge_engine(cost.engine_sort_row * len(views))
        for view in sort_solutions(views, self.conditions):
            yield (view.batch, view.idx)

    def children(self) -> list[FedOperator]:
        return [self.child]


@dataclass
class Union(FedOperator):
    """Round-robin union of several inputs (no duplicate elimination)."""

    inputs: list[FedOperator]

    def execute(self, context: RunContext) -> Iterator[Solution]:
        iterators = [child.execute(context) for child in self.inputs]
        active = [True] * len(iterators)
        while any(active):
            for position, iterator in enumerate(iterators):
                if not active[position]:
                    continue
                try:
                    yield next(iterator)
                except StopIteration:
                    active[position] = False

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        iterators = [child.execute_batch(context) for child in self.inputs]
        active = [True] * len(iterators)
        while any(active):
            for position, iterator in enumerate(iterators):
                if not active[position]:
                    continue
                try:
                    yield next(iterator)
                except StopIteration:
                    active[position] = False

    def children(self) -> list[FedOperator]:
        return list(self.inputs)

    def data_signature(self, context: RunContext) -> tuple | None:
        parts = []
        for child in self.inputs:
            signature = child.data_signature(context)
            if signature is None:
                return None
            parts.append(signature)
        return ("union", tuple(parts))
