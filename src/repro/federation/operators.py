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

Each operator has one :class:`Kernel` (its per-execution state and charges)
next to it: ``execute`` pulls it, :mod:`repro.runtime.nodes` pushes it, and
the columnar ``execute_batch`` loops re-implement its charge sequence.
Operators keep no cross-run state: a repeated sequential batch run is
replayed whole from its recorded charge script
(:mod:`repro.federation.script`), keyed by the plan root's
:meth:`FedOperator.data_signature`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from ..rdf.terms import Term
from ..network.clock import RecordingClock, VirtualClock
from ..sparql.algebra import Filter, OrderCondition
from ..sparql.expressions import ExpressionError, compile_holds, evaluate
from .answers import ChargeBatch, RunContext, Solution
from .batch import (
    BatchBuilder,
    Handle,
    MergePlan,
    RowView,
    SolutionBatch,
    single_solution_batch,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..mapping.translator import TranslationResult
    from .wrappers import SPARQLWrapper, SQLWrapper, StarRequest


class Done(Exception):
    """Raised by a kernel step that ends the run (LIMIT's over-limit arrival):
    the pull driver returns, a push cascade unwinds to the scheduler, and
    every lazy step in flight is closed where it stands."""


class Kernel:
    """One operator's per-execution state and charging; this base passes through.

    ``step(slot, solution)`` consumes one solution arriving on input *slot*
    (0 for unary operators, 0/1 for join sides) and returns the outputs it
    releases; ``finish()`` returns what is released once every input ended.
    A driver only decides which input to take next and when to stop — the
    pull loop of :func:`_drive`, event delivery in :mod:`repro.runtime.nodes`
    — so both run the same state machine and the same float adds.

    Outputs are lazy: the charges that precede the k-th output are applied
    when the k-th output is taken, never earlier.  A step that can release
    several outputs returns a generator; one that releases at most one has
    charged everything when it returns a tuple.  A driver that stops early
    (:class:`Done`, or its consumer walked away) drops the kernel without
    ``finish``: charges pending in it are never applied (DESIGN.md §5).
    """

    def __init__(self, context: RunContext, op: "FedOperator"):
        self.op = op
        self.charge = context.charge_engine
        self.cost = context.cost_model

    def step(self, slot: int, solution: Solution) -> Iterable[Solution]:
        return (solution,)

    def finish(self) -> Iterable[Solution]:
        return ()


def _drive(kernel: Kernel, streams: list[Iterator]) -> Iterator:
    """The pull driver: take *streams* round-robin, yield what *kernel* releases.

    Each pass pulls one item from every stream that has not ended, in slot
    order — ANAPSID's alternation for the two sides of a join, plain
    iteration for one input.  Solutions or handles: the driver never looks.
    """
    step = kernel.step
    turns = [(slot, iter(stream)) for slot, stream in enumerate(streams)]
    try:
        while turns:
            for turn in turns:
                for item in turn[1]:  # take one item (else: the stream ended)
                    yield from step(turn[0], item)
                    break
                else:
                    turns = [other for other in turns if other is not turn]
    except Done:
        return
    yield from kernel.finish()


def _adapt(solutions: Iterable[Solution]) -> Iterator[Handle]:
    """A row stream as single-row batches (at row-mode speed)."""
    for solution in solutions:
        yield single_solution_batch(solution)


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

    #: The :class:`Kernel` subclass that runs this operator.
    kernel_type: type[Kernel] | None = None

    def kernel(self, context: RunContext) -> Kernel:
        """A fresh kernel for one execution under *context*."""
        if self.kernel_type is None:
            raise TypeError(f"operator {type(self).__name__} has no kernel")
        return self.kernel_type(context, self)

    def execute(self, context: RunContext) -> Iterator[Solution]:
        """Row execution: the pull driver over this operator's kernel."""
        streams = [child.execute(context) for child in self.children()]
        return _drive(self.kernel(context), streams)

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        """Columnar execution: stream handles into shared solution batches.

        The default adapts the row stream one row at a time, so any
        operator without a vectorized implementation still composes with
        batch-mode neighbours (at row-mode speed).  Charging is whatever
        ``execute`` charges — identical by construction.
        """
        return _adapt(self.execute(context))

    def children(self) -> list["FedOperator"]:
        return []

    def data_signature(self, context: RunContext) -> tuple | None:
        """A hashable identity of this operator's *data* stream, or None.

        Two streams with equal signatures yield the same rows in the same
        order and issue the same charges in the same order, delay draws
        aside — network delays, cache state and clock type never enter the
        signature because they never influence the data plane (delays only
        move virtual time; a cached block charges exactly like a fetched
        one).  The plan root's signature keys the ``run_scripts`` memo
        (:mod:`repro.federation.script`), so every concrete operator signs
        every parameter that shapes its output; None (this base, or a test
        double) keeps the run live.
        """
        return None

    def _signed(self, context: RunContext, *parameters) -> tuple | None:
        """``(type name, *parameters, *child signatures)``; None when a child
        cannot sign."""
        signatures = []
        for child in self.children():
            signature = child.data_signature(context)
            if signature is None:
                return None
            signatures.append(signature)
        return (type(self).__name__, *parameters, *signatures)

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        lines.extend(child.explain(indent + 1) for child in self.children())
        return "\n".join(lines)


@dataclass
class ServiceNode(FedOperator):
    """A leaf: one sub-query *request* shipped to one source *wrapper*.

    The leaf is data.  ``wrapper`` names the source and runs requests
    (``execute(request, context)`` / ``execute_batch``); ``request`` is the
    sub-query in the source's language, rendering its own native text
    (Figure-1-style plans), key parts and span arguments.
    ``request.restricted(variable, terms)`` is the same sub-query with an
    IN-restriction on one variable — what the dependent (bound) join ships
    per block.  Wrapper methods are looked up when the leaf executes: a
    plan never holds a bound method.
    """

    wrapper: SQLWrapper | SPARQLWrapper
    request: TranslationResult | StarRequest
    engine_filters: list[Filter] = field(default_factory=list)
    #: Variable names this sub-query can bind (set by the planner; the
    #: plan-invariant checker uses it to verify join orderings).
    variables: tuple[str, ...] = ()

    @property
    def source_id(self) -> str:
        return self.wrapper.source_id

    def kernel(self, context: RunContext) -> Kernel:
        """The engine-side filters of this sub-query (pass-through when none)."""
        if not self.engine_filters:
            return Kernel(context, self)
        return _FilterKernel(context, self, self.engine_filters)

    def execute(self, context: RunContext, request=None) -> Iterator[Solution]:
        """Run *request* (default: the leaf's own) through the wrapper."""
        stream = self.wrapper.execute(request or self.request, context)
        if self.engine_filters:
            stream = _drive(self.kernel(context), [stream])
        yield from stream

    def execute_batch(self, context: RunContext, request=None) -> Iterator[Handle]:
        # Not a generator function: the unfiltered fast path hands the
        # wrapper's iterator straight to the consumer, so per-row pulls skip
        # two delegation frames on the hot path.
        stream = self.wrapper.execute_batch(request or self.request, context)
        if not self.engine_filters:
            return stream
        return _filter_handles(self.kernel(context), context, stream)

    def data_signature(self, context: RunContext) -> tuple:
        # The request's key parts serialize everything that shapes the data
        # at the source; the wrapper's (store, version) pair pins which data.
        return (
            "svc",
            self.source_id,
            self.request.key_parts,
            tuple(f.expression.n3() for f in self.engine_filters),
            self.wrapper.data_version(),
        )

    def label(self) -> str:
        base = f"Service[{self.source_id}] {self.request.text}"
        if self.engine_filters:
            rendered = " AND ".join(f.expression.n3() for f in self.engine_filters)
            base += f" | engine-filter({rendered})"
        return base


class _FilterKernel(Kernel):
    """FILTERs evaluated at the engine: one charge per solution, all must hold.

    Serves :class:`EngineFilter` and the engine-side filters of a
    :class:`ServiceNode` (including a dependent join's inner service).
    """

    def __init__(self, context: RunContext, op: FedOperator, filters: list[Filter]):
        super().__init__(context, op)
        self.seconds = self.cost.engine_filter_eval * len(filters)
        self.tests = [compile_holds(f.expression) for f in filters]

    def step(self, slot: int, solution: Solution) -> Iterable[Solution]:
        self.charge(self.seconds)
        if all(test(solution) for test in self.tests):
            return (solution,)
        return ()


def _filter_handles(
    kernel: _FilterKernel, context: RunContext, stream: Iterator[Handle]
) -> Iterator[Handle]:
    """The columnar filter loop: *kernel*'s charge and tests applied to a
    handle stream, each row seen through a :class:`RowView`."""
    charge = kernel.seconds
    tests = kernel.tests
    positive = charge > 0
    clock_sleep = context.clock.sleep
    stats = context.stats
    for handle in stream:
        if positive:
            clock_sleep(charge)
            stats.engine_cost += charge
        view = RowView(handle[0], handle[1])
        if all(test(view) for test in tests):
            yield handle


def _sort_key(condition: OrderCondition):
    """The typed collation key of one ORDER BY condition (any Mapping row)."""

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
    """Per-execution merge plans and output builders, one per batch shape."""

    __slots__ = ("batch_size", "builders", "plans")

    def __init__(self, context: RunContext):
        self.batch_size = context.batch_size
        self.builders: dict[tuple[str, ...], BatchBuilder] = {}
        self.plans: dict[tuple, MergePlan] = {}

    def plan_for(self, left: tuple[str, ...], right: tuple[str, ...]) -> MergePlan:
        """The merge plan of one (left shape, right shape), compiled once."""
        plan = self.plans.get((left, right))
        if plan is None:
            plan = self.plans[left, right] = MergePlan(left, right)
        return plan

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


class _ZippedKeys:
    """The join-key column of one batch when no stored column can serve:
    several join variables (tuple keys), none (``()``), or a variable the
    batch lacks.  Zipped on demand, because builder batches keep growing
    while handles into them are in flight; a key with an unbound component
    is ``None``, like a hole in a stored column — the row cannot join.
    """

    def __init__(self, columns: list[list[Term | None]], positions: list[int]):
        self.columns = columns
        self.positions = positions

    def __getitem__(self, idx: int) -> tuple[Term, ...] | None:
        key = []
        for position in self.positions:
            term = None if position < 0 else self.columns[position][idx]
            if term is None:
                return None
            key.append(term)
        return tuple(key)


def _key_column(batch: SolutionBatch, variables: tuple[str, ...]):
    """*batch*'s join keys by row: the stored column itself for one join
    variable (a bare term is its own key), zipped tuples otherwise."""
    index = batch.index
    positions = [index.get(name, -1) for name in variables]
    if len(positions) == 1 and positions[0] >= 0:
        return batch.columns[positions[0]]
    return _ZippedKeys(batch.columns, positions)


class _HashJoinKernel(Kernel):
    """Both hash tables of one symmetric join and its pending charges.

    Insert/probe costs are batched and flushed before every emitted answer
    (and at stream end): the clock value at each output — hence every
    answer timestamp — is identical to per-tuple charging, but non-joining
    tuples no longer pay two charge calls each.  The output multiset is
    arrival-order-invariant because each joinable pair is emitted exactly
    once — by whichever side arrives second.
    """

    def __init__(self, context: RunContext, op: "SymmetricHashJoin"):
        super().__init__(context, op)
        self.tables: tuple[dict, dict] = ({}, {})
        self.charges = ChargeBatch(context)
        self.insert_probe = self.cost.engine_hash_insert + self.cost.engine_hash_probe

    def step(self, side: int, solution: Solution) -> Iterable[Solution]:
        key = []
        for name in self.op.join_variables:
            term = solution.get(name)
            if term is None:
                return ()
            key.append(term)
        key = tuple(key)
        self.charges.add(self.insert_probe)
        self.tables[side].setdefault(key, []).append(solution)
        matches = self.tables[1 - side].get(key)
        return self._joined(side, solution, matches) if matches else ()

    def _joined(self, side: int, solution: Solution, matches: list) -> Iterator:
        charges = self.charges
        for candidate in matches:
            if side == 0:
                merged = _merge(solution, candidate)
            else:
                merged = _merge(candidate, solution)
            if merged is not None:
                charges.add(self.cost.engine_join_output_row)
                charges.flush()
                yield merged

    def finish(self) -> Iterable[Solution]:
        self.charges.flush()
        return ()


@dataclass
class _Binary(FedOperator):
    """An operator joining two inputs on their shared variables."""

    left: FedOperator
    right: FedOperator
    join_variables: tuple[str, ...]

    def children(self) -> list[FedOperator]:
        return [self.left, self.right]

    def label(self) -> str:
        joined = ", ".join(f"?{name}" for name in self.join_variables) or "×"
        return f"{type(self).__name__}[{joined}]"


@dataclass
class SymmetricHashJoin(_Binary):
    """ANAPSID's agjoin: a non-blocking symmetric hash join.

    Both inputs are polled in alternation; each arriving solution is
    inserted into its side's hash table (keyed by the join variables) and
    probed against the opposite table, emitting joins immediately.
    """

    kernel_type = _HashJoinKernel

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        # Same pull alternation and charge sequence as ``execute``; the
        # pending-charge accumulation inlines ChargeBatch (identical float
        # adds in identical order), and merge plans are compiled once per
        # (left shape, right shape) pair.  When the shared variables of a
        # pair are exactly the join variables, key equality already proves
        # the rows compatible and the merged row is a plain column gather.
        cost = context.cost_model
        variables = self.join_variables
        # One key column per input batch: the stored column for a single
        # join variable, keys zipped on demand otherwise (``_key_column``).
        key_columns: dict[SolutionBatch, object] = {}
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
        # Advancing ``_now`` directly is ``sleep``'s float add without the
        # call (a recording clock also logs it); other clock types
        # (event/thread task clocks, a caller's clock) keep the call.
        virtual = type(clock) is VirtualClock
        recording = type(clock) is RecordingClock
        if recording:
            add, tag = clock.adds.append, clock.tags.append
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
                batch, idx = nexts[side]()
            except StopIteration:
                active[side] = False
                side = 1 - side
                continue
            keys = key_columns.get(batch)
            if keys is None:
                keys = key_columns[batch] = _key_column(batch, variables)
            key = keys[idx]
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
                        plan = MergePlan(pair[0], pair[1])
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
                        handle = append_gather(
                            lbatch.columns, li, rbatch.columns, ri, right_only
                        )
                    else:
                        values = plan.merge_values(lbatch, li, rbatch, ri)
                        if values is None:
                            continue
                        handle = append(values)
                    pending += join_output
                    if pending > 0:
                        if virtual:
                            clock._now += pending
                        elif recording:
                            clock._now += pending
                            add(pending)
                            tag(0)
                        else:
                            clock_sleep(pending)
                        stats.engine_cost += pending
                        pending = 0.0
                    yield handle
            side = 1 - side
        if pending > 0:
            if virtual:
                clock._now += pending
            elif recording:
                clock._now += pending
                add(pending)
                tag(0)
            else:
                clock_sleep(pending)
            stats.engine_cost += pending

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context, self.join_variables)


class _LeftJoinKernel(Kernel):
    """The OPTIONAL body's hash table: slot 1 builds it, slot 0 probes it.

    Unbound join variables take part with a ``None`` key component, so a
    left solution still finds the optional rows that leave them open.
    """

    BUILD = 1

    def __init__(self, context: RunContext, op: "LeftJoin"):
        super().__init__(context, op)
        self.table: dict[tuple, list[Solution]] = {}

    def step(self, slot: int, solution: Solution) -> Iterable[Solution]:
        key = tuple(solution.get(name) for name in self.op.join_variables)
        if slot == self.BUILD:
            self.charge(self.cost.engine_hash_insert)
            self.table.setdefault(key, []).append(solution)
            return ()
        self.charge(self.cost.engine_hash_probe)
        candidates = self.table.get(key)
        return self._extended(solution, candidates) if candidates else (solution,)

    def _extended(self, solution: Solution, candidates: list) -> Iterator[Solution]:
        matched = False
        for candidate in candidates:
            merged = _merge(solution, candidate)
            if merged is not None:
                matched = True
                self.charge(self.cost.engine_join_output_row)
                yield merged
        if not matched:
            yield solution


@dataclass
class LeftJoin(_Binary):
    """OPTIONAL: keep every left solution, extend with right matches.

    The right input is materialized into a hash table on the join
    variables (OPTIONAL bodies are typically small); the left streams
    through, emitting each extension — or the bare left solution when the
    optional part has no compatible match.
    """

    kernel_type = _LeftJoinKernel

    def execute(self, context: RunContext) -> Iterator[Solution]:
        kernel = self.kernel(context)
        for solution in self.right.execute(context):
            kernel.step(kernel.BUILD, solution)
        yield from _drive(kernel, [self.left.execute(context)])

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        cost = context.cost_model
        positions_for = _positions_cache(self.join_variables)
        clock_sleep = context.clock.sleep
        stats = context.stats
        hash_insert = cost.engine_hash_insert
        hash_probe = cost.engine_hash_probe
        output_row = cost.engine_join_output_row
        emitter = _BatchEmitter(context)
        plan_for = emitter.plan_for
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
                plan = plan_for(batch.names, candidate.names)
                values = plan.merge_values(batch, idx, candidate, cidx)
                if values is not None:
                    matched = True
                    if output_row > 0:
                        clock_sleep(output_row)
                        stats.engine_cost += output_row
                    yield emitter.emit(plan.names, values)
            if not matched:
                yield (batch, idx)

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context, self.join_variables)

    def label(self) -> str:
        return super().label() + " (OPTIONAL)"


class _BoundJoinKernel(Kernel):
    """One dependent join's block buffer and the sealed block's hash table.

    Outer solutions that bind the join variable are buffered (``OUTER``
    steps release nothing).  When the driver sees the block ``full`` — or
    the outer input end on a partial block — it calls :meth:`seal`, which
    indexes the block and returns the distinct terms to restrict the inner
    sub-query by; ``INNER`` steps then probe that block.
    """

    OUTER = 0
    INNER = 1

    def __init__(self, context: RunContext, op: "DependentJoin"):
        super().__init__(context, op)
        self.block: list[Solution] = []
        self.by_term: dict[Term, list[Solution]] = {}

    @property
    def full(self) -> bool:
        return len(self.block) >= self.op.block_size

    def seal(self) -> list[Term]:
        """Index the buffered block; returns its distinct join terms in order."""
        variable = self.op.join_variable
        terms = []
        seen: set = set()
        for solution in self.block:
            term = solution[variable]
            if term not in seen:
                seen.add(term)
                terms.append(term)
        by_term = self.by_term = {}
        for solution in self.block:
            # Per-tuple, not one multiplied charge: every driver and the
            # columnar loop see the same float sum.
            self.charge(self.cost.engine_hash_insert)
            by_term.setdefault(solution[variable], []).append(solution)
        self.block = []
        return terms

    def step(self, slot: int, solution: Solution) -> Iterable[Solution]:
        variable = self.op.join_variable
        if slot == self.OUTER:
            if variable in solution:
                self.block.append(solution)
            return ()
        self.charge(self.cost.engine_hash_probe)
        outers = self.by_term.get(solution[variable])
        return self._joined(outers, solution) if outers else ()

    def _joined(self, outers: list, inner_solution: Solution) -> Iterator[Solution]:
        for outer_solution in outers:
            merged = _merge(outer_solution, inner_solution)
            if merged is not None:
                self.charge(self.cost.engine_join_output_row)
                yield merged


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
    kernel_type = _BoundJoinKernel

    def execute(self, context: RunContext) -> Iterator[Solution]:
        kernel = self.kernel(context)
        outer_stream = self.outer.execute(context)
        while True:
            for solution in outer_stream:
                kernel.step(kernel.OUTER, solution)
                if kernel.full:
                    break
            if not kernel.block:
                return
            # A partial block means the outer input ended: it is the last.
            final = not kernel.full
            terms = kernel.seal()
            request = self.inner.request.restricted(self.join_variable, terms)
            for inner_solution in self.inner.execute(context, request):
                yield from kernel.step(kernel.INNER, inner_solution)
            if final:
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
        plan_for = emitter.plan_for
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
            request = self.inner.request.restricted(variable, terms)
            for ibatch, iidx in self.inner.execute_batch(context, request):
                if hash_probe > 0:
                    clock_sleep(hash_probe)
                    stats.engine_cost += hash_probe
                inner_term = ibatch.columns[ibatch.index[variable]][iidx]
                for obatch, oidx in by_term.get(inner_term, ()):
                    plan = plan_for(obatch.names, ibatch.names)
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

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context, self.join_variable, self.block_size)

    def label(self) -> str:
        return f"DependentJoin[?{self.join_variable}, block={self.block_size}]"


@dataclass
class _Unary(FedOperator):
    """An operator over one input."""

    child: FedOperator

    def children(self) -> list[FedOperator]:
        return [self.child]


@dataclass
class EngineFilter(_Unary):
    """FILTER evaluated at the query-engine level (Heuristic 2's push-up)."""

    filters: list[Filter]

    def kernel(self, context: RunContext) -> _FilterKernel:
        return _FilterKernel(context, self, self.filters)

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        return _filter_handles(
            self.kernel(context), context, self.child.execute_batch(context)
        )

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context, tuple(f.expression.n3() for f in self.filters))

    def label(self) -> str:
        rendered = " AND ".join(f.expression.n3() for f in self.filters)
        return f"EngineFilter[{rendered}]"


class _ProjectKernel(Kernel):
    def step(self, slot: int, solution: Solution) -> Iterable[Solution]:
        self.charge(self.cost.engine_project_row)
        names = self.op.variables
        return ({name: solution[name] for name in names if name in solution},)


@dataclass
class Project(_Unary):
    """Restrict solutions to the projected variables."""

    variables: tuple[str, ...]
    kernel_type = _ProjectKernel

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

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context, self.variables)

    def label(self) -> str:
        return "Project[" + ", ".join(f"?{name}" for name in self.variables) + "]"


class _DistinctKernel(Kernel):
    """The seen-set of one DISTINCT, keyed by name-sorted (name, N3) pairs.

    Sorted name tuples are kept per solution *shape* for this execution
    only: the per-solution sort is paid once per shape, and no process-wide
    table grows with client-chosen variable names.
    """

    def __init__(self, context: RunContext, op: "Distinct"):
        super().__init__(context, op)
        self.seen: set[tuple] = set()
        self.sorted_names: dict[tuple[str, ...], tuple[str, ...]] = {}

    def step(self, slot: int, solution: Solution) -> Iterable[Solution]:
        self.charge(self.cost.engine_distinct_row)
        shape = tuple(solution)
        names = self.sorted_names.get(shape)
        if names is None:
            names = self.sorted_names[shape] = tuple(sorted(shape))
        key = tuple((name, solution[name].n3()) for name in names)
        if key in self.seen:
            return ()
        self.seen.add(key)
        return (solution,)


@dataclass
class Distinct(_Unary):
    kernel_type = _DistinctKernel

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
            # The row kernel's identity over columns: sorted bound (name, n3)
            # pairs, with a per-term n3 memo.
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

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context)


class _LimitKernel(Kernel):
    """LIMIT/OFFSET counters.  Counts only — solutions or handles.

    The operator never peeks ahead: the run is :class:`Done` at the first
    over-limit arrival, not when the limit is reached, so every driver stops
    at the same point of the same input.
    """

    skipped = produced = 0

    def step(self, slot: int, solution):
        if self.op.offset and self.skipped < self.op.offset:
            self.skipped += 1
            return ()
        if self.op.limit is not None and self.produced >= self.op.limit:
            raise Done
        self.produced += 1
        return (solution,)


@dataclass
class Limit(_Unary):
    limit: int | None = None
    offset: int | None = None
    kernel_type = _LimitKernel

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        return _drive(self.kernel(context), [self.child.execute_batch(context)])

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context, self.limit, self.offset)

    def label(self) -> str:
        return f"Limit[{self.limit}, offset={self.offset}]"


class _OrderKernel(Kernel):
    """Blocking sort: buffers every input, releases them sorted at the end."""

    def __init__(self, context: RunContext, op: "OrderBy"):
        super().__init__(context, op)
        self.solutions: list = []

    def step(self, slot: int, solution) -> Iterable:
        self.solutions.append(solution)
        return ()

    def finish(self) -> Iterable:
        solutions, self.solutions = self.solutions, []
        self.charge(self.cost.engine_sort_row * len(solutions))
        for condition in reversed(self.op.conditions):
            solutions.sort(key=_sort_key(condition), reverse=not condition.ascending)
        return solutions


@dataclass
class OrderBy(_Unary):
    """Blocking sort by ORDER BY conditions (evaluated at the engine)."""

    conditions: list[OrderCondition]
    kernel_type = _OrderKernel

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        # RowView is a Mapping, so the kernel's typed collation applies
        # unchanged; sorts are stable, so the permutation matches row mode.
        views = (
            RowView(batch, idx) for batch, idx in self.child.execute_batch(context)
        )
        for view in _drive(self.kernel(context), [views]):
            yield (view.batch, view.idx)

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(
            context,
            tuple((c.expression.n3(), c.ascending) for c in self.conditions),
        )


@dataclass
class Union(FedOperator):
    """Round-robin union of several inputs (no duplicate elimination)."""

    inputs: list[FedOperator]
    kernel_type = Kernel

    def execute_batch(self, context: RunContext) -> Iterator[Handle]:
        streams = [child.execute_batch(context) for child in self.inputs]
        return _drive(self.kernel(context), streams)

    def children(self) -> list[FedOperator]:
        return list(self.inputs)

    def data_signature(self, context: RunContext) -> tuple | None:
        return self._signed(context)
