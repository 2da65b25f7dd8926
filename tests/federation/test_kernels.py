"""Kernel-level identity: one operator, three drivers, one charge sequence.

Every operator's semantics and charges live in one kernel
(``federation/operators.py``).  This suite drives each operator over
hypothesis-generated solution streams

(a) by its pull driver (``execute``),
(b) by its push driver (``runtime/nodes.py``), fed in the pull order, and
(c) through the columnar plane (``execute_batch``),

and requires the same output sequence with ``float.hex``-identical
``stats.engine_cost`` and clock *at every emitted answer* — clock arithmetic
is float addition, so this pins the exact charge order, not just the totals.
The streams cover unbound join variables, duplicate keys, mixed shapes,
empty sides, multi-variable and cross-product joins; the leaves come in
three columnar layouts (adapted rows, per-shape chunks, one wide batch with
holes).
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from repro.cache import clear_memos
from repro.cache.memos import run_scripts
from repro.core.engine import ResultStream
from repro.federation import RunContext
from repro.federation.script import RunScript
from repro.federation.batch import BatchBuilder, SolutionBatch
from repro.federation.operators import (
    DependentJoin,
    Distinct,
    Done,
    EngineFilter,
    LeftJoin,
    Limit,
    OrderBy,
    Project,
    ServiceNode,
    SymmetricHashJoin,
    Union,
)
from repro.network.costmodel import CostModel
from repro.rdf import IRI, Literal, Variable
from repro.runtime.nodes import compile_plan
from repro.runtime.scheduler import Gate
from repro.sparql.algebra import (
    BinaryOp,
    Filter,
    OrderCondition,
    TermExpr,
    VariableExpr,
)

VARIABLES = ("a", "b", "c")
#: A small domain, so keys collide and DISTINCT has something to drop.
TERMS = (Literal("0"), Literal("1"), Literal("2"), IRI("http://ex/t"))
LAYOUTS = ("adapt", "chunks", "wide")
#: Engine prices no two of which sum exactly: a reordered or regrouped
#: charge sequence shows up in the last bits of the clock.
COST = CostModel(
    engine_hash_insert=0.1,
    engine_hash_probe=0.2,
    engine_filter_eval=0.3,
    engine_project_row=0.7,
    engine_distinct_row=1.1,
    engine_join_output_row=1.3,
    engine_sort_row=1.7,
)
NOT_ZERO = Filter(BinaryOp("!=", VariableExpr(Variable("a")), TermExpr(TERMS[0])))


class Request:
    """A fake sub-query request: the restriction it carries, if any."""

    key_parts = ()

    def __init__(self, text, restriction=None):
        self.text = text
        self.restriction = restriction

    def restricted(self, variable, terms):
        return Request(self.text, (variable, terms))


def single_row(solution):
    """One solution as the only row of its own batch (the "adapt" layout)."""
    names = tuple(solution)
    return SolutionBatch(names, [[solution[name]] for name in names]), 0


class Leaf:
    """A list-backed wrapper that logs every pull.

    The log — ``(leaf, run, "row" | "end")`` — is the pull order the push
    driver is then fed in.  A restricted run (a dependent join's inner
    block) keeps the solutions whose *variable* is among the block's terms.
    """

    def __init__(self, name, solutions, layout, capacity, log, signature=None):
        self.source_id = name
        self.solutions = solutions
        self.layout = layout
        self.capacity = capacity
        self.log = log
        self.signature = signature
        self.runs = 0

    def data_version(self):
        # An unsigned leaf's data is its own: a signature nothing equals.
        return self.signature or object()

    def _selected(self, request):
        self.runs += 1
        if not request.restriction:
            return self.runs, self.solutions
        variable, terms = request.restriction
        return self.runs, [s for s in self.solutions if s.get(variable) in terms]

    def execute(self, request, context):
        run, selected = self._selected(request)
        for solution in selected:
            self.log.append((self.source_id, run, "row"))
            yield dict(solution)
        self.log.append((self.source_id, run, "end"))

    def execute_batch(self, request, context):
        if self.layout == "adapt":
            return map(single_row, self.execute(request, context))
        return self._handles(request)

    def _handles(self, request):
        run, selected = self._selected(request)
        builders = {}
        for solution in selected:
            self.log.append((self.source_id, run, "row"))
            names = VARIABLES if self.layout == "wide" else tuple(solution)
            builder = builders.get(names)
            if builder is None:
                builder = builders[names] = BatchBuilder(names, self.capacity)
            yield builder.append([solution.get(name) for name in names])
        self.log.append((self.source_id, run, "end"))

    def service(self, engine_filters=()) -> ServiceNode:
        return ServiceNode(
            self, Request(self.source_id), engine_filters=list(engine_filters)
        )


def order_by(variable, ascending=True):
    return OrderCondition(VariableExpr(Variable(variable)), ascending=ascending)


#: name -> plan over the three leaves, each used once (a leaf's runs are
#: what ties the pull log to the push producers).  LIMIT only ever sits at
#: the root: under the push drivers it stops the whole run, as in real plans.
PLANS = {
    "service-filter": lambda l, r, x: l.service([NOT_ZERO]),
    "filter": lambda l, r, x: EngineFilter(l.service(), [NOT_ZERO, NOT_ZERO]),
    "project": lambda l, r, x: Project(l.service(), ("c", "a", "missing")),
    "distinct": lambda l, r, x: Distinct(l.service()),
    "limit-offset": lambda l, r, x: Limit(l.service(), limit=2, offset=1),
    "order": lambda l, r, x: OrderBy(
        l.service(), [order_by("a"), order_by("b", ascending=False)]
    ),
    "union": lambda l, r, x: Union([l.service(), r.service(), x.service()]),
    "join": lambda l, r, x: SymmetricHashJoin(l.service(), r.service(), ("a",)),
    "join-two-variables": lambda l, r, x: SymmetricHashJoin(
        l.service(), r.service(), ("a", "b")
    ),
    "cross-product": lambda l, r, x: SymmetricHashJoin(l.service(), r.service(), ()),
    "left-join": lambda l, r, x: LeftJoin(l.service(), r.service(), ("a", "b")),
    "dependent-join": lambda l, r, x: DependentJoin(
        l.service(), r.service([NOT_ZERO]), "a", block_size=2
    ),
    "limit-over-join": lambda l, r, x: Limit(
        Project(SymmetricHashJoin(l.service(), r.service(), ("a",)), ("a", "b")),
        limit=2,
    ),
    "unary-stack": lambda l, r, x: Distinct(
        Project(
            EngineFilter(LeftJoin(l.service(), r.service(), ("a",)), [NOT_ZERO]),
            ("b", "a"),
        )
    ),
    "join-stack": lambda l, r, x: Distinct(
        SymmetricHashJoin(
            DependentJoin(l.service(), r.service(), "a", block_size=3),
            Project(x.service([NOT_ZERO]), ("b", "c")),
            ("b",),
        )
    ),
    "optional-under-dependent-join": lambda l, r, x: DependentJoin(
        LeftJoin(l.service(), x.service(), ("a",)), r.service([NOT_ZERO]), "a", block_size=2
    ),
    "order-distinct-union": lambda l, r, x: OrderBy(
        Distinct(Union([l.service(), r.service(), x.service()])),
        [order_by("c", ascending=False), order_by("a")],
    ),
}
#: Plans whose pull order no push schedule reproduces.  A pull-driven join
#: may take its other side *between* two outputs of one step of the join
#: beneath it (that generator is simply suspended); an event cascade runs
#: each step to its end.  A dependent join likewise seals a block, and runs
#: its inner request, between two outputs of an OPTIONAL's step; its push
#: node queues the rest of the cascade, already charged (``nodes.py``).
#: This is why only single-producer plans are bit-identical across
#: runtimes.  Pull and columnar are still compared.
PULL_ONLY = {"join-stack", "optional-under-dependent-join"}


def fresh(plan, streams, layouts, capacity, signatures=(None, None, None)):
    """(operator, context, log) for one run: own leaves, own clock."""
    log = []
    leaves = [
        Leaf(name, stream, layout, capacity, log, signature)
        for name, stream, layout, signature in zip("lrx", streams, layouts, signatures)
    ]
    build = PLANS.get(plan, plan)  # a name, or a one-off builder
    return build(*leaves), RunContext(cost_model=COST, seed=1), log


class Trace:
    """What a driver's consumer saw: each answer with the clock and engine
    cost at the moment it arrived, then the final state of both."""

    def __init__(self, context):
        self.context = context
        self.answers = []
        self.final = None

    def stamp(self):
        return (self.context.clock.now().hex(), self.context.stats.engine_cost.hex())

    def record(self, solution):
        self.answers.append((solution, *self.stamp()))

    def finish(self):
        self.final = self.stamp()
        return self.answers, self.final


def run_pull(plan, *inputs, **kwargs):
    op, context, log = fresh(plan, *inputs, **kwargs)
    trace = Trace(context)
    for solution in op.execute(context):
        trace.record(solution)
    return trace.finish(), log


def run_batch(plan, *inputs, **kwargs):
    op, context, log = fresh(plan, *inputs, **kwargs)
    trace = Trace(context)
    for batch, idx in op.execute_batch(context):
        trace.record(batch.materialize(idx))
    return trace.finish(), log


class ReplayScheduler:
    """The scheduler surface the push nodes use, with no event loop: the
    test delivers each producer's next event itself, in the pull order."""

    def __init__(self, context):
        self.context = context
        self.leaf_ids = iter(range(1000))
        self.runs = Counter()
        self.producers = {}

    def next_leaf_id(self):
        return next(self.leaf_ids)

    def spawn(self, node, slot, runner, key, start, gate):
        name = node.service.source_id
        self.runs[name] += 1
        self.producers[name, self.runs[name]] = (node, slot, runner(self.context))


class RootCollector:
    """Stands where the sink node stands: the parent of the plan root."""

    def __init__(self, trace):
        self.trace = trace
        self.closed = False

    def push(self, slot, solution):
        self.trace.record(solution)

    def close(self, slot):
        self.closed = True


def run_push(plan, schedule, *inputs):
    op, context, log = fresh(plan, *inputs)
    trace = Trace(context)
    sched = ReplayScheduler(context)
    root = RootCollector(trace)
    compile_plan(sched, op, root, 0, Gate()).start(0.0)
    ended = object()
    stopped = False
    for name, run, kind in schedule:
        node, slot, stream = sched.producers[name, run]
        try:
            if kind == "row":
                node.push(slot, next(stream))
            else:
                assert next(stream, ended) is ended
                node.close(slot)
        except Done:  # what EventScheduler.run catches: LIMIT ended the run
            stopped = True
            break
    # Either LIMIT stopped the run or every producer ended and the close
    # cascade reached the root — never a schedule that just ran out.
    assert stopped or root.closed
    return trace.finish(), log


solutions = st.dictionaries(st.sampled_from(VARIABLES), st.sampled_from(TERMS))
stream = st.lists(solutions, max_size=7)
three_streams = st.tuples(stream, stream, stream)
three_layouts = st.tuples(*[st.sampled_from(LAYOUTS)] * 3)


def a(term, **rest):
    return {"a": TERMS[term], **{name: TERMS[t] for name, t in rest.items()}}


@pytest.mark.parametrize("plan", sorted(PLANS))
@given(streams=three_streams, layouts=three_layouts, capacity=st.integers(1, 3))
# The hand-written operator cases of test_operators.py, as inputs:
# duplicates multiply; a shared non-join variable that disagrees drops the
# pair; one side empty; a side that never binds the join variable.
@example(streams=([a(1), a(1)], [a(1, c=2), a(1, c=3)], []), layouts=LAYOUTS, capacity=2)
@example(streams=([a(1, b=2)], [a(1, b=3)], [a(1, b=2)]), layouts=LAYOUTS, capacity=1)
@example(streams=([a(1), a(2), a(3)], [], [a(1)]), layouts=LAYOUTS, capacity=3)
@example(
    streams=([{"b": TERMS[1]}, a(0), {}], [a(0), a(0, b=1)], [{"c": TERMS[2]}]),
    layouts=("wide", "chunks", "adapt"),
    capacity=1,
)
def test_three_drivers_one_charge_sequence(plan, streams, layouts, capacity):
    inputs = (streams, layouts, capacity)
    pulled, schedule = run_pull(plan, *inputs)
    batched, batch_log = run_batch(plan, *inputs)
    assert batched == pulled
    # The columnar loops alternate their inputs like the row drivers.
    assert batch_log == schedule
    if plan not in PULL_ONLY:
        pushed, push_log = run_push(plan, schedule, *inputs)
        assert pushed == pulled
        # It can only be *fed* in the pull order if every subtree started
        # when the pull driver started it; a LIMIT stop ends it early.
        assert push_log == schedule[: len(push_log)]


def test_every_operator_is_covered():
    import repro.federation.operators as operators

    covered = set()

    def walk(op):
        covered.add(type(op))
        for child in op.children():
            walk(child)

    log = []
    leaves = [Leaf(name, [], "adapt", 1, log) for name in "lrx"]
    for build in PLANS.values():
        walk(build(*leaves))
    concrete = {
        cls
        for cls in vars(operators).values()
        if isinstance(cls, type)
        and issubclass(cls, operators.FedOperator)
        and not cls.__name__.startswith("_")
        and cls is not operators.FedOperator
    }
    assert covered == concrete


class TestEarlyClose:
    """LIMIT above a join abandons the join mid-stream.

    The join's kernel is dropped, not finished: the inserts that arrived
    after its last output are never charged — under any driver — and an
    abandoned run publishes no partial script to the ``run_scripts`` memo.
    """

    #: Two answers reach LIMIT 1 (the second one stops the run); the
    #: non-joining tail of both sides is never pulled.
    LEFT = [a(1, b=0), a(1, b=1), a(2), a(3)]
    RIGHT = [a(1), a(0), a(0), a(0)]
    INPUTS = ((LEFT, RIGHT, []), ("chunks", "wide", "adapt"), 2)

    @staticmethod
    def limited(limit):
        return lambda l, r, x: Limit(
            SymmetricHashJoin(l.service(), r.service(), ("a",)), limit=limit
        )

    def test_no_driver_flushes_the_abandoned_tail(self):
        pulled, schedule = run_pull(self.limited(1), *self.INPUTS)
        pushed, __ = run_push(self.limited(1), schedule, *self.INPUTS)
        batched, __ = run_batch(self.limited(1), *self.INPUTS)
        assert pushed == pulled and batched == pulled
        answers, final = pulled
        assert len(answers) == 1
        # Stopped by the second join output: both sides still had input.
        assert ("l", 1, "end") not in schedule and ("r", 1, "end") not in schedule
        complete, __ = run_pull(self.limited(None), *self.INPUTS)
        assert float.fromhex(final[1]) < float.fromhex(complete[1][1])

    def test_no_partial_join_stream_is_published(self):
        # The join's stream is replayed as part of its run's script, which
        # only a run that ended publishes — LIMIT's Done included, a
        # consumer that walked away not.
        signatures = (("test-kernels", "l"), ("test-kernels", "r"), None)

        def streamed(limit, take=None):
            """(answers, final clock and engine cost) of the engine's run."""
            op, context, __ = fresh(self.limited(limit), *self.INPUTS, signatures)
            stream = iter(ResultStream(SimpleNamespace(root=op), context, own_clock=True))
            answers = list(islice(stream, take))
            stream.close()
            return answers, Trace(context).stamp()

        def published() -> int:
            return sum(type(run_scripts.get(key)) is RunScript for key in run_scripts.keys())

        clear_memos()
        full, __ = run_pull(self.limited(None), *self.INPUTS)
        first = ([full[0][0][0]], full[0][0][1:])  # the complete run, at its 1st answer
        limited, __ = run_pull(self.limited(1), *self.INPUTS)
        limited = ([solution for solution, *__ in limited[0]], limited[1])
        for __ in range(2):  # recorded, but abandoned: twice live
            assert streamed(None, take=1) == first
        assert published() == 0
        for __ in range(3):  # recorded to its Done, then replayed twice
            assert streamed(1) == limited
        assert published() == 1
        streamed(None)  # recorded: the next abandoned run replays
        assert streamed(None, take=1) == first
        assert published() == 2
        clear_memos()
