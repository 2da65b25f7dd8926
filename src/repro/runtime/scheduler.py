"""Deterministic discrete-event scheduler with overlapping source delays.

The sequential runtime executes a plan as one pull-based iterator chain
over one shared clock, so two wrappers' network delays are *summed*.  This
scheduler instead runs every wrapper sub-query as a producer task on its
own virtual timeline and merges the answer streams on the engine timeline
by event time: a join's output timestamp becomes the *max* of its inputs'
availability plus engine work, so independent sources' delays genuinely
overlap.

Semantics (the invariants the tests pin down):

* **Rendezvous resume.**  A producer that yields a solution at local time
  ``t`` blocks until the engine consumes that event.  The engine picks the
  pending event with the smallest ``(time, producer id)``, advances its
  clock to ``max(engine now, t)``, runs the full push cascade (charging
  engine work to the engine clock), and then resumes the producer at the
  post-cascade engine time.  For a plan with a single producer this
  degenerates to exactly the sequential interleaving — single-source plans
  report bit-identical virtual times under both runtimes — while sibling
  producers overlap their delays.

* **Determinism.**  Each producer draws network delays from its own RNG
  substream derived from ``(run seed, task key)`` (see
  :mod:`repro.runtime.task`), events are ordered by ``(time, producer
  id)``, and producer ids are assigned in deterministic compile/spawn
  order — so the same seed yields bit-identical answer traces, run after
  run, in both simulated-only and thread-pool modes.

* **Thread-pool mode.**  Workers materialize complete wrapper streams
  under a private task context, recording each answer's *local* yield time;
  the scheduler replays those recordings as events, translating local
  times onto the engine timeline via the same rendezvous rule
  (``ready = resume_time + (t_local - previous_local)``).  Because charges
  are duration-only and RNG substreams are per-task, the resulting event
  timeline is bit-identical to simulated-only mode — threads buy wall-clock
  parallelism, never different answers or times.
"""

from __future__ import annotations

import itertools
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator

import numpy as np

from ..federation.answers import ExecutionStats, RunContext, Solution
from ..federation.operators import Done, FedOperator
from .nodes import SinkNode, compile_plan
from .task import TaskContext

#: The runtimes an engine can execute a plan under.  "sequential" is the
#: original pull-based iterator chain; "event" is this scheduler in
#: simulated-only mode; "thread" adds real wrapper parallelism on a pool.
RUNTIMES = ("sequential", "event", "thread")

#: Sentinel payload marking the end of a producer's stream.  Its event
#: time includes the producer's residual local work after its last answer.
_CLOSE = object()


class Gate:
    """A pause scope over a subtree's producer tasks.

    Dependent joins pause their outer subtree while an inner block runs.
    Gates form a tree mirroring the plan's nesting; pausing a gate pauses
    every producer registered at or below it.  Depth counters (not
    booleans) make nested dependent joins compose: a producer resumes only
    when *every* enclosing pause has been lifted.
    """

    __slots__ = ("producers", "children")

    def __init__(self, parent: "Gate | None" = None):
        self.producers: list[_ProducerBase] = []
        self.children: list[Gate] = []
        if parent is not None:
            parent.children.append(self)

    def pause(self) -> None:
        for producer in self.producers:
            producer.pause_depth += 1
        for child in self.children:
            child.pause()

    def unpause(self, sched: "EventScheduler") -> None:
        for producer in self.producers:
            producer.pause_depth -= 1
            if (
                producer.pause_depth == 0
                and producer.awaiting_resume
                and not producer.done
            ):
                producer.awaiting_resume = False
                producer.resume_at(sched.context.now())
                producer.needs_fetch = True
        for child in self.children:
            child.unpause(sched)


class _ProducerBase:
    """Common event-side state of a producer task."""

    def __init__(self, pid: int, node, slot: int):
        self.pid = pid
        self.node = node
        self.slot = slot
        #: The next undelivered event, as (time, payload), or None.
        self.pending: tuple[float, object] | None = None
        self.done = False
        self.pause_depth = 0
        #: True between delivering an event and granting the resume (the
        #: producer is at its rendezvous point, waiting for a resume time).
        self.awaiting_resume = False
        #: True when the producer may compute its next pending event.
        self.needs_fetch = True
        #: Observed runs only: the granted resume time the pending event's
        #: local segment started from, and the producer's cumulative
        #: (source virtual cost, network delay) at the yield.  Stale
        #: when observation is off — never read then.
        self._segment_start = 0.0
        self._mark = (0.0, 0.0)

    def fetch(self) -> None:
        raise NotImplementedError

    def resume_at(self, time: float) -> None:
        raise NotImplementedError

    def task_stats(self) -> ExecutionStats | None:
        raise NotImplementedError

    def abort(self) -> None:
        raise NotImplementedError


class LiveProducer(_ProducerBase):
    """Simulated-only producer: runs the wrapper generator lazily in-line.

    The generator advances exactly one yield per ``fetch``; its charges
    accrue on the task's private clock, and ``resume_at`` jumps that clock
    forward to the consumer's rendezvous time.
    """

    def __init__(
        self,
        pid: int,
        node,
        slot: int,
        runner: Callable[[RunContext], Iterator[Solution]],
        ctx: TaskContext,
    ):
        super().__init__(pid, node, slot)
        self.ctx = ctx
        self._gen = runner(ctx)

    def fetch(self) -> None:
        ctx = self.ctx
        observed = ctx.obs is not None
        if observed:
            # The generator is suspended at its rendezvous; its clock sits
            # exactly at the last granted resume (or the spawn start).
            self._segment_start = ctx.now()
        try:
            solution = next(self._gen)
        except StopIteration:
            self.pending = (ctx.now(), _CLOSE)
        else:
            self.pending = (ctx.now(), solution)
        if observed:
            self._mark = _transfer_mark(ctx.stats)

    def resume_at(self, time: float) -> None:
        self.ctx.clock.advance_to(time)

    def task_stats(self) -> ExecutionStats:
        return self.ctx.stats

    def abort(self) -> None:
        self._gen.close()


def _materialize(
    runner: Callable[[RunContext], Iterator[Solution]], ctx: TaskContext
) -> tuple[list[tuple[float, Solution]], float, ExecutionStats]:
    """Thread-pool worker body: drain one wrapper stream to completion.

    Runs entirely on the task's private context (clock starting at 0, own
    RNG substream, own stats), recording each answer's local yield time.
    """
    rows = [(ctx.now(), solution) for solution in runner(ctx)]
    return rows, ctx.now(), ctx.stats


def _transfer_mark(stats: ExecutionStats) -> tuple[float, float]:
    """Cumulative (source virtual cost, network delay) of one task's stats.

    A producer task serves exactly one wrapper sub-query, so the dict has
    a single entry; summing in insertion order keeps the (degenerate)
    multi-entry case deterministic too.
    """
    cache = 0.0
    network = 0.0
    for source in stats.source_stats.values():
        cache += source.virtual_cost
        network += source.network_delay
    return cache, network


def _materialize_observed(
    runner: Callable[[RunContext], Iterator[Solution]], ctx: TaskContext
) -> tuple[list[tuple[float, Solution]], float, ExecutionStats, list[tuple[float, float]]]:
    """Observed twin of :func:`_materialize`: also records, per yield, the
    task's cumulative (source cost, network delay) — plus one final mark
    for the close event — so :class:`PooledProducer` can replay the same
    per-delivery charge marks a :class:`LiveProducer` reads incrementally.
    The extra floats ride outside the row list; times, RNG draws and stats
    are untouched, keeping thread mode bit-identical to event mode.
    """
    rows = []
    marks = []
    for solution in runner(ctx):
        rows.append((ctx.now(), solution))
        marks.append(_transfer_mark(ctx.stats))
    marks.append(_transfer_mark(ctx.stats))
    return rows, ctx.now(), ctx.stats, marks


class PooledProducer(_ProducerBase):
    """Thread-pool producer: replays a worker's recorded stream as events.

    The recording holds *local* times on a clock that started at 0; each
    fetch translates the next local delta onto the engine timeline from
    the producer's last resume point, reproducing exactly the timestamps a
    :class:`LiveProducer` would compute.
    """

    def __init__(self, pid: int, node, slot: int, start: float, future):
        super().__init__(pid, node, slot)
        self._future = future
        self._resume = start
        self._last_local = 0.0
        self._cursor = 0
        self._rows: list[tuple[float, Solution]] | None = None
        self._end_local = 0.0
        self._stats: ExecutionStats | None = None
        self._marks: list[tuple[float, float]] | None = None

    def _ensure(self) -> None:
        if self._rows is None:
            result = self._future.result()
            if len(result) == 4:
                self._rows, self._end_local, self._stats, self._marks = result
            else:
                self._rows, self._end_local, self._stats = result

    def fetch(self) -> None:
        self._ensure()
        marks = self._marks
        if marks is not None:
            self._segment_start = self._resume
        if self._cursor < len(self._rows):
            t_local, solution = self._rows[self._cursor]
            if marks is not None:
                self._mark = marks[self._cursor]
            self._cursor += 1
            payload: object = solution
        else:
            t_local = self._end_local
            payload = _CLOSE
            if marks is not None:
                self._mark = marks[-1]
        ready = self._resume + (t_local - self._last_local)
        self._last_local = t_local
        self._resume = ready
        self.pending = (ready, payload)

    def resume_at(self, time: float) -> None:
        if time > self._resume:
            self._resume = time

    def task_stats(self) -> ExecutionStats | None:
        if self._stats is None:
            if self._future.cancelled():
                return None
            try:
                self._ensure()
            except Exception:
                # The worker's failure already surfaced through fetch() (or
                # the run was abandoned before consuming it); there are no
                # stats to fold in.
                return None
        return self._stats

    def abort(self) -> None:
        self._future.cancel()


class EventScheduler:
    """Runs one compiled plan to completion, yielding timed answers.

    ``run()`` yields ``(timestamp, solution)`` pairs in event order; the
    timestamp is the engine time at which the answer left the plan root
    (what the sequential runtime would observe at the equivalent yield).
    """

    def __init__(
        self,
        root: FedOperator,
        context: RunContext,
        *,
        pool_workers: int | None = None,
    ):
        self.context = context
        # With no run seed there is no stream to reproduce; draw fresh
        # entropy so distinct runs stay independent (mirroring default_rng).
        self.entropy = (
            context.seed
            if context.seed is not None
            else int(np.random.SeedSequence().entropy)
        )
        self._producers: list[_ProducerBase] = []
        self._next_pid = 0
        self._leaf_ids = itertools.count()
        self._outbox: deque[tuple[float, Solution]] = deque()
        self._runner_up: float | None = None
        self._pool = ThreadPoolExecutor(max_workers=pool_workers) if pool_workers else None
        self._sink = SinkNode(self)
        self._root_node = compile_plan(self, root, self._sink, 0, Gate())

    # -- plumbing used by the nodes -----------------------------------------

    def next_leaf_id(self) -> int:
        return next(self._leaf_ids)

    def emit(self, solution: Solution) -> None:
        self._outbox.append((self.context.now(), solution))

    def spawn(
        self,
        node,
        slot: int,
        runner: Callable[[RunContext], Iterator[Solution]],
        key: tuple[int, ...],
        start: float,
        gate: Gate,
    ) -> None:
        pid = self._next_pid
        self._next_pid += 1
        obs = self.context.obs
        if self._pool is None:
            ctx = TaskContext(self.context, self.entropy, key, start=start)
            producer: _ProducerBase = LiveProducer(pid, node, slot, runner, ctx)
        else:
            ctx = TaskContext(self.context, self.entropy, key, start=0.0)
            worker = _materialize if obs is None else _materialize_observed
            producer = PooledProducer(
                pid, node, slot, start, self._pool.submit(worker, runner, ctx)
            )
        if obs is not None:
            # The spawning node is a SourceNode — a plan leaf, or a dependent
            # join's inner leaf restarted for one block.
            op = node.service
            obs.causal.record_spawn(pid, key, op.source_id, op.label(), start, id(op))
        # A producer spawned inside a paused scope (e.g. an inner block of
        # a nested, currently-paused dependent join) inherits the scope's
        # current pause depth.
        producer.pause_depth = self._gate_depth(gate)
        self._producers.append(producer)
        gate.producers.append(producer)

    @staticmethod
    def _gate_depth(gate: Gate) -> int:
        # All producers of one gate share a pause depth; read it off any
        # sibling, or default to 0 for a fresh scope.
        for producer in gate.producers:
            return producer.pause_depth
        return 0

    # -- the event loop ------------------------------------------------------

    def run(self) -> Iterator[tuple[float, Solution]]:
        obs = self.context.obs
        recorder = obs.causal if obs is not None else None
        try:
            self._root_node.start(self.context.now())
            clock = self.context.clock
            stopped = False
            while not (self._sink.closed or stopped):
                producer = self._next_deliverable()
                if producer is None:  # pragma: no cover - defensive
                    raise RuntimeError("event scheduler stalled: no deliverable event")
                time, payload = producer.pending
                producer.pending = None
                if recorder is not None:
                    mark = producer._mark
                    recorder.record_delivery(
                        producer.pid,
                        "close" if payload is _CLOSE else "answer",
                        time,
                        self.context.now(),
                        producer._segment_start,
                        mark[0],
                        mark[1],
                        self._runner_up,
                    )
                clock.advance_to(time)
                try:
                    if payload is _CLOSE:
                        producer.done = True
                        stats = producer.task_stats()
                        if stats is not None:
                            self.context.stats.absorb_transfer(stats)
                        producer.node.close(producer.slot)
                    else:
                        producer.node.push(producer.slot, payload)
                        producer.awaiting_resume = True
                except Done:
                    # A kernel ended the run (LIMIT): the cascade is abandoned
                    # where it stood, as a closed pull chain would be.
                    stopped = True
                if (
                    producer.awaiting_resume
                    and not producer.done
                    and producer.pause_depth == 0
                ):
                    producer.awaiting_resume = False
                    producer.resume_at(self.context.now())
                    producer.needs_fetch = True
                while self._outbox:
                    yield self._outbox.popleft()
        finally:
            self._shutdown()

    def _next_deliverable(self) -> _ProducerBase | None:
        best: _ProducerBase | None = None
        best_key: tuple[float, int] | None = None
        runner_up: tuple[float, int] | None = None
        track = self.context.obs is not None
        for producer in self._producers:
            if producer.done or producer.pause_depth:
                continue
            if producer.needs_fetch:
                producer.fetch()
                producer.needs_fetch = False
            if producer.pending is None:
                continue
            key = (producer.pending[0], producer.pid)
            if best_key is None or key < best_key:
                if track:
                    runner_up = best_key
                best, best_key = producer, key
            elif track and (runner_up is None or key < runner_up):
                runner_up = key
        if track:
            # Second-best pending time: the critical-path slack analysis
            # reads how much earlier the winner could have been without
            # changing which event was delivered next.
            self._runner_up = runner_up[0] if runner_up is not None else None
        return best

    def _shutdown(self) -> None:
        # Abandoned producers (LIMIT satisfied, consumer walked away) still
        # fold the transfer work they actually performed into the run stats;
        # iteration in pid order keeps the merge deterministic.
        for producer in self._producers:
            if not producer.done:
                producer.abort()
                stats = producer.task_stats()
                if stats is not None:
                    self.context.stats.absorb_transfer(stats)
                producer.done = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
