"""Run scripts: a finished sequential run, replayed by ``numpy.cumsum``.

A virtual clock only ever adds.  Under the sequential runtime the
operators' alternation is data-determined, and a source's charges are a
pure function of its block, cached or fetched; so a run's whole charge
sequence is fixed by its plan's data (the root's ``data_signature``), the
cost model and the batch size.  Only the delay draws depend on the seed.

A key's first run records that sequence, at about the cost of running
live, on a :class:`~repro.network.clock.RecordingClock`: every add with a
small int tag (one slot per delay draw), the answers, and the sub-result
lookups and publishes between them (:func:`record`).  Later runs
(:func:`replay`) yield the answers, re-issue each lookup and publish
through the wrapper at its place, and work the clock out as far as it is
read (:class:`_Timeline`).

Bit-identity rests on ``cumsum`` adding left to right, like the live
``+=`` chain, and on a tag's total being the ``cumsum`` of its
subsequence; ``np.sum`` adds pairwise and is *not* identical
(``tests/federation/test_run_script.py`` pins both).
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import Iterator

import numpy as np

from ..network.clock import RecordingClock
from .answers import ANSWER, LOOKUP, PUBLISH, REQUEST, SOURCE_COST, _DELAY_BLOCK
from .answers import RunContext, Solution, SourceStats
from .operators import FedOperator, ServiceNode


def script_key(root: FedOperator, context: RunContext) -> tuple | None:
    """The ``run_scripts`` key of running *root* under *context*, or None
    when the root cannot sign its data."""
    signature = root.data_signature(context)
    if signature is None:
        return None
    return (signature, context.cost_model, context.batch_size)


def _leaves(op: FedOperator) -> list[ServiceNode]:
    """*op*'s service leaves in preorder — what a script's ordinals address.
    Plans with equal root signatures have equal leaves at equal ordinals."""
    if isinstance(op, ServiceNode):
        return [op]
    return [leaf for child in op.children() for leaf in _leaves(child)]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _Charges:
    """A recorded run's clock adds, as read-only arrays.

    ``values`` is every add in order; the adds at ``slots`` are network
    messages, zero here, whose delays a replay draws afresh.  ``engine`` and
    each entry of ``sources`` (in first-request order) locate a tag's adds:
    fixed costs with their running totals, message delays with the requests
    among them.  The k-th answer comes after ``answer_positions[k]`` adds.
    """

    def __init__(self, adds: list, tags: list, bases: dict, answer_positions: list):
        # ``struct`` packs a list in one C loop, twice as fast as
        # ``np.array``'s per-element conversion.
        code = "h" if len(bases) < 10_000 else "q"
        tags = np.frombuffer(struct.pack(f"{len(tags)}{code}", *tags), code)
        messages = tags % 3
        self.slots = _frozen(np.flatnonzero(messages))
        # A message logged no duration: a replay fills its slot with a draw.
        values = np.zeros(len(tags))
        values[messages == 0] = np.frombuffer(struct.pack(f"{len(adds)}d", *adds))
        self.values = _frozen(values)
        # A stable int16 argsort is a radix sort: one pass groups every
        # tag's positions, ascending, in tag order.
        order = _frozen(np.argsort(tags, kind="stable"))
        ends = np.cumsum(np.bincount(tags, minlength=3 * len(bases) + 1))
        by_tag = np.split(order, ends[:-1])
        self.engine = self._costs(by_tag[0])
        #: (source_id, its costs, its delay positions, its request positions)
        self.sources = [
            (
                source_id,
                self._costs(by_tag[base + SOURCE_COST]),
                _frozen(np.sort(order[ends[base] : ends[base + ANSWER]])),
                by_tag[base + REQUEST],
            )
            for source_id, base in bases.items()
        ]
        self.answer_positions = _frozen(np.array(answer_positions, dtype=np.intp))
        # The message count and engine cost the live run shows at each
        # answer: seed-independent, so worked out once here.
        self.answer_messages = np.searchsorted(self.slots, self.answer_positions).tolist()
        engine_positions, engine_totals = self.engine
        self.answer_engine = np.concatenate(([0.0], engine_totals))[
            np.searchsorted(engine_positions, self.answer_positions)
        ].tolist()

    def _costs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fixed-cost positions and their running totals (seed-independent)."""
        return positions, _frozen(np.cumsum(self.values[positions]))


class RunScript:
    """One finished run, as values.

    ``answers`` are the answer dicts in order; ``events`` are ``(answers
    before it, event)``: a sub-result lookup ``(LOOKUP, leaf ordinal,
    request)``, or ``(PUBLISH, lookup number)`` where the run exhausted
    that leaf.  Requests are values (a restricted one carries its block's
    terms); no store, wrapper, plan or context is held.  The clock's logs
    become :class:`_Charges` on the first replay: most runs of an ad-hoc
    workload never come back.
    """

    def __init__(self, answers: list[dict], events: list[tuple], log: tuple):
        self.answers, self.events = answers, events
        self._log: tuple | None = log  # what builds the _Charges
        self._charges: _Charges | None = None

    def charges(self) -> _Charges:
        """Built once.  The log is read first: a concurrent first replay sets
        the arrays before it drops the log (both may build, equal values)."""
        log = self._log
        charges = self._charges
        if charges is None:
            charges = self._charges = _Charges(*log)
            self._log = None
        return charges


class _Timeline:
    """The clock of one replay, worked out as far as it has been read.

    Delay slots are drawn as far as an answer needs them, then a
    ``_DELAY_BLOCK`` or more at a time (``sample_array`` is pinned to the
    live run's ``sample_block`` refills whatever the block sizes), and the
    adds up to the next undrawn slot are one in-place ``cumsum`` starting
    from the clock the previous stretch reached: sequential addition, so
    the same floats as one ``cumsum`` over the whole run.  The first answer
    waits only for the draws before it.
    """

    def __init__(self, charges: _Charges, context: RunContext):
        self.charges, self.context = charges, context
        self.values = charges.values.copy()
        #: clock_at[i]: the clock after i adds (an engine-owned clock
        #: starts at 0); final up to ``reached``.
        self.clock_at = np.zeros(len(self.values) + 1)
        self.reached = self.drawn = 0
        self.block = 0  # the fewest slots the next stretch draws
        #: The clock at each answer within reach.
        self.answer_times: list[float] = []

    def reach(self, position: int, below: int) -> None:
        """Work the clock out through the first *position* adds, *below* of
        which are delay slots: draw those (at least a block of slots after
        the first stretch, which serves the first answer) and carry the
        clock up to the next undrawn slot."""
        charges, context = self.charges, self.context
        slots, values, clock_at = charges.slots, self.values, self.clock_at
        start, drawn = self.reached, self.drawn
        if start < position:
            count = min(max(below - drawn, self.block), len(slots) - drawn)
            self.block = _DELAY_BLOCK
            if count:
                draws = context.network.delay.sample_array(context.rng, count)
                overhead = context.cost_model.message_overhead
                values[slots[drawn : drawn + count]] = draws + overhead
                self.drawn = drawn = drawn + count
            end = int(slots[drawn]) if drawn < len(slots) else len(values)
            stretch = clock_at[start : end + 1]
            stretch[1:] = values[start:end]
            # add.accumulate is what np.cumsum runs (left to right), minus
            # its dispatch; add.reduce (np.sum) would be pairwise.
            np.add.accumulate(stretch, out=stretch)
            self.reached = end

    def reach_answer(self, answer: int) -> int:
        """Work the clock out through the *answer*-th answer (from 0);
        returns how many answers' clock values ``answer_times`` holds."""
        charges = self.charges
        positions = charges.answer_positions
        self.reach(int(positions[answer]), charges.answer_messages[answer])
        known = len(self.answer_times)
        within = int(np.searchsorted(positions, self.reached, "right"))
        self.answer_times.extend(self.clock_at[positions[known:within]].tolist())
        return within

    def settle(self, position: int) -> None:
        """Set the context's clock and counters to what the live run shows
        after its first *position* adds."""
        charges, stats = self.charges, self.context.stats

        def upto(positions: np.ndarray) -> int:
            return int(np.searchsorted(positions, position))

        def total(costs: tuple[np.ndarray, np.ndarray]) -> float:
            count = upto(costs[0])
            return float(costs[1][count - 1]) if count else 0.0

        stats.messages = messages = upto(charges.slots)
        self.reach(position, messages)
        self.context.clock._now = float(self.clock_at[position])
        stats.engine_cost = total(charges.engine)
        for source_id, costs, delays, requests in charges.sources:
            count = upto(delays)
            if not count:
                break  # sources are ordered by their first request
            sent = upto(requests)
            network = float(np.add.accumulate(self.values[delays[:count]])[-1])
            stats.source_stats[source_id] = SourceStats(
                sent, count - sent, total(costs), network
            )


def record(clock: RecordingClock, root: FedOperator) -> RunScript:
    """The script of the finished run *clock* recorded while running *root*:
    a lookup's wrapper becomes its leaf ordinal, a publish names its lookup
    by number."""
    ordinals: dict[int, int] = {}
    for ordinal, leaf in enumerate(_leaves(root)):
        ordinals.setdefault(id(leaf.wrapper), ordinal)
    lookups: dict[int, int] = {}
    events = []
    for answered, event in clock.events:
        if event[0] == LOOKUP:
            lookups[id(event)] = len(lookups)
            event = (LOOKUP, ordinals[id(event[1])], event[2])
        else:
            event = (PUBLISH, lookups[id(event[1])])
        events.append((answered, event))
    log = (clock.adds, clock.tags, clock.bases, clock.answer_positions)
    return RunScript(clock.answers, events, log)


def replay(
    script: RunScript, root: FedOperator, context: RunContext
) -> Iterator[Solution]:
    """Run *script* again under *context*: a fresh dict per answer and the
    lookups and publishes re-issued through *root*'s wrappers in order.
    At each answer the clock and the counters the live loop keeps current
    are set as it sets them; each source's counters are settled when the
    stream ends or is closed."""
    leaves = _leaves(root)
    charges = script.charges()
    timeline = _Timeline(charges, context)
    times = timeline.answer_times
    answers = script.answers
    answer_messages, answer_engine = charges.answer_messages, charges.answer_engine
    clock = context.clock
    stats = context.stats
    trace_append = stats.trace.append
    misses: list = []  # per lookup: (cache, key, fetched block), or None
    answered = ready = 0  # answers taken, answers within the clock's reach
    finished = False
    try:
        for before, event in chain(script.events, ((len(answers), None),)):
            while answered < before:
                if answered == ready:
                    ready = timeline.reach_answer(answered)
                now = times[answered]
                clock._now = now
                stats.messages = answer_messages[answered]
                stats.engine_cost = answer_engine[answered]
                answer = answers[answered]
                answered += 1
                stats.answers = answered
                if answered == 1:
                    stats.time_to_first_answer = now
                trace_append((now, answered))
                stats.execution_time = now
                yield answer.copy()  # the script's own dict never leaves it
            if event is None:
                break
            if event[0] == LOOKUP:
                __, ordinal, request = event
                wrapper = leaves[ordinal].wrapper
                subresults, key, block = wrapper._lookup(context, request)
                if subresults is not None and block is None:
                    block = wrapper._fetch(context, request)
                    misses.append((subresults, key, block))
                else:
                    misses.append(None)
            elif misses[event[1]] is not None:  # PUBLISH: the miss's block
                subresults, key, block = misses[event[1]]
                subresults.put(key, block)
        finished = True
    finally:
        if finished:
            position = len(charges.values)
        else:
            position = int(charges.answer_positions[answered - 1]) if answered else 0
        timeline.settle(position)
