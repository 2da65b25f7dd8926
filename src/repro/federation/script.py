"""Run scripts: a finished sequential run, replayed by ``numpy.cumsum``.

A virtual clock only ever adds.  Under the sequential runtime the
operators' alternation is data-determined, and a source's charges are a
pure function of its block, cached or fetched; so a run's whole charge
sequence is fixed by its plan's data (the root's ``data_signature``), the
cost model and the batch size.  Only the delay draws depend on the seed.

A key's second run (the first only marks it :data:`SIGHTED`) records that
sequence on a :class:`~repro.network.clock.RecordingClock` — every add,
source charges tagged ``(source, kind)``, one slot per delay draw — with
the answers and the sub-result lookups and publishes between the adds
(:func:`record`).  Later runs (:func:`replay`) yield the answers,
re-issue each lookup and publish through the wrapper at its place, and
work the clock out as far as it is read (:class:`_Timeline`).

Bit-identity rests on ``cumsum`` adding left to right, like the live
``+=`` chain, and on a tag's total being the ``cumsum`` of its
subsequence; ``np.sum`` adds pairwise and is *not* identical
(``tests/federation/test_run_script.py`` pins both).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..network.clock import RecordingClock
from .answers import ANSWER, LOOKUP, PUBLISH, REQUEST, SOURCE_COST, _DELAY_BLOCK
from .answers import RunContext, Solution, SourceStats
from .operators import FedOperator, ServiceNode


#: The ``run_scripts`` value of a key run once: its next run records.
SIGHTED = "sighted"


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


def _positions_by_tag(tags: list) -> dict:
    """Each distinct tag's add positions, ascending, in first-seen order."""
    codes: dict = {}
    code_of = np.fromiter(
        (codes.setdefault(tag, len(codes)) for tag in tags), np.intp, len(tags)
    )
    order = _frozen(np.argsort(code_of, kind="stable"))
    ends = np.cumsum(np.bincount(code_of, minlength=len(codes)))
    return dict(zip(codes, np.split(order, ends[:-1])))


class RunScript:
    """One finished run, as read-only arrays and values.

    ``values`` is every clock add in order; the adds at ``slots`` are
    network messages, whose recorded delay a replay replaces with a fresh
    draw.  ``engine`` and each entry of ``sources`` (in the order the
    sources were first requested) locate a tag's adds: fixed costs with
    their running totals, message delays with the requests among them.
    ``events`` are what happened between the adds, the i-th after
    ``positions[i]`` of them: an answer (its dict), a sub-result lookup
    ``(LOOKUP, leaf ordinal, request)``, and ``(PUBLISH, lookup number)``
    where the run exhausted that leaf.  Requests are values (a restricted
    one carries its block's terms); no store, wrapper, plan or context is
    held.
    """

    def __init__(self, adds: list, tags: list, events: list, positions: list):
        self.values = _frozen(np.array(adds, dtype=np.float64))
        by_tag = _positions_by_tag(tags)
        none = _frozen(np.empty(0, np.intp))
        self.engine = self._costs(by_tag.get(None, none))
        #: (source_id, its costs, its delay positions, its request positions)
        self.sources = [
            (
                tag[0],
                self._costs(by_tag.get((tag[0], SOURCE_COST), none)),
                _frozen(np.union1d(requests, by_tag.get((tag[0], ANSWER), none))),
                requests,
            )
            for tag, requests in by_tag.items()
            if tag is not None and tag[1] == REQUEST
        ]
        self.slots = _frozen(
            np.sort(np.concatenate([none] + [source[2] for source in self.sources]))
        )
        self.events = events
        self.positions = _frozen(np.array(positions, dtype=np.intp))
        answers = np.array([type(event) is dict for event in events], dtype=bool)
        self.answer_positions = _frozen(self.positions[answers])
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

    def __init__(self, script: RunScript, context: RunContext):
        self.script, self.context = script, context
        self.values = script.values.copy()
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
        script, context = self.script, self.context
        slots, values, clock_at = script.slots, self.values, self.clock_at
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
        script = self.script
        positions = script.answer_positions
        self.reach(int(positions[answer]), script.answer_messages[answer])
        known = len(self.answer_times)
        within = int(np.searchsorted(positions, self.reached, "right"))
        self.answer_times.extend(self.clock_at[positions[known:within]].tolist())
        return within

    def settle(self, position: int) -> None:
        """Set the context's clock and counters to what the live run shows
        after its first *position* adds."""
        script, stats = self.script, self.context.stats

        def upto(positions: np.ndarray) -> int:
            return int(np.searchsorted(positions, position))

        def total(costs: tuple[np.ndarray, np.ndarray]) -> float:
            count = upto(costs[0])
            return float(costs[1][count - 1]) if count else 0.0

        stats.messages = messages = upto(script.slots)
        self.reach(position, messages)
        self.context.clock._now = float(self.clock_at[position])
        stats.engine_cost = total(script.engine)
        for source_id, costs, delays, requests in script.sources:
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
    the marks' wrappers become leaf ordinals, a publish names its lookup by
    number."""
    ordinals: dict[int, int] = {}
    for ordinal, leaf in enumerate(_leaves(root)):
        ordinals.setdefault(id(leaf.wrapper), ordinal)
    lookups: dict[int, int] = {}
    positions = []
    events = []
    for position, event in clock.marks:
        if type(event) is tuple:
            if event[0] == LOOKUP:
                lookups[id(event)] = len(lookups)
                event = (LOOKUP, ordinals[id(event[1])], event[2])
            else:
                event = (PUBLISH, lookups[id(event[1])])
        positions.append(position)
        events.append(event)
    return RunScript(clock.adds, clock.tags, events, positions)


def replay(
    script: RunScript, root: FedOperator, context: RunContext
) -> Iterator[Solution]:
    """Run *script* again under *context*: a fresh dict per answer and the
    lookups and publishes re-issued through *root*'s wrappers in order.
    At each answer the clock and the counters the live loop keeps current
    are set as it sets them; each source's counters are settled when the
    stream ends or is closed."""
    leaves = _leaves(root)
    timeline = _Timeline(script, context)
    times = timeline.answer_times
    answer_messages, answer_engine = script.answer_messages, script.answer_engine
    clock = context.clock
    stats = context.stats
    trace_append = stats.trace.append
    misses: list = []  # per lookup: (cache, key, fetched block), or None
    index = -1  # the last event reached
    answered = ready = 0  # answers taken, answers within the clock's reach
    finished = False
    try:
        for index, event in enumerate(script.events):
            if type(event) is dict:
                if answered == ready:
                    ready = timeline.reach_answer(answered)
                now = times[answered]
                clock._now = now
                stats.messages = answer_messages[answered]
                stats.engine_cost = answer_engine[answered]
                answered += 1
                stats.answers = answered
                if answered == 1:
                    stats.time_to_first_answer = now
                trace_append((now, answered))
                stats.execution_time = now
                yield event.copy()  # the script's own dict never leaves it
            elif event[0] == LOOKUP:
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
            position = len(script.values)
        else:
            position = int(script.positions[index]) if index >= 0 else 0
        timeline.settle(position)
