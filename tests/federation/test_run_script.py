"""Run scripts: a replayed run is the live run, bit for bit.

A repeated sequential batch run is replayed from its recorded charge script
(``repro.federation.script``): ``sample_block`` draws the delays a block at
a time, in-place ``numpy.cumsum`` stretches carry the clock, a tag's totals
are the ``cumsum`` of its subsequence.  This suite proves that arithmetic
first, then holds every replay against a live row run at the same seed —
answers in order, every ``ExecutionStats`` field as ``float.hex``, the
sub-result cache's keys in order, what a consumer reads after each answer —
including streams closed early.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.core.engine as engine_module
import repro.federation.operators as operators
import repro.federation.script as script_module
from repro import FederatedEngine, NetworkSetting, PlanPolicy
from repro.cache import clear_memos, memo_stats
from repro.datasets import BENCHMARK_QUERIES
from repro.federation.operators import (
    DependentJoin,
    Distinct,
    FedOperator,
    LeftJoin,
    Limit,
    OrderBy,
    Project,
    SymmetricHashJoin,
)
from repro.federation.script import _leaves
from repro.network.clock import RecordingClock
from repro.network.costmodel import DEFAULT_COST_MODEL
from repro.network.delays import GammaDelay
from repro.rdf import Variable
from repro.sparql.algebra import OrderCondition, VariableExpr

QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Fig1")
POLICIES = {
    "aware": PlanPolicy.physical_design_aware,
    "unaware": PlanPolicy.physical_design_unaware,
    # One request per outer block: a source requested again and again.
    "dependent": PlanPolicy.dependent_join,
}
NETWORKS = {
    "nodelay": NetworkSetting.no_delay,
    "gamma1": NetworkSetting.gamma1,
    "gamma2": NetworkSetting.gamma2,
    "gamma3": NetworkSetting.gamma3,
}
#: The seed a script is recorded at, and the seeds it is replayed at.
RECORD_SEED, REPLAY_SEEDS = 7, (8, 9)


def hexes(values) -> list[str]:
    return [float(value).hex() for value in values]


def chain(values, start=0.0) -> list[float]:
    """The live clock: one ``+=`` per add."""
    now, out = start, []
    for value in values:
        now += value
        out.append(now)
    return out


# -- the arithmetic ------------------------------------------------------------

delays = st.floats(min_value=0.0, max_value=1e3, allow_nan=False, allow_infinity=False)


@given(
    pattern=st.lists(delays, min_size=1, max_size=40),
    repeat=st.integers(1, 60),
    carry=delays,
)
def test_cumsum_is_the_add_chain(pattern, repeat, carry):
    values = pattern * repeat  # long enough to span several segments
    expected = hexes(chain(values, carry))
    # One shot: the carry is the first element's left operand.
    assert hexes(np.cumsum([carry, *values])[1:]) == expected
    # In _DELAY_BLOCK-sized stretches, each an in-place add.accumulate (the
    # cumsum kernel) starting from the clock the last one reached, as a
    # replay's timeline works it out.
    clock_at = np.empty(len(values) + 1)
    clock_at[0] = carry
    for start in range(0, len(values), 512):
        end = min(start + 512, len(values))
        stretch = clock_at[start : end + 1]
        stretch[1:] = values[start:end]
        np.add.accumulate(stretch, out=stretch)
    assert hexes(clock_at[1:]) == expected


@given(
    tagged=st.lists(st.tuples(delays, st.integers(0, 3)), min_size=1, max_size=40),
    repeat=st.integers(1, 30),
)
def test_a_tags_cumsum_is_its_accumulator(tagged, repeat):
    tagged = tagged * repeat
    values = np.array([value for value, __ in tagged])
    tags = np.array([tag for __, tag in tagged])
    totals = [0.0] * 4
    for value, tag in tagged:
        totals[tag] += value
    for tag in set(tags.tolist()):
        assert float(np.cumsum(values[tags == tag])[-1]).hex() == totals[tag].hex()


def test_pairwise_sum_is_not_the_add_chain():
    # np.sum / np.add.reduce add pairwise: over 10 000 gamma delays they
    # miss the += chain in the last bits, where cumsum does not.  Never
    # "simplify" a script's totals to them.
    draws = GammaDelay(alpha=3.0, beta_ms=1.0).sample_block(
        np.random.default_rng(7), 10_000
    )
    pauses = np.add(draws, DEFAULT_COST_MODEL.message_overhead)
    live = chain(pauses.tolist())[-1].hex()
    assert float(np.cumsum(pauses)[-1]).hex() == live
    assert float(np.sum(pauses)).hex() != live
    assert float(np.add.reduce(pauses)).hex() != live


# -- signatures ----------------------------------------------------------------


def test_every_operator_signs_itself():
    concrete = [
        cls
        for cls in vars(operators).values()
        if isinstance(cls, type)
        and issubclass(cls, FedOperator)
        and cls is not FedOperator
        and not cls.__name__.startswith("_")
    ]
    assert len(concrete) >= 10  # the scan found the operators
    unsigned = [cls.__name__ for cls in concrete if "data_signature" not in vars(cls)]
    assert unsigned == []


def test_plans_differing_in_one_parameter_never_share_a_signature(small_lslod_lake):
    engine = FederatedEngine(small_lslod_lake, policy=PlanPolicy.physical_design_unaware())
    plan = engine.plan(BENCHMARK_QUERIES["Q2"].text)
    left, right = _leaves(plan.root)
    join = plan.root.child
    names = plan.root.variables
    variable = join.join_variables[0]

    def order(ascending):
        return OrderBy(join, [OrderCondition(VariableExpr(Variable(variable)), ascending)])

    table = {
        "plan": plan.root,
        "limit 5": Limit(plan.root, limit=5),
        "limit 6": Limit(plan.root, limit=6),
        "limit 5 offset 1": Limit(plan.root, limit=5, offset=1),
        "offset 1": Limit(plan.root, offset=1),
        "order asc": order(True),
        "order desc": order(False),
        "distinct": Distinct(plan.root),
        "fewer projected": Project(join, names[:-1]),
        "reordered projection": Project(join, names[::-1]),
        "join": join,
        "optional": LeftJoin(left, right, join.join_variables),
        "swapped join": SymmetricHashJoin(right, left, join.join_variables),
        "block 50": DependentJoin(left, right, variable, block_size=50),
        "block 10": DependentJoin(left, right, variable, block_size=10),
    }
    context = engine.execute(BENCHMARK_QUERIES["Q2"].text).context
    signatures = {name: op.data_signature(context) for name, op in table.items()}
    assert None not in signatures.values()
    by_signature = {}
    for name, signature in signatures.items():
        assert signature not in by_signature, (name, by_signature.get(signature))
        by_signature[signature] = name


# -- replay against the live row plane ------------------------------------------


@pytest.fixture
def replays(monkeypatch):
    """Clear the process memos, then count the runs the engine replayed."""
    clear_memos()
    calls = []
    real = engine_module.replay

    def counted(script, root, context):
        calls.append(root)
        return real(script, root, context)

    monkeypatch.setattr(engine_module, "replay", counted)
    yield calls
    clear_memos()


def observed(stream) -> tuple:
    """What a consumer can see of a run: every ``ExecutionStats`` field (as
    ``float.hex``, sources in insertion order), the clock and the engine's
    sub-result cache keys in LRU order."""
    stats = stream.stats
    ttfa = stats.time_to_first_answer
    return (
        stats.answers,
        stats.execution_time.hex(),
        None if ttfa is None else ttfa.hex(),
        [(when.hex(), count) for when, count in stats.trace],
        stats.messages,
        stats.engine_cost.hex(),
        [
            (sid, s.requests, s.answers, s.virtual_cost.hex(), s.network_delay.hex())
            for sid, s in stats.source_stats.items()
        ],
        stats.plan_cache_hit,
        stats.subresult_cache_hits,
        stats.subresult_cache_misses,
        stream.context.now().hex(),
    )


def run(engine, text, seed, take=None) -> tuple:
    """Run *text*; with *take*, close the stream after that many answers."""
    stream = engine.execute(text, seed=seed)
    iterator = iter(stream)
    answers = list(islice(iterator, take))
    iterator.close()
    return answers, observed(stream), list(engine.caches.subresults.keys())


def engines(lake, policy="aware", network="gamma2"):
    """A batch engine and the live row engine it must match."""
    settings = {"policy": POLICIES[policy](), "network": NETWORKS[network]()}
    return (
        FederatedEngine(lake, exec="batch", **settings),
        FederatedEngine(lake, exec="row", **settings),
    )


def same_runs(batch, row, text, seeds, take=None) -> list:
    """Run *seeds* on both engines (the last one closed after *take*);
    returns the last run's answers."""
    for position, seed in enumerate(seeds):
        limit = take if position == len(seeds) - 1 else None
        outcome = run(batch, text, seed, limit)
        assert outcome == run(row, text, seed, limit), seed
    return outcome[0]


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("query", QUERIES)
def test_replays_match_live_row_runs(small_lslod_lake, replays, query, policy):
    text = BENCHMARK_QUERIES[query].text
    for network in NETWORKS:
        clear_memos()
        batch, row = engines(small_lslod_lake, policy, network)
        before = len(replays)
        # The first run records, the rest (its own seed again too) replay.
        same_runs(batch, row, text, (RECORD_SEED, RECORD_SEED, *REPLAY_SEEDS))
        assert len(replays) - before == 1 + len(REPLAY_SEEDS), network


@pytest.mark.parametrize("policy", ("aware", "dependent"))
@pytest.mark.parametrize("query", ("Q1", "Q3", "Fig1"))
def test_a_replay_closed_early_shows_the_live_prefix(
    small_lslod_lake, replays, query, policy
):
    text = BENCHMARK_QUERIES[query].text
    batch, row = engines(small_lslod_lake, policy)
    total = len(same_runs(batch, row, text, (RECORD_SEED, RECORD_SEED)))
    for take in (0, 1, total // 2):
        same_runs(batch, row, text, (REPLAY_SEEDS[0],), take)
    # The second run replays; closing after 0 answers never starts the
    # stream, 1 and n/2 replay.
    assert len(replays) == 3


def at_each_answer(engine, text, seed) -> list:
    """What the consumer of *text* sees after each answer it takes: the
    counters the live loop keeps current, the clock and the answer."""
    stream = engine.execute(text, seed=seed)
    seen = []
    for answer in stream:
        stats = stream.stats
        when, count = stats.trace[-1]
        seen.append(
            (
                answer,
                stats.answers,
                count,
                when.hex(),
                stats.execution_time.hex(),
                stats.time_to_first_answer.hex(),
                stats.messages,
                stats.engine_cost.hex(),
                stats.subresult_cache_hits,
                stats.subresult_cache_misses,
                stream.context.now().hex(),
            )
        )
    return seen


@pytest.mark.parametrize("block", (script_module._DELAY_BLOCK, 7))
@pytest.mark.parametrize("policy", ("aware", "dependent"))
@pytest.mark.parametrize("query", ("Q1", "Q3", "Fig1"))
def test_a_replay_is_current_at_every_answer(
    small_lslod_lake, replays, monkeypatch, query, policy, block
):
    # A replay draws its delays a block at a time as its answers are read;
    # a 7-slot block puts many stretch boundaries inside every run.
    monkeypatch.setattr(script_module, "_DELAY_BLOCK", block)
    text = BENCHMARK_QUERIES[query].text
    batch, row = engines(small_lslod_lake, policy)
    same_runs(batch, row, text, (RECORD_SEED, RECORD_SEED))
    for seed in REPLAY_SEEDS:
        replayed = at_each_answer(batch, text, seed)
        assert replayed == at_each_answer(row, text, seed), seed
    assert len(replays) == 1 + len(REPLAY_SEEDS)


def test_an_abandoned_recording_is_never_published(small_lslod_lake, replays):
    text = BENCHMARK_QUERIES["Q3"].text
    batch, row = engines(small_lslod_lake)
    total = len(engines(small_lslod_lake)[1].run(text, seed=RECORD_SEED)[0])
    for take in (0, 1, total // 2):  # each a first run: records, abandoned
        same_runs(batch, row, text, (RECORD_SEED,), take)
        assert memo_stats()["run_scripts"].size == 0, take
    same_runs(batch, row, text, (RECORD_SEED,))  # records again, publishes
    assert replays == [] and memo_stats()["run_scripts"].size == 1
    same_runs(batch, row, text, REPLAY_SEEDS)
    assert len(replays) == 2


def test_a_dependent_join_replays_a_cleared_subresult_cache(small_lslod_lake, replays):
    # Every block is a miss on replay: each lookup fetches, and the block is
    # published where the recorded run exhausted its leaf.
    policy = PlanPolicy.dependent_join
    settings = {"policy": policy(), "network": NetworkSetting.gamma1()}
    batch = FederatedEngine(small_lslod_lake, exec="batch", **settings)
    row = FederatedEngine(small_lslod_lake, exec="row", **settings)
    text = BENCHMARK_QUERIES["Q3"].text
    for engine in (batch, row):  # (planned, and cached, alike)
        assert "DependentJoin" in engine.explain(text)
    same_runs(batch, row, text, (RECORD_SEED, RECORD_SEED))
    for engine in (batch, row):
        engine.caches.subresults.clear()
    outcome = run(batch, text, REPLAY_SEEDS[0])
    assert outcome == run(row, text, REPLAY_SEEDS[0])
    __, stats, keys = outcome
    hits, misses = stats[-3:-1]
    assert misses > 1 and len(keys) == misses  # every fetched block published
    assert len(replays) == 2  # the second run, and this one


def test_a_limit_over_a_join_replays_its_truncated_run(small_lslod_lake, replays):
    text = BENCHMARK_QUERIES["Q2"].text.rstrip() + "\nLIMIT 5"
    batch, row = engines(small_lslod_lake, "unaware")
    for engine in (batch, row):
        explained = engine.explain(text)
        assert "Limit" in explained and "SymmetricHashJoin" in explained
    before = memo_stats()["run_scripts"]
    same_runs(batch, row, text, (RECORD_SEED, RECORD_SEED, *REPLAY_SEEDS))
    same_runs(batch, row, text, (RECORD_SEED,), take=2)
    after = memo_stats()["run_scripts"]
    # The recording run misses; the four runs after it replay.
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 4)
    assert len(replays) == 4


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("query", ("Q1", "Q3", "Fig1"))
def test_a_recording_logs_source_charges_inline(
    small_lslod_lake, replays, monkeypatch, query, policy
):
    # Recording costs about what running live does because the source
    # charges log straight into the clock's lists, never through a call.
    callers = Counter()
    sleep = RecordingClock.sleep

    def counted(self, seconds):
        callers[sys._getframe(1).f_code.co_name] += 1
        sleep(self, seconds)

    monkeypatch.setattr(RecordingClock, "sleep", counted)
    batch, row = engines(small_lslod_lake, policy)
    same_runs(batch, row, BENCHMARK_QUERIES[query].text, (RECORD_SEED,))
    assert memo_stats()["run_scripts"].size == 1  # the run recorded
    assert callers["_charge"] == callers["charge_request"] == 0, callers
