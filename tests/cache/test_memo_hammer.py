"""Every cache of the process under eight threads: one lock discipline.

The engine's process-wide memos (``repro.cache.memos``) are shared by the
worker threads of an ``EnginePool``.  Before they moved onto the locked
``LRUCache`` two of them raced: the translation memo's unlocked
``move_to_end`` / ``popitem`` pair raised ``KeyError`` once eviction kicked
in (``test_translation_memo_survives_eviction_under_threads`` reproduces
exactly that access pattern), and a memo was cleared under readers.  The invariants asserted here: exact answers, no exception, and
on every region ``hits + misses`` equals the number of lookups actually
performed — counted outside the caches — so a lost counter update shows.
"""

from __future__ import annotations

import asyncio
import sys
import threading
from collections import Counter

import pytest

import repro.core.engine as engine_module
from repro.benchmark.baseline import NETWORK_CHOICES, POLICY_CHOICES
from repro.cache import LRUCache, clear_memos, memo_stats, memos
from repro.core import decompose_star_shaped
from repro.core.engine import FederatedEngine
from repro.datasets import BENCHMARK_QUERIES
from repro.mapping import normalize_graph, translate_stars
from repro.rdf import IRI
from repro.service import EnginePool, ServiceConfig
from repro.service.config import TenantConfig
from repro.service.server import QueryService, serialize_answers
from repro.rdf.terms import Literal, Variable
from repro.sparql import parse_query
from repro.sparql.algebra import BinaryOp, TermExpr, VariableExpr
from repro.sparql.expressions import compile_holds

from ..conftest import TINY_DISEASOME, make_tiny_graph

THREADS = 8
RUN_SEED = 7
JOIN_TIMEOUT = 120.0


@pytest.fixture
def fast_switching():
    """Preempt threads every few bytecodes so races have a chance to show."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


@pytest.fixture
def counted_lookups(monkeypatch):
    """Count ``LRUCache.get`` calls per cache instance, outside the caches."""
    calls: Counter = Counter()
    lock = threading.Lock()
    original = LRUCache.get

    def counting_get(self, key):
        with lock:
            calls[id(self)] += 1
        return original(self, key)

    monkeypatch.setattr(LRUCache, "get", counting_get)
    return calls


def run_threads(worker) -> list[str]:
    """Run ``worker(index)`` on THREADS threads; the exceptions they raised."""
    errors: list[str] = []
    barrier = threading.Barrier(THREADS)

    def guarded(index: int) -> None:
        try:
            barrier.wait(timeout=JOIN_TIMEOUT)
            worker(index)
        except Exception as exc:  # reported by the assertion below
            errors.append(f"worker {index}: {exc!r}")

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "a worker hung"
    return errors


def region_caches() -> dict[str, list[LRUCache]]:
    """The live ``LRUCache`` instances behind every named memo region."""
    return {
        name: region.regions() if isinstance(region, memos.StoreMemo) else [region]
        for name, region in memos.REGIONS.items()
    }


def lookups_by_region() -> dict[str, int]:
    return {name: stats.lookups for name, stats in memo_stats().items()}


def test_translation_memo_survives_eviction_under_threads(fast_switching):
    # 320 structurally distinct stars against a 256-entry memo: every thread
    # keeps hitting entries another thread is evicting.  At the parent
    # commit this dies with KeyError from OrderedDict.move_to_end.
    __, mapping, __ = normalize_graph("tiny", make_tiny_graph(TINY_DISEASOME))
    gene = mapping.class_mapping(IRI("http://ex/vocab#Gene"))
    stars = [
        decompose_star_shaped(
            parse_query(
                "PREFIX v: <http://ex/vocab#>\n"
                'SELECT * WHERE { ?g a v:Gene ; v:geneSymbol "S%d" . }' % i
            )
        ).subqueries[0]
        for i in range(memos.TRANSLATION_CAPACITY + 64)
    ]
    expected = [translate_stars([(star, gene)]).sql for star in stars]
    rounds = 6
    before = memo_stats()["translations"]

    def worker(index: int) -> None:
        for step in range(rounds * len(stars)):
            position = (step * 7 + index * 41) % len(stars)
            assert translate_stars([(stars[position], gene)]).sql == expected[position]

    assert run_threads(worker) == []
    after = memo_stats()["translations"]
    assert after.lookups - before.lookups == THREADS * rounds * len(stars)
    assert after.size <= memos.TRANSLATION_CAPACITY
    assert after.evictions > before.evictions


def test_compiled_holds_memo_under_threads(fast_switching):
    expressions = [
        BinaryOp("<", VariableExpr(Variable("x")), TermExpr(Literal(str(i))))
        for i in range(memos.COMPILED_HOLDS_CAPACITY + 64)
    ]
    before = memo_stats()["compiled_holds"]

    def worker(index: int) -> None:
        for step in range(4 * len(expressions)):
            compile_holds(expressions[(step * 5 + index * 29) % len(expressions)])

    assert run_threads(worker) == []
    after = memo_stats()["compiled_holds"]
    assert after.lookups - before.lookups == THREADS * 4 * len(expressions)
    assert after.size <= memos.COMPILED_HOLDS_CAPACITY


def test_pool_hammers_every_memo_region(
    small_lslod_lake, fast_switching, counted_lookups, monkeypatch
):
    # Row and batch engines of one pool (shared plan/sub-result registry),
    # Q1-Q5 + Fig1 between them touch every memo region (probed: sql_blocks,
    # star_columns, run_scripts, translations, term_decoders,
    # compiled_holds all see lookups under exec="batch").  Batch runs of a
    # plan seen before record and replay run scripts across the threads.
    queries = list(BENCHMARK_QUERIES)
    policy, network = POLICY_CHOICES["aware"](), NETWORK_CHOICES["gamma1"]()

    def outcome(answers, stats) -> tuple:
        return serialize_answers(answers), stats.execution_time

    expected = {
        (name, exec): outcome(
            *FederatedEngine(
                small_lslod_lake, policy=policy, network=network, exec=exec
            ).run(BENCHMARK_QUERIES[name].text, seed=RUN_SEED)
        )
        for name in queries
        for exec in ("row", "batch")
    }
    clear_memos()  # the threads race to fill the regions, not just to read
    # A two-entry sub-result cache keeps evicting, so batch runs keep
    # fetching through the memos instead of replaying cached blocks.
    pool = EnginePool(
        small_lslod_lake,
        size=4,
        policy=policy,
        network=network,
        exec="batch",
        subresult_cache_size=2,
    )
    # The reference runs above created the per-store regions; from here on
    # the set of LRUCache instances behind every region is fixed.
    caches = region_caches()
    replayed = []
    replay = engine_module.replay
    monkeypatch.setattr(
        engine_module, "replay", lambda *args: replayed.append(1) or replay(*args)
    )
    counted_lookups.clear()
    before = lookups_by_region()
    failures: list[str] = []
    rounds = 6

    def worker(index: int) -> None:
        for step in range(rounds):
            name = queries[(index + step) % len(queries)]
            exec = ("row", "batch")[(index + step // 2) % 2]
            engine = pool.checkout(timeout=JOIN_TIMEOUT)
            try:
                answers, stats = engine.run(
                    BENCHMARK_QUERIES[name].text, seed=RUN_SEED, exec=exec
                )
            finally:
                pool.checkin(engine)
            if outcome(answers, stats) != expected[(name, exec)]:
                failures.append(f"worker {index} step {step}: {name}/{exec}")

    assert run_threads(worker) == []
    assert failures == []
    assert replayed  # (about ten of the 24 batch runs replay)
    after = lookups_by_region()
    for name, instances in caches.items():
        performed = sum(counted_lookups[id(cache)] for cache in instances)
        assert after[name] - before[name] == performed, (
            f"{name}: {after[name] - before[name]} recorded lookups != "
            f"{performed} performed (lost counter updates)"
        )
        assert performed > 0, f"the hammer never touched {name}"
    for kind, stats in pool.cache_stats().items():
        performed = counted_lookups[id(getattr(pool.caches, kind))]
        assert stats.lookups == performed, kind


def test_service_result_cache_under_executor_threads(
    small_lslod_lake, fast_switching
):
    # Eight executor threads, a 3-entry result cache and 8 distinct
    # (query, exec) identities: hits, misses and evictions all happen
    # concurrently.  Every admitted request performs exactly one lookup.
    config = ServiceConfig(
        port=0,
        workers=4,
        global_concurrency=THREADS,
        default_tenant=TenantConfig(
            name="default", max_concurrency=THREADS, queue_depth=256
        ),
        timeout=JOIN_TIMEOUT,
        exec="batch",
        result_cache_size=3,
    )
    identities = [
        (name, exec) for name in ("Q1", "Q2", "Q4", "Q5") for exec in ("row", "batch")
    ]
    expected = {
        (name, exec): serialize_answers(
            FederatedEngine(
                small_lslod_lake,
                policy=POLICY_CHOICES[config.policy](),
                network=NETWORK_CHOICES[config.network](),
                exec=exec,
            ).run(BENCHMARK_QUERIES[name].text, seed=RUN_SEED)[0]
        )
        for name, exec in identities
    }
    requests = [identities[(i * 3) % len(identities)] for i in range(96)]

    async def scenario():
        service = QueryService(small_lslod_lake, config)
        try:
            ids = []
            for name, exec in requests:
                status, body = await service.submit(
                    {"query": name, "seed": RUN_SEED, "exec": exec}
                )
                assert status == 202, body
                ids.append(body["request_id"])
            results = []
            for request_id in ids:
                for __ in range(int(JOIN_TIMEOUT / 0.005)):
                    status, body = service.result(request_id)
                    if status != 409:
                        break
                    await asyncio.sleep(0.005)
                assert status == 200, body
                results.append(body)
            return results, service.stats()[1], service.journal.events
        finally:
            await service.drain()
            service.close()

    results, stats, events = asyncio.run(scenario())
    for (name, exec), body in zip(requests, results):
        assert body["answers"] == expected[(name, exec)], (name, exec)
    cache = stats["result_cache"]
    assert cache["hits"] + cache["misses"] == len(requests)
    assert cache["hits"] == sum(
        body["stats"]["result_cache"] == "hit" for body in results
    )
    assert 0 < cache["entries"] <= cache["capacity"] == 3
    journaled = sum(
        event["evicted"] for event in events if event["kind"] == "result-cache-evict"
    )
    assert cache["evictions"] == journaled > 0
