"""The process-wide memo regions: invalidation, lifetime, one shared block.

Checked through the public ``memo_stats()`` / ``clear_memos()`` pair only.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import FederatedEngine, NetworkSetting
from repro.cache import CacheRegistry, clear_memos, memo_stats
from repro.datalake import SemanticDataLake
from repro.rdf import IRI, Literal, Triple

from ..conftest import (
    TINY_AFFYMETRIX,
    TINY_CROSS_SOURCE_QUERY,
    TINY_DISEASOME,
    make_tiny_graph,
)
from ..federation.test_vectorized import stats_signature

SEED = 3


def mixed_lake() -> SemanticDataLake:
    """Diseasome behind SQL, affymetrix as a native RDF source."""
    lake = SemanticDataLake("mixed")
    lake.add_graph_as_relational(
        "diseasome", make_tiny_graph(TINY_DISEASOME, "diseasome")
    )
    lake.add_rdf_source("affymetrix", make_tiny_graph(TINY_AFFYMETRIX, "affymetrix"))
    return lake


def batch_run(lake):
    """One cold batch run on a fresh engine (fresh sub-result cache)."""
    return FederatedEngine(lake, exec="batch").run(TINY_CROSS_SOURCE_QUERY, seed=SEED)


def deltas(before, after) -> dict[str, tuple[int, int]]:
    """Per region: (hits, misses) gained between two ``memo_stats()`` snapshots."""
    return {
        name: (
            after[name].hits - before[name].hits,
            after[name].misses - before[name].misses,
        )
        for name in after
    }


def test_regions_and_clear():
    lake = mixed_lake()
    batch_run(lake)
    stats = memo_stats()
    assert set(stats) == {
        "sql_blocks",
        "star_columns",
        "run_scripts",
        "translations",
        "term_decoders",
        "compiled_holds",
        "compiled_predicates",
    }
    assert stats["sql_blocks"].size and stats["star_columns"].size
    assert stats["compiled_predicates"].size  # the SQL plans' WHERE clauses
    lookups = {name: region.lookups for name, region in stats.items()}
    clear_memos()
    cleared = memo_stats()
    assert all(region.size == 0 for region in cleared.values())
    # Entries go, counters keep running.
    assert {name: region.lookups for name, region in cleared.items()} == lookups


def test_second_engine_shares_fetched_blocks():
    lake = mixed_lake()
    clear_memos()
    first, __ = batch_run(lake)
    before = memo_stats()
    second, __ = batch_run(lake)  # new engine: sub-result cache is cold again
    moved = deltas(before, memo_stats())
    assert second == first
    # run_scripts: the second run of the plan replays the first one's
    # recording, re-issuing its fetches (the sub-result cache is new).
    for region in ("sql_blocks", "star_columns", "run_scripts"):
        hits, misses = moved[region]
        assert hits > 0 and misses == 0, (region, moved[region])


def test_relational_write_makes_per_store_memo_miss():
    lake = mixed_lake()
    clear_memos()
    batch_run(lake)
    lake.source("diseasome").database.table("gene").insert(
        {"id": 999, "genesymbol": "KRAS", "associateddisease": 1}
    )
    before = memo_stats()
    batch_run(lake)
    moved = deltas(before, memo_stats())
    assert moved["sql_blocks"] == (0, 1)  # new data version: block re-fetched
    assert moved["star_columns"] == (1, 0)  # the RDF source did not change
    assert moved["run_scripts"] == (0, 1)  # the plan's data signature changed


def test_index_ddl_makes_sql_block_memo_miss():
    lake = mixed_lake()
    clear_memos()
    batch_run(lake)
    lake.create_index("diseasome", "gene", ["genesymbol"])
    before = memo_stats()
    batch_run(lake)
    assert deltas(before, memo_stats())["sql_blocks"] == (0, 1)


def test_graph_write_makes_star_columns_memo_miss():
    lake = mixed_lake()
    clear_memos()
    batch_run(lake)
    lake.source("affymetrix").graph.add(
        Triple(
            IRI("http://ex/affymetrix/Probeset/999"),
            IRI("http://ex/vocab#symbol"),
            Literal("NOPE"),
        )
    )
    before = memo_stats()
    batch_run(lake)
    moved = deltas(before, memo_stats())
    assert moved["star_columns"] == (0, 1)
    assert moved["sql_blocks"] == (1, 0)


def test_dropped_stores_are_collectable_while_their_blocks_are_cached():
    # One run leaves its recording in the memo; a second one replays it.
    for runs in (1, 2):
        clear_memos()
        gc.collect()
        baseline = memo_stats()
        lake = mixed_lake()
        for __ in range(runs):
            batch_run(lake)
        database = weakref.ref(lake.source("diseasome").database)
        graph = weakref.ref(lake.source("affymetrix").graph)
        held = memo_stats()
        assert held["run_scripts"].size == 1, runs  # a run script is held
        for region, capacity in (("sql_blocks", 64), ("star_columns", 32)):
            assert held[region].size > baseline[region].size
            assert held[region].capacity == baseline[region].capacity + capacity
        del lake
        gc.collect()
        # Nothing cached pins a store: not its blocks, not a run script or key.
        assert database() is None and graph() is None, runs
        released = memo_stats()
        for region in ("sql_blocks", "star_columns"):
            # The per-store regions went with the stores; their counters stay.
            assert released[region].capacity == baseline[region].capacity
            assert released[region].size == baseline[region].size
            assert released[region].lookups == held[region].lookups


@pytest.mark.parametrize(
    "publisher, replayer",
    [
        (("row", 256), ("batch", 2)),
        (("batch", 2), ("row", 256)),
        (("batch", 3), ("batch", 256)),
    ],
)
def test_block_published_on_one_plane_replays_on_the_other(publisher, replayer):
    lake = mixed_lake()
    network = NetworkSetting.gamma2()

    def run(exec, batch_size, caches):
        engine = FederatedEngine(
            lake, network=network, exec=exec, batch_size=batch_size, caches=caches
        )
        answers, stats = engine.run(TINY_CROSS_SOURCE_QUERY, seed=SEED)
        return answers, stats_signature(stats), stats

    reference = run(*replayer, CacheRegistry())  # cold, private registry
    shared = CacheRegistry()
    run(*publisher, shared)
    answers, signature, stats = run(*replayer, shared)
    assert stats.subresult_cache_hits > 0 and stats.subresult_cache_misses == 0
    assert answers == reference[0]
    # The cold reference counted misses where the replay counts hits;
    # every virtual-time accumulator must agree bit for bit.
    assert signature[:6] == reference[1][:6]
    assert signature[7:] == reference[1][7:]
