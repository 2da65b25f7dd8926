"""Golden operation counts of the relational engine, captured at commit ce7ad04.

The operation meter is what the cost model prices into virtual time, so the
count of every kind, *and the order in which kinds first appear* (pricing
sums in that order), must not move when the executor changes shape.  Each
entry of ``meter_golden.json`` is one ``Database.query(statement, meter)``
execution: the statement, its row count, the ordered ``meter.counts`` items
after the end, and a SHA-256 over every row together with the ordered meter
items after that row — which also pins what a consumer that stops early
(a LIMIT upstream, an abandoned stream) has been charged.

The corpus is every statement the row-mode federation sends to a relational
member for Q1–Q5 under each policy of ``POLICY_CHOICES`` and each network of
``NETWORK_CHOICES`` on the shared ``small_lslod_lake`` (scale 0.1, seed
42), plus hand-written statements over a small database, with and without
secondary indexes, that reach the operators the federation never plans
(LIMIT/OFFSET, ORDER BY DESC, DISTINCT, GROUP BY with all five aggregates,
HAVING, COUNT over an empty match, IN / LIKE / NOT LIKE / IS NULL / range /
OR / NOT predicates, hash join vs index nested-loop join).

Regenerate only for an intended count change:
``PYTHONPATH=src python tests/relational/test_meter_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.relational import Database, OperationMeter

GOLDEN = Path(__file__).with_name("meter_golden.json")

HAND_STATEMENTS = (
    "SELECT id, name FROM item WHERE id >= 20 LIMIT 5 OFFSET 3",
    "SELECT id, name FROM item LIMIT 7",
    "SELECT id, score FROM item ORDER BY score DESC, id",
    "SELECT DISTINCT grp FROM item WHERE score > 10",
    "SELECT grp, COUNT(*) AS n, COUNT(score) AS c, SUM(score) AS s, AVG(score) AS a, "
    "MIN(name) AS lo, MAX(id) AS hi FROM item GROUP BY grp ORDER BY grp",
    "SELECT grp, COUNT(*) AS n FROM item GROUP BY grp HAVING n > 10 ORDER BY n DESC LIMIT 3",
    "SELECT COUNT(*) FROM item WHERE name = 'nothing'",
    "SELECT SUM(score), MIN(name) FROM item WHERE grp = 99",
    "SELECT id FROM item WHERE grp IN (1, 3, 5)",
    "SELECT id FROM item WHERE name LIKE 'item 1%' AND score < 50",
    "SELECT id FROM item WHERE name NOT LIKE '%5' AND grp = 2",
    "SELECT id FROM item WHERE score IS NULL",
    "SELECT id FROM item WHERE grp IS NOT NULL AND id > 10 AND id <= 40",
    "SELECT id FROM item WHERE (grp = 1 OR grp = 2) AND NOT (id < 50)",
    "SELECT i.id, g.label FROM grp g JOIN item i ON g.id = i.grp WHERE g.label = 'group 3'",
    "SELECT i.name, g.label FROM item i JOIN grp g ON i.grp = g.id "
    "WHERE i.score < 20 AND g.label LIKE '%1%'",
    "SELECT COUNT(*) FROM item i JOIN grp g ON i.grp = g.id",
    "SELECT DISTINCT g.label FROM item i JOIN grp g ON i.grp = g.id "
    "WHERE i.id < 30 ORDER BY g.label LIMIT 4",
)


def hand_database(indexed: bool) -> Database:
    """120 items in 10 groups (some NULL groups and scores), 12 group rows."""
    database = Database("hand")
    database.execute(
        "CREATE TABLE item (id INTEGER PRIMARY KEY, grp INTEGER, name TEXT, score REAL)"
    )
    database.execute(
        "INSERT INTO item VALUES "
        + ", ".join(
            f"({i}, {'NULL' if i % 13 == 0 else i % 10}, 'item {i}', "
            f"{'NULL' if i % 7 == 0 else i / 2})"
            for i in range(120)
        )
    )
    database.execute("CREATE TABLE grp (id INTEGER PRIMARY KEY, label TEXT)")
    database.execute(
        "INSERT INTO grp VALUES " + ", ".join(f"({i}, 'group {i}')" for i in range(12))
    )
    if indexed:
        database.create_index("item", ["grp"])
        database.create_index("item", ["name"])
        database.create_index("grp", ["label"])
    return database


def measure(database: Database, sql: str) -> dict:
    meter = OperationMeter()
    digest = hashlib.sha256()
    rows = 0
    for row in database.query(sql, meter):
        rows += 1
        digest.update(repr((row, tuple(meter.counts.items()))).encode())
    return {
        "sql": sql,
        "rows": rows,
        "final": [list(item) for item in meter.counts.items()],
        "sha256": digest.hexdigest(),
    }


def federation_statements(lake) -> list[tuple[str, str]]:
    """(source, SQL) of every row-mode ``Database.query`` of the grid, in order."""
    from repro import FederatedEngine
    from repro.benchmark.baseline import NETWORK_CHOICES, POLICY_CHOICES
    from repro.datasets import BENCHMARK_QUERIES

    owner = {id(source.database): source.source_id for source in lake.relational_sources()}
    seen: dict[tuple[str, str], None] = {}
    original = Database.query

    def recording(self, statement, meter=None):
        sql = statement if isinstance(statement, str) else statement.sql()
        seen.setdefault((owner[id(self)], sql), None)
        return original(self, statement, meter)

    Database.query = recording
    try:
        for name in ("Q1", "Q2", "Q3", "Q4", "Q5"):
            for policy in POLICY_CHOICES.values():
                for network in NETWORK_CHOICES.values():
                    engine = FederatedEngine(
                        lake, policy=policy(), network=network(), exec="row"
                    )
                    engine.run(BENCHMARK_QUERIES[name].text, seed=7)
    finally:
        Database.query = original
    return list(seen)


def capture() -> dict:
    from repro.datasets import build_lslod_lake

    lake = build_lslod_lake(scale=0.1, seed=42)
    lake_entries = [
        {"source": source, **measure(lake.source(source).database, sql)}
        for source, sql in federation_statements(lake)
    ]
    hand_entries = {
        variant: [measure(hand_database(indexed), sql) for sql in HAND_STATEMENTS]
        for variant, indexed in (("plain", False), ("indexed", True))
    }
    return {"lake": lake_entries, "hand": hand_entries}


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_operator():
    plans = [
        hand_database(indexed).explain(sql)
        for indexed in (False, True)
        for sql in HAND_STATEMENTS
    ]
    for operator in (
        "SeqScan", "IndexScan", "Filter", "HashJoin", "IndexNestedLoopJoin", "Project",
        "Distinct", "Sort", "Limit", "Aggregate", "Count",
    ):
        assert any(operator in plan for plan in plans), operator


def test_lake_statements_count_as_captured(small_lslod_lake):
    entries = golden()["lake"]
    assert len(entries) > 50
    for entry in entries:
        database = small_lslod_lake.source(entry["source"]).database
        assert {"source": entry["source"], **measure(database, entry["sql"])} == entry


@pytest.mark.parametrize("variant", ["plain", "indexed"])
def test_hand_statements_count_as_captured(variant):
    database = hand_database(variant == "indexed")
    entries = golden()["hand"][variant]
    assert [entry["sql"] for entry in entries] == list(HAND_STATEMENTS)
    for entry in entries:
        assert measure(database, entry["sql"]) == entry


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(capture(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
