"""Tests for statistics collection and the 15 %-rule index advisor."""

import pytest

from repro.relational import (
    Column,
    IndexAdvisor,
    SQLType,
    TableSchema,
    TableStorage,
    collect_column_statistics,
    collect_table_statistics,
)


def storage_with(values, sql_type=SQLType.TEXT) -> TableStorage:
    schema = TableSchema(
        "t",
        [Column("id", SQLType.INTEGER, nullable=False), Column("v", sql_type)],
        primary_key=("id",),
    )
    storage = TableStorage(schema)
    for index, value in enumerate(values):
        storage.insert({"id": index, "v": value})
    return storage


class TestColumnStatistics:
    def test_counts(self):
        storage = storage_with(["a", "a", "b", None])
        statistics = collect_column_statistics(storage, "v")
        assert statistics.row_count == 4
        assert statistics.null_count == 1
        assert statistics.distinct_count == 2
        assert statistics.non_null_count == 3

    def test_mode(self):
        storage = storage_with(["a", "a", "b"])
        statistics = collect_column_statistics(storage, "v")
        assert statistics.most_common_value == "a"
        assert statistics.most_common_fraction == pytest.approx(2 / 3)

    def test_min_max_numeric(self):
        storage = storage_with([5, 1, 9], SQLType.INTEGER)
        statistics = collect_column_statistics(storage, "v")
        assert statistics.min_value == 1
        assert statistics.max_value == 9

    def test_empty_column(self):
        storage = storage_with([])
        statistics = collect_column_statistics(storage, "v")
        assert statistics.distinct_count == 0
        assert statistics.equality_selectivity() == 0.0

    def test_equality_selectivity_uniform(self):
        storage = storage_with(["a", "b", "c", "d"])
        statistics = collect_column_statistics(storage, "v")
        assert statistics.equality_selectivity() == pytest.approx(0.25)

    def test_equality_selectivity_mode_value(self):
        storage = storage_with(["a"] * 8 + ["b", "c"])
        statistics = collect_column_statistics(storage, "v")
        assert statistics.equality_selectivity("a") == pytest.approx(0.8)
        assert statistics.equality_selectivity("b") == pytest.approx(1 / 3)

    def test_range_selectivity(self):
        storage = storage_with([1, 2, 3], SQLType.INTEGER)
        statistics = collect_column_statistics(storage, "v")
        assert statistics.range_selectivity() == pytest.approx(1 / 3)


class TestTableStatistics:
    def test_all_columns_collected(self):
        storage = storage_with(["a", "b"])
        statistics = collect_table_statistics(storage)
        assert set(statistics.columns) == {"id", "v"}
        assert statistics.row_count == 2

    def test_unknown_column_default(self):
        storage = storage_with(["a"])
        statistics = collect_table_statistics(storage)
        assert statistics.column("nope").distinct_count == 0


class TestIndexAdvisor:
    def test_uniform_column_advised(self):
        storage = storage_with([f"v{i}" for i in range(100)])
        advice = IndexAdvisor().advise(storage, "v")
        assert advice.create is True

    def test_skewed_column_rejected(self):
        # one value covers 40 % of records: the paper's species attribute
        values = ["Homo sapiens"] * 40 + [f"species {i}" for i in range(60)]
        advice = IndexAdvisor().advise(storage_with(values), "v")
        assert advice.create is False
        assert "15%" in advice.reason or "15 %" in advice.reason

    def test_boundary_respects_threshold(self):
        values = ["a"] * 15 + [f"v{i}" for i in range(85)]
        advice = IndexAdvisor(max_value_fraction=0.15).advise(storage_with(values), "v")
        assert advice.create is True  # exactly 15 % is allowed
        values = ["a"] * 16 + [f"v{i}" for i in range(84)]
        advice = IndexAdvisor(max_value_fraction=0.15).advise(storage_with(values), "v")
        assert advice.create is False

    def test_single_value_column_rejected(self):
        advice = IndexAdvisor().advise(storage_with(["x"] * 10), "v")
        assert advice.create is False
        assert "single distinct" in advice.reason

    def test_all_null_column_rejected(self):
        advice = IndexAdvisor().advise(storage_with([None, None]), "v")
        assert advice.create is False

    def test_custom_threshold(self):
        values = ["a"] * 30 + [f"v{i}" for i in range(70)]
        assert IndexAdvisor(max_value_fraction=0.5).advise(storage_with(values), "v").create
        assert not IndexAdvisor(max_value_fraction=0.15).advise(storage_with(values), "v").create

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            IndexAdvisor(max_value_fraction=0.0)
        with pytest.raises(ValueError):
            IndexAdvisor(max_value_fraction=1.5)


class TestDatabaseStatisticsCache:
    def make_database(self):
        from repro.relational import Database

        database = Database("d")
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        database.insert("t", {"id": 1, "v": "a"})
        return database

    def test_a_direct_storage_write_refreshes_statistics(self):
        # Writes through ``db.table(t)`` are first-class: they move the
        # data version, so they must also retire the cached ANALYZE.
        database = self.make_database()
        assert database.statistics("t").row_count == 1
        row_id = database.table("t").insert({"id": 2, "v": "b"})
        assert database.statistics("t").row_count == 2
        assert database.statistics("t").column("v").distinct_count == 2
        database.table("t").delete(row_id)
        assert database.statistics("t").row_count == 1

    def test_statistics_are_cached_until_a_write(self):
        database = self.make_database()
        first = database.statistics("t")
        assert database.statistics("t") is first
        database.execute("INSERT INTO t VALUES (3, 'c')")
        assert database.statistics("t") is not first
        assert database.statistics("t").row_count == 2

    def test_a_recreated_table_is_analyzed_afresh(self):
        database = self.make_database()
        assert database.statistics("t").row_count == 1
        database.drop_table("t")
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
        assert database.statistics("t").row_count == 0
