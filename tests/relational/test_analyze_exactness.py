"""ANALYZE's one-pass count gives exactly what the per-value scan gave.

``collect_column_statistics`` counts a column with one C-level
``Counter`` over the live rows and takes the extrema over the distinct
values.  ``reference_column_statistics`` below is the per-value scan it
replaced, kept verbatim as the oracle: every field must match it, by type
as well as by value, over NULLs, tied modes, NaN and infinities, equal
values the column's type coercion folds together, and deleted rows.
Every cell is stored through ``TableStorage.insert``, so each column holds
the one Python type its SQL type coerces to.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, strategies as st

from repro.relational import (
    Column,
    ColumnStatistics,
    SQLType,
    TableSchema,
    TableStorage,
    collect_column_statistics,
    collect_table_statistics,
)
from repro.relational.types import SQLValue


def reference_column_statistics(storage: TableStorage, column: str) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` by a full pass over the table."""
    counter: Counter = Counter()
    null_count = 0
    row_count = 0
    minimum: SQLValue = None
    maximum: SQLValue = None
    for value in storage.column_values(column):
        row_count += 1
        if value is None:
            null_count += 1
            continue
        counter[value] += 1
        try:
            if minimum is None or value < minimum:
                minimum = value
            if maximum is None or value > maximum:
                maximum = value
        except TypeError:
            minimum = maximum = None
    non_null = row_count - null_count
    most_common_value: SQLValue = None
    most_common_fraction = 0.0
    if counter:
        most_common_value, count = counter.most_common(1)[0]
        most_common_fraction = count / non_null if non_null else 0.0
    return ColumnStatistics(
        column=column,
        row_count=row_count,
        null_count=null_count,
        distinct_count=len(counter),
        most_common_value=most_common_value,
        most_common_fraction=most_common_fraction,
        min_value=minimum,
        max_value=maximum,
    )


NAN = float("nan")
#: Per column, inputs its type coerces: integral floats become ints, ints
#: become floats or text, 0/1 and "true"/"false" become booleans.  NaN
#: comes both as one shared object and as a fresh object per draw.
INPUTS = {
    "i": (SQLType.INTEGER, st.one_of(st.integers(-2, 2), st.sampled_from([-1.0, 2.0]))),
    "r": (
        SQLType.REAL,
        st.one_of(
            st.integers(-2, 2),
            st.sampled_from([-1.0, -0.0, 0.0, 0.5, float("inf"), float("-inf"), NAN]),
            st.builds(float, st.just("nan")),
        ),
    ),
    "t": (SQLType.TEXT, st.one_of(st.sampled_from(["", "a", "b", "ab", "B"]), st.integers(0, 2))),
    "b": (SQLType.BOOLEAN, st.one_of(st.booleans(), st.sampled_from([0, 1, "true", "false"]))),
}
COLUMNS = tuple(INPUTS)
SCHEMA = TableSchema("t", [Column(name, sql_type) for name, (sql_type, __) in INPUTS.items()])


@st.composite
def heaps(draw) -> TableStorage:
    """A heap with one column per SQL type, NULLs and tombstones."""
    cells = [st.one_of(st.none(), values) for __, values in INPUTS.values()]
    rows = draw(st.lists(st.tuples(*cells, st.booleans()), max_size=40))
    storage = TableStorage(SCHEMA)
    row_ids = [storage.insert(row[:-1]) for row in rows]
    for row_id, (*__, deleted) in zip(row_ids, rows):
        if deleted:
            storage.delete(row_id)
    return storage


def same(left, right) -> bool:
    """Equal and of one type; NaN only matches the very same object."""
    return left is right or (type(left) is type(right) and left == right)


def assert_identical(actual: ColumnStatistics, expected: ColumnStatistics) -> None:
    for field in (
        "column",
        "row_count",
        "null_count",
        "distinct_count",
        "most_common_value",
        "most_common_fraction",
        "min_value",
        "max_value",
    ):
        assert same(getattr(actual, field), getattr(expected, field)), field


@given(heaps())
def test_column_statistics_match_the_per_value_scan(storage):
    for column in COLUMNS:
        expected = reference_column_statistics(storage, column)
        assert_identical(collect_column_statistics(storage, column), expected)


@given(heaps())
def test_table_statistics_match_the_per_value_scan(storage):
    statistics = collect_table_statistics(storage)
    assert statistics.row_count == len(storage)
    assert list(statistics.columns) == list(COLUMNS)
    for column in COLUMNS:
        expected = reference_column_statistics(storage, column)
        assert_identical(statistics.columns[column], expected)


def test_the_fixed_cases_keep_the_first_occurrence():
    # Pin what the property draws from: tied modes and equal extrema keep
    # the first occurrence in heap order, and a leading NaN is both
    # extrema, as it was for the scan.
    cases = [
        ("t", ["b", "a", "a", "b", None, None]),
        ("r", [-0.0, 0.0, 1, 1.0, None]),
        ("r", [NAN, 1.0, 0.0]),
        ("r", [1.0, NAN, 0.0, float("inf")]),
        ("b", [True, 0, "false", 1]),
        ("i", []),
        ("i", [None, None]),
    ]
    for column, values in cases:
        storage = TableStorage(SCHEMA)
        for value in values:
            storage.insert({column: value})
        assert_identical(
            collect_column_statistics(storage, column),
            reference_column_statistics(storage, column),
        )
