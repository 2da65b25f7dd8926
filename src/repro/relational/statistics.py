"""Table statistics, selectivity estimation and the 15 %-rule index advisor.

The paper's motivating example explains that *"No index is created since
there are values that are present in more than 15% of the records"* — the
advisor here implements exactly that rule: a candidate column is indexed only
when no single value covers more than ``max_value_fraction`` (default 0.15)
of the rows.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter

from .storage import TableStorage
from .types import SQLValue

#: Fraction above which a column value makes the column a poor index target.
DEFAULT_MAX_VALUE_FRACTION = 0.15


@dataclass
class ColumnStatistics:
    """Summary statistics of one column.

    Attributes:
        column: column name.
        row_count: rows examined (including NULLs).
        null_count: how many values are NULL.
        distinct_count: number of distinct non-NULL values.
        most_common_value: the modal value (None when the column is empty).
        most_common_fraction: fraction of non-NULL rows holding the mode.
        min_value / max_value: extrema for orderable columns, else None.
    """

    column: str
    row_count: int = 0
    null_count: int = 0
    distinct_count: int = 0
    most_common_value: SQLValue = None
    most_common_fraction: float = 0.0
    min_value: SQLValue = None
    max_value: SQLValue = None

    @property
    def non_null_count(self) -> int:
        return self.row_count - self.null_count

    def equality_selectivity(self, value: SQLValue | None = None) -> float:
        """Estimated fraction of rows matching ``column = value``.

        Without a concrete value, assumes the uniform 1/distinct estimate;
        a concrete value equal to the mode uses the observed mode fraction.
        """
        if self.non_null_count == 0 or self.distinct_count == 0:
            return 0.0
        if value is not None and value == self.most_common_value:
            return self.most_common_fraction
        return 1.0 / self.distinct_count

    def range_selectivity(self) -> float:
        """Default estimate for open range predicates (the classic 1/3)."""
        if self.non_null_count == 0:
            return 0.0
        return 1.0 / 3.0


@dataclass
class TableStatistics:
    """Statistics of one table: row count plus per-column summaries."""

    table: str
    row_count: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        if name not in self.columns:
            return ColumnStatistics(column=name, row_count=self.row_count)
        return self.columns[name]


def collect_column_statistics(storage: TableStorage, column: str) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` by a full pass over the table."""
    return _column_statistics(
        column, storage.schema.column_index(column), storage.live_rows()
    )


def _column_statistics(column: str, position: int, rows: list) -> ColumnStatistics:
    # One C-level count; the Counter's insertion order is heap order, so
    # the mode's tie-break and the extrema's ties keep the first occurrence.
    counter = Counter(map(itemgetter(position), rows))
    null_count = counter.pop(None, 0)
    non_null = len(rows) - null_count
    minimum, maximum = min(counter, default=None), max(counter, default=None)
    most_common_value: SQLValue = None
    most_common_fraction = 0.0
    if counter:
        most_common_value, count = counter.most_common(1)[0]
        most_common_fraction = count / non_null
    return ColumnStatistics(
        column=column,
        row_count=len(rows),
        null_count=null_count,
        distinct_count=len(counter),
        most_common_value=most_common_value,
        most_common_fraction=most_common_fraction,
        min_value=minimum,
        max_value=maximum,
    )


def collect_table_statistics(storage: TableStorage) -> TableStatistics:
    """Compute statistics for every column of *storage* (ANALYZE)."""
    rows = storage.live_rows()
    statistics = TableStatistics(table=storage.schema.name, row_count=len(rows))
    for position, column in enumerate(storage.schema.column_names):
        statistics.columns[column] = _column_statistics(column, position, rows)
    return statistics


@dataclass(frozen=True, slots=True)
class IndexAdvice:
    """The advisor's verdict for one candidate column."""

    table: str
    column: str
    create: bool
    reason: str
    most_common_fraction: float
    distinct_count: int


class IndexAdvisor:
    """Decides whether a column deserves a secondary index.

    Implements the paper's physical-design rule: create an index unless some
    value occurs in more than *max_value_fraction* of the records (such a
    column makes the index useless for the skewed value and misleads the
    optimizer).  Columns with a single distinct value are likewise rejected.
    """

    def __init__(self, max_value_fraction: float = DEFAULT_MAX_VALUE_FRACTION):
        if not 0.0 < max_value_fraction <= 1.0:
            raise ValueError("max_value_fraction must be in (0, 1]")
        self.max_value_fraction = max_value_fraction

    def advise(self, storage: TableStorage, column: str) -> IndexAdvice:
        """Evaluate one candidate column of one table."""
        statistics = collect_column_statistics(storage, column)
        if statistics.non_null_count == 0:
            return IndexAdvice(
                table=storage.schema.name,
                column=column,
                create=False,
                reason="column has no non-NULL values",
                most_common_fraction=statistics.most_common_fraction,
                distinct_count=statistics.distinct_count,
            )
        if statistics.distinct_count <= 1:
            return IndexAdvice(
                table=storage.schema.name,
                column=column,
                create=False,
                reason="column has a single distinct value",
                most_common_fraction=statistics.most_common_fraction,
                distinct_count=statistics.distinct_count,
            )
        if statistics.distinct_count == statistics.non_null_count:
            return IndexAdvice(
                table=storage.schema.name,
                column=column,
                create=True,
                reason="column is unique over its non-NULL values",
                most_common_fraction=statistics.most_common_fraction,
                distinct_count=statistics.distinct_count,
            )
        if statistics.most_common_fraction > self.max_value_fraction:
            return IndexAdvice(
                table=storage.schema.name,
                column=column,
                create=False,
                reason=(
                    f"value {statistics.most_common_value!r} covers "
                    f"{statistics.most_common_fraction:.1%} of records "
                    f"(> {self.max_value_fraction:.0%} rule)"
                ),
                most_common_fraction=statistics.most_common_fraction,
                distinct_count=statistics.distinct_count,
            )
        return IndexAdvice(
            table=storage.schema.name,
            column=column,
            create=True,
            reason=(
                f"{statistics.distinct_count} distinct values, mode covers "
                f"{statistics.most_common_fraction:.1%} of records"
            ),
            most_common_fraction=statistics.most_common_fraction,
            distinct_count=statistics.distinct_count,
        )
