"""Physical operators of the relational engine.

Every operator is a plan node with a ``header`` (tuple of ``binding.column``
names) and exactly one execution definition, :meth:`PlanNode.run`: an eager
kernel that runs the node's subtree once and returns :class:`CountedRows` —
the output rows, the cumulative count of every operation kind at each row,
the final counts, and the static order in which the kinds first fire.  Both
consumers read that one result:

* the batch data plane prices it whole (``vexecutor.execute_priced``);
* :meth:`PlanNode.execute`, behind ``Database.query``, replays it into an
  :class:`OperationMeter`: after each yielded row, and after the end, the
  meter holds exactly what a streaming (pull one row at a time) execution
  of the plan would have reported — including the child row a LIMIT pulls
  past its cut-off.  Rows are computed up front; what a consumer that stops
  early is charged stays lazy, because charges are read off the meter
  between pulls.

Why one static kind order reproduces the streaming meter bit for bit is in
DESIGN.md §12 ("One relational executor").
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..cache.memos import compiled_predicates
from ..exceptions import ExecutionError
from .indexes import BTreeIndex
from .meter import OperationMeter
from .sql.ast import (
    AndExpr,
    ColumnRef,
    Comparison,
    Constant,
    InPredicate,
    IsNullPredicate,
    LikePredicate,
    NotExpr,
    OrExpr,
    WhereExpr,
)
from .storage import TableStorage
from .types import SQLValue, comparable

Row = tuple
Header = tuple[str, ...]


def like_to_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern (``%``, ``_``) into an anchored regex."""
    parts: list[str] = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


# ---------------------------------------------------------------------------
# Predicate compilation
# ---------------------------------------------------------------------------


def _column_position(header: Header, ref: ColumnRef) -> int:
    """Resolve *ref* against *header*; unqualified names must be unambiguous."""
    if ref.table:
        wanted = f"{ref.table}.{ref.column}"
        for position, name in enumerate(header):
            if name == wanted:
                return position
        raise ExecutionError(f"column {wanted!r} not in scope {header}")
    matches = [
        position for position, name in enumerate(header)
        if name.rpartition(".")[2] == ref.column
    ]
    if not matches:
        raise ExecutionError(f"column {ref.column!r} not in scope {header}")
    if len(matches) > 1:
        raise ExecutionError(f"ambiguous column {ref.column!r} in scope {header}")
    return matches[0]


def _operand_getter(header: Header, operand) -> Callable[[Row], SQLValue]:
    if isinstance(operand, Constant):
        value = operand.value
        return lambda row: value
    if isinstance(operand, ColumnRef):
        position = _column_position(header, operand)
        return lambda row: row[position]
    raise ExecutionError(f"unsupported operand {operand!r}")


def compile_predicate(header: Header, predicate: WhereExpr) -> Callable[[Row], bool]:
    """Compile a WHERE expression into a row predicate closure.

    Compiled closures are pure functions of (header, predicate) — the AST
    nodes are frozen dataclasses — so they are memoized across queries in
    the ``compiled_predicates`` region.  Constants that happen to be
    unhashable fall back to direct compilation.
    """
    key = (header, predicate)
    try:
        compiled = compiled_predicates.get(key)
    except TypeError:
        return _compile_predicate(header, predicate)
    if compiled is None:
        compiled = _compile_predicate(header, predicate)
        compiled_predicates.put(key, compiled)
    return compiled


def _compile_predicate(header: Header, predicate: WhereExpr) -> Callable[[Row], bool]:
    if isinstance(predicate, Comparison):
        left = _operand_getter(header, predicate.left)
        right = _operand_getter(header, predicate.right)
        operator = predicate.operator

        def compare(row: Row) -> bool:
            left_value = left(row)
            right_value = right(row)
            if operator == "=":
                return left_value is not None and left_value == right_value
            if operator == "<>":
                return (
                    left_value is not None
                    and right_value is not None
                    and left_value != right_value
                )
            if not comparable(left_value, right_value):
                return False
            if operator == "<":
                return left_value < right_value
            if operator == ">":
                return left_value > right_value
            if operator == "<=":
                return left_value <= right_value
            return left_value >= right_value

        return compare
    if isinstance(predicate, LikePredicate):
        position = _column_position(header, predicate.column)
        regex = like_to_regex(predicate.pattern)
        negated = predicate.negated

        def like(row: Row) -> bool:
            value = row[position]
            if not isinstance(value, str):
                return False
            matched = regex.match(value) is not None
            return matched != negated

        return like
    if isinstance(predicate, InPredicate):
        position = _column_position(header, predicate.column)
        values = set(predicate.values)
        negated = predicate.negated

        def contains(row: Row) -> bool:
            value = row[position]
            if value is None:
                return False
            return (value in values) != negated

        return contains
    if isinstance(predicate, IsNullPredicate):
        position = _column_position(header, predicate.column)
        negated = predicate.negated
        return lambda row: (row[position] is None) != negated
    if isinstance(predicate, NotExpr):
        inner = compile_predicate(header, predicate.operand)
        return lambda row: not inner(row)
    if isinstance(predicate, AndExpr):
        inners = [compile_predicate(header, operand) for operand in predicate.operands]
        return lambda row: all(inner(row) for inner in inners)
    if isinstance(predicate, OrExpr):
        inners = [compile_predicate(header, operand) for operand in predicate.operands]
        return lambda row: any(inner(row) for inner in inners)
    raise ExecutionError(f"unsupported predicate {predicate!r}")


class _Conjuncts:
    """A node's predicates: evaluated in order, the first rejection stops.

    Each evaluation is counted under its kind: LIKE does per-row string
    *pattern* work — the paper observed that string filtering is
    comparatively expensive inside the RDBMS — while hash-comparable
    equality, ranges, IN and IS NULL stay on the cheap ``filter_evals``.
    """

    def __init__(self, header: Header, predicates: list[WhereExpr]):
        self.compiled = [compile_predicate(header, p) for p in predicates]
        self.kinds = [
            "string_filter_evals" if isinstance(p, LikePredicate) else "filter_evals"
            for p in predicates
        ]

    def select(self, candidates: list[Row]) -> tuple[list[int], list[tuple]]:
        """The indices of the accepted candidates, and per predicate its
        ``(kind, cumulative evaluations at each accepted candidate, total)``."""
        compiled = self.compiled
        if not compiled:
            return list(range(len(candidates))), []
        keep: list[int] = []
        cumulative: list[list[int]] = [[] for __ in compiled]
        evals = [0] * len(compiled)
        for i, row in enumerate(candidates):
            for j, predicate in enumerate(compiled):
                evals[j] += 1
                if not predicate(row):
                    break
            else:
                keep.append(i)
                for j, count in enumerate(evals):
                    cumulative[j].append(count)
        return keep, list(zip(self.kinds, cumulative, evals))


# ---------------------------------------------------------------------------
# Counted execution
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CountedRows:
    """One eagerly executed subtree: rows plus cumulative counts per row."""

    rows: list[Row]
    #: kind -> cumulative count at the moment each row was output.
    counts: dict[str, list[int]] = field(default_factory=dict)
    #: kind -> cumulative count after the subtree fully drained.
    final: dict[str, int] = field(default_factory=dict)
    #: Static first-fire order of the kinds (children before own kinds).
    order: list[str] = field(default_factory=list)

    def add(self, kind: str, cumulative: list[int], total: int) -> None:
        """Fold one kind's per-row cumulative counts and total into this result."""
        existing = self.counts.get(kind)
        if existing is None:
            self.counts[kind] = cumulative
            self.order.append(kind)
        else:
            self.counts[kind] = [a + b for a, b in zip(existing, cumulative)]
        self.final[kind] = self.final.get(kind, 0) + total

    def derived(self, rows: list[Row], keep: list[int] | None = None) -> "CountedRows":
        """A parent's result starting from these counts, sampled at the rows
        *keep* that produced each parent row (default: one each)."""
        if keep is None:
            counts = dict(self.counts)
        else:
            counts = {
                kind: [cumulative[i] for i in keep] for kind, cumulative in self.counts.items()
            }
        return CountedRows(rows, counts, dict(self.final), list(self.order))

    def drained(self, rows: list[Row]) -> "CountedRows":
        """A parent's result whose every row is output after this subtree
        fully drained (blocking operators): these counts are constants."""
        n = len(rows)
        counts = {kind: [self.final[kind]] * n for kind in self.order}
        return CountedRows(rows, counts, dict(self.final), list(self.order))


def _running(n: int) -> list[int]:
    """Cumulative count of a kind that fires once per output row."""
    return list(range(1, n + 1))


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


class PlanNode:
    """Base physical operator: a header plus one counted execution."""

    header: Header

    def run(self) -> CountedRows:
        raise NotImplementedError

    def execute(self, meter: OperationMeter | None = None) -> Iterator[Row]:
        """The rows of :meth:`run`, replaying its counts into *meter*.

        Kinds enter ``meter.counts`` at the first row where they are
        nonzero, in the static order: the order a streaming execution
        fires them, so a priced snapshot sums in the same order too.
        """
        result = self.run()
        if meter is None:
            yield from result.rows
            return
        kinds = [(kind, result.counts[kind]) for kind in result.order]
        reported = dict.fromkeys(result.order, 0)
        for i, row in enumerate(result.rows):
            for kind, cumulative in kinds:
                meter.count(kind, cumulative[i] - reported[kind])
                reported[kind] = cumulative[i]
            yield row
        for kind in result.order:
            meter.count(kind, result.final[kind] - reported[kind])

    def children(self) -> list["PlanNode"]:
        return []

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        lines.extend(child.explain(indent + 1) for child in self.children())
        return "\n".join(lines)


@dataclass
class SeqScan(PlanNode):
    """Full table scan, optionally filtering with pushed-down predicates."""

    storage: TableStorage
    binding: str
    predicates: list[WhereExpr] = field(default_factory=list)

    def __post_init__(self):
        self.header = tuple(f"{self.binding}.{name}" for name in self.storage.schema.column_names)
        self._where = _Conjuncts(self.header, self.predicates)

    def run(self) -> CountedRows:
        live = self.storage.live_rows()
        keep, evals = self._where.select(live)
        result = CountedRows([live[i] for i in keep])
        result.add("rows_scanned", [i + 1 for i in keep], len(live))
        for count in evals:
            result.add(*count)
        return result

    def label(self) -> str:
        rendered = " AND ".join(p.sql() for p in self.predicates)
        suffix = f" [{rendered}]" if rendered else ""
        return f"SeqScan({self.storage.schema.name} AS {self.binding}){suffix}"


@dataclass
class IndexScan(PlanNode):
    """Index-backed access: equality lookup, IN-list lookups or B-tree range scan."""

    storage: TableStorage
    binding: str
    index_name: str
    equality_key: tuple | None = None
    in_keys: list[tuple] | None = None
    range_low: tuple | None = None
    range_high: tuple | None = None
    include_low: bool = True
    include_high: bool = True
    residual_predicates: list[WhereExpr] = field(default_factory=list)

    def __post_init__(self):
        self.header = tuple(f"{self.binding}.{name}" for name in self.storage.schema.column_names)
        self._where = _Conjuncts(self.header, self.residual_predicates)

    def run(self) -> CountedRows:
        index = self.storage.index(self.index_name)
        keys = [self.equality_key] if self.equality_key is not None else self.in_keys
        row_ids: list[int] = []
        probe_of: list[int] = []  # probes issued when each row id was found
        if keys is None:
            if not isinstance(index, BTreeIndex):
                raise ExecutionError(f"index {self.index_name!r} cannot serve range scans")
            row_ids = list(
                index.scan_range(
                    self.range_low, self.range_high, self.include_low, self.include_high
                )
            )
            probe_of = [1] * len(row_ids)
            probes = 1
        else:
            for probe, key in enumerate(keys, 1):
                found = index.lookup(key)
                row_ids.extend(found)
                probe_of.extend([probe] * len(found))
            probes = len(keys)
        fetched = [self.storage.row(row_id) for row_id in row_ids]
        keep, evals = self._where.select(fetched)
        result = CountedRows([fetched[i] for i in keep])
        result.add("index_probes", [probe_of[i] for i in keep], probes)
        result.add("index_row_fetches", [i + 1 for i in keep], len(fetched))
        for count in evals:
            result.add(*count)
        return result

    def label(self) -> str:
        if self.equality_key is not None:
            access = f"= {self.equality_key!r}"
        elif self.in_keys is not None:
            access = f"IN ({len(self.in_keys)} keys)"
        else:
            access = f"range [{self.range_low!r}, {self.range_high!r}]"
        return (
            f"IndexScan({self.storage.schema.name} AS {self.binding}, "
            f"{self.index_name} {access})"
        )


@dataclass
class FilterNode(PlanNode):
    """Residual predicate applied on top of a child."""

    child: PlanNode
    predicates: list[WhereExpr]

    def __post_init__(self):
        self.header = self.child.header
        self._where = _Conjuncts(self.header, self.predicates)

    def run(self) -> CountedRows:
        child = self.child.run()
        keep, evals = self._where.select(child.rows)
        result = child.derived([child.rows[i] for i in keep], keep)
        for count in evals:
            result.add(*count)
        return result

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Filter[" + " AND ".join(p.sql() for p in self.predicates) + "]"


@dataclass
class HashJoin(PlanNode):
    """Classic build/probe equality hash join (build = left child)."""

    left: PlanNode
    right: PlanNode
    left_key: ColumnRef
    right_key: ColumnRef

    def __post_init__(self):
        self.header = self.left.header + self.right.header
        self._left_position = _column_position(self.left.header, self.left_key)
        self._right_position = _column_position(self.right.header, self.right_key)

    def run(self) -> CountedRows:
        left = self.left.run()
        right = self.right.run()
        left_position = self._left_position
        table: dict[SQLValue, list[Row]] = {}
        for row in left.rows:
            key = row[left_position]
            if key is not None:
                table.setdefault(key, []).append(row)
        right_position = self._right_position
        rows: list[Row] = []
        keep_right: list[int] = []
        empty: tuple[Row, ...] = ()
        for i, row in enumerate(right.rows):
            key = row[right_position]
            if key is None:
                continue
            for matched in table.get(key, empty):
                rows.append(matched + row)
                keep_right.append(i)
        n_out, n_left = len(rows), len(left.rows)
        # Every output row follows the complete build: the left side's
        # counts (and the build counter) are constants.
        result = left.drained(rows)
        result.add("hash_build_rows", [n_left] * n_out, n_left)
        for kind in right.order:
            result.add(
                kind, [right.counts[kind][i] for i in keep_right], right.final[kind]
            )
        result.add("hash_probe_rows", [i + 1 for i in keep_right], len(right.rows))
        result.add("join_output_rows", _running(n_out), n_out)
        return result

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def label(self) -> str:
        return f"HashJoin[{self.left_key.sql()} = {self.right_key.sql()}]"


@dataclass
class IndexNestedLoopJoin(PlanNode):
    """For each outer row, probe the inner table through its index."""

    outer: PlanNode
    storage: TableStorage
    binding: str
    index_name: str
    outer_key: ColumnRef
    inner_predicates: list[WhereExpr] = field(default_factory=list)

    def __post_init__(self):
        inner_header = tuple(
            f"{self.binding}.{name}" for name in self.storage.schema.column_names
        )
        self.header = self.outer.header + inner_header
        self._outer_position = _column_position(self.outer.header, self.outer_key)
        self._where = _Conjuncts(inner_header, self.inner_predicates)

    def run(self) -> CountedRows:
        outer = self.outer.run()
        lookup = self.storage.index(self.index_name).lookup
        storage_row = self.storage.row
        outer_position = self._outer_position
        fetched: list[Row] = []
        outer_of: list[int] = []  # the outer row each inner row was fetched for
        probe_of: list[int] = []  # probes issued when it was fetched
        probes = 0
        for i, outer_row in enumerate(outer.rows):
            key = outer_row[outer_position]
            if key is None:
                continue
            probes += 1
            for row_id in lookup((key,)):
                fetched.append(storage_row(row_id))
                outer_of.append(i)
                probe_of.append(probes)
        keep, evals = self._where.select(fetched)
        rows = [outer.rows[outer_of[k]] + fetched[k] for k in keep]
        result = outer.derived(rows, [outer_of[k] for k in keep])
        result.add("index_probes", [probe_of[k] for k in keep], probes)
        result.add("index_row_fetches", [k + 1 for k in keep], len(fetched))
        for count in evals:
            result.add(*count)
        result.add("join_output_rows", _running(len(rows)), len(rows))
        return result

    def children(self) -> list[PlanNode]:
        return [self.outer]

    def label(self) -> str:
        return (
            f"IndexNestedLoopJoin({self.storage.schema.name} AS {self.binding} "
            f"via {self.index_name}, outer={self.outer_key.sql()})"
        )


@dataclass
class ProjectNode(PlanNode):
    """Column projection with output renaming."""

    child: PlanNode
    columns: list[ColumnRef]
    output_names: list[str]

    def __post_init__(self):
        self.header = tuple(self.output_names)
        self._positions = [_column_position(self.child.header, ref) for ref in self.columns]

    def run(self) -> CountedRows:
        child = self.child.run()
        positions = self._positions
        rows = [tuple(row[p] for p in positions) for row in child.rows]
        result = child.derived(rows)
        result.add("rows_output", _running(len(rows)), len(rows))
        return result

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Project[" + ", ".join(self.header) + "]"


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def __post_init__(self):
        self.header = self.child.header

    def run(self) -> CountedRows:
        child = self.child.run()
        seen: set[Row] = set()
        keep: list[int] = []
        for i, row in enumerate(child.rows):
            if row not in seen:
                seen.add(row)
                keep.append(i)
        result = child.derived([child.rows[i] for i in keep], keep)
        result.add("distinct_rows", [i + 1 for i in keep], len(child.rows))
        return result

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"


def _sort_key(position: int) -> Callable[[Row], tuple]:
    """Collation of one column: NULL < booleans < numbers < strings."""

    def key(row: Row) -> tuple:
        value = row[position]
        if value is None:
            return (0, 0)
        if isinstance(value, bool):
            return (1, int(value))
        if isinstance(value, (int, float)):
            return (2, value)
        return (3, str(value))

    return key


@dataclass
class SortNode(PlanNode):
    """Blocking sort over (column, ascending) keys; NULLs sort first."""

    child: PlanNode
    keys: list[tuple[ColumnRef, bool]]

    def __post_init__(self):
        self.header = self.child.header
        self._positions = [
            (_column_position(self.header, ref), ascending) for ref, ascending in self.keys
        ]

    def run(self) -> CountedRows:
        child = self.child.run()
        rows = list(child.rows)
        for position, ascending in reversed(self._positions):
            rows.sort(key=_sort_key(position), reverse=not ascending)
        result = child.drained(rows)
        result.add("sort_rows", [len(rows)] * len(rows), len(rows))
        return result

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        keys = ", ".join(ref.sql() + ("" if asc else " DESC") for ref, asc in self.keys)
        return f"Sort[{keys}]"


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: int | None = None
    offset: int | None = None

    def __post_init__(self):
        self.header = self.child.header

    def run(self) -> CountedRows:
        child = self.child.run()
        start = self.offset or 0
        stop = len(child.rows)
        if self.limit is not None:
            stop = min(stop, start + self.limit)
        keep = list(range(start, stop))
        result = child.derived(child.rows[start:stop], keep)
        if self.limit is not None and start + self.limit < len(child.rows):
            # A streaming LIMIT pulls one child row past its cut-off before it
            # stops: the final counts are the child's at that row.
            cutoff = start + self.limit
            result.final = {
                kind: cumulative[cutoff] for kind, cumulative in child.counts.items()
            }
        return result

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return f"Limit[{self.limit}, offset={self.offset}]"


@dataclass
class AggregateNode(PlanNode):
    """Hash aggregation: GROUP BY columns + aggregate functions.

    ``group_columns`` are resolved against the child's header; each
    aggregate is ``(function, column_position_or_None, output_name)``.
    COUNT ignores NULLs when given a column and counts rows for ``*``;
    SUM/AVG/MIN/MAX ignore NULLs and yield NULL over empty groups.
    """

    child: PlanNode
    group_columns: list[ColumnRef]
    aggregates: list[tuple[str, ColumnRef | None, str]]

    def __post_init__(self):
        self._group_positions = [
            _column_position(self.child.header, ref) for ref in self.group_columns
        ]
        self._aggregate_positions = [
            (function, _column_position(self.child.header, ref) if ref is not None else None)
            for function, ref, __ in self.aggregates
        ]
        group_names = tuple(self.child.header[p] for p in self._group_positions)
        self.header = group_names + tuple(name for __, __c, name in self.aggregates)

    def run(self) -> CountedRows:
        child = self.child.run()
        groups: dict[tuple, list[_Accumulator]] = {}
        for row in child.rows:
            key = tuple(row[position] for position in self._group_positions)
            accumulators = groups.get(key)
            if accumulators is None:
                accumulators = [
                    _Accumulator(function) for function, __ in self._aggregate_positions
                ]
                groups[key] = accumulators
            for accumulator, (__, position) in zip(accumulators, self._aggregate_positions):
                accumulator.add(row[position] if position is not None else 1)
        if not groups and not self._group_positions:
            # Aggregates over an empty input yield one row of identities.
            groups[()] = [_Accumulator(function) for function, __ in self._aggregate_positions]
        rows = [
            key + tuple(accumulator.result() for accumulator in accumulators)
            for key, accumulators in groups.items()
        ]
        built = len(child.rows)
        result = child.drained(rows)
        result.add("hash_build_rows", [built] * len(rows), built)
        result.add("rows_output", _running(len(rows)), len(rows))
        return result

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        rendered = ", ".join(name for __, __c, name in self.aggregates)
        by = ", ".join(ref.sql() for ref in self.group_columns)
        return f"Aggregate[{rendered}{' BY ' + by if by else ''}]"


class _Accumulator:
    """One aggregate function's running state."""

    __slots__ = ("function", "count", "total", "minimum", "maximum")

    def __init__(self, function: str):
        self.function = function
        self.count = 0
        self.total: float | int = 0
        self.minimum: SQLValue = None
        self.maximum: SQLValue = None

    def add(self, value: SQLValue) -> None:
        if value is None:
            return
        self.count += 1
        if self.function in ("SUM", "AVG") and isinstance(value, (int, float)):
            self.total += value
        if self.function == "MIN" and (self.minimum is None or value < self.minimum):
            self.minimum = value
        if self.function == "MAX" and (self.maximum is None or value > self.maximum):
            self.maximum = value

    def result(self) -> SQLValue:
        if self.function == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if self.function == "SUM":
            return self.total
        if self.function == "AVG":
            return self.total / self.count
        if self.function == "MIN":
            return self.minimum
        return self.maximum


@dataclass
class CountNode(PlanNode):
    """COUNT(*) — consumes the child and emits a single-row count."""

    child: PlanNode

    def __post_init__(self):
        self.header = ("count",)

    def run(self) -> CountedRows:
        child = self.child.run()
        result = child.drained([(len(child.rows),)])
        result.add("rows_output", [1], 1)
        return result

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Count(*)"
