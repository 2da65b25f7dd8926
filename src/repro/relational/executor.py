"""Physical operators of the relational engine.

Every operator is a node with a ``header`` (tuple of ``binding.column``
names) and an ``execute(meter)`` method yielding row tuples.  Operators
stream; blocking ones (sort, hash-join build) materialize only what they
must.  Each unit of work is reported to the :class:`OperationMeter` so the
federation layer can price executions into virtual time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

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


@lru_cache(maxsize=512)
def like_to_regex(pattern: str) -> re.Pattern:
    """Compile a SQL LIKE pattern (``%``, ``_``) into an anchored regex.

    Memoized: predicate compilation runs once per operator per execution,
    so the same LIKE pattern would otherwise be recompiled on every query.
    """
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


def _is_string_predicate(predicate: WhereExpr) -> bool:
    """True for predicates that do per-row string *pattern* work (LIKE).

    The distinction feeds the cost model: the paper observed that string
    filtering is comparatively expensive inside the RDBMS — that is the
    pattern-matching path (LIKE with wildcards), not hash-comparable
    equality, which stays on the cheap ``filter_evals`` meter.
    """
    return isinstance(predicate, LikePredicate)


def compile_predicate(header: Header, predicate: WhereExpr) -> Callable[[Row], bool]:
    """Compile a WHERE expression into a row predicate closure.

    Compiled closures are pure functions of (header, predicate) — the AST
    nodes are frozen dataclasses — so compilation is memoized across
    queries.  Constants that happen to be unhashable fall back to direct
    compilation.
    """
    try:
        return _compile_predicate_memo(header, predicate)
    except TypeError:
        return _compile_predicate(header, predicate)


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


_compile_predicate_memo = lru_cache(maxsize=2048)(_compile_predicate)


# ---------------------------------------------------------------------------
# Plan nodes
# ---------------------------------------------------------------------------


class PlanNode:
    """Base physical operator: a header plus an execute() stream."""

    header: Header

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        raise NotImplementedError

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
        self._compiled = [compile_predicate(self.header, p) for p in self.predicates]
        self._string_flags = [_is_string_predicate(p) for p in self.predicates]

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        compiled = self._compiled
        string_flags = self._string_flags
        for __, row in self.storage.scan():
            meter.count("rows_scanned")
            accepted = True
            for predicate, is_string in zip(compiled, string_flags):
                meter.count("string_filter_evals" if is_string else "filter_evals")
                if not predicate(row):
                    accepted = False
                    break
            if accepted:
                yield row

    def label(self) -> str:
        rendered = " AND ".join(p.sql() for p in self.predicates)
        suffix = f" [{rendered}]" if rendered else ""
        return f"SeqScan({self.storage.schema.name} AS {self.binding}){suffix}"


@dataclass
class IndexScan(PlanNode):
    """Index-backed access: equality lookup or B-tree range scan."""

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
        self._compiled = [compile_predicate(self.header, p) for p in self.residual_predicates]
        self._string_flags = [_is_string_predicate(p) for p in self.residual_predicates]

    def _row_ids(self, meter: OperationMeter) -> Iterator[int]:
        index = self.storage.index(self.index_name)
        if self.equality_key is not None:
            meter.count("index_probes")
            yield from index.lookup(self.equality_key)
            return
        if self.in_keys is not None:
            for key in self.in_keys:
                meter.count("index_probes")
                yield from index.lookup(key)
            return
        meter.count("index_probes")
        if not isinstance(index, BTreeIndex):
            raise ExecutionError(f"index {self.index_name!r} cannot serve range scans")
        yield from index.scan_range(
            self.range_low, self.range_high, self.include_low, self.include_high
        )

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        for row_id in self._row_ids(meter):
            meter.count("index_row_fetches")
            row = self.storage.row(row_id)
            accepted = True
            for predicate, is_string in zip(self._compiled, self._string_flags):
                meter.count("string_filter_evals" if is_string else "filter_evals")
                if not predicate(row):
                    accepted = False
                    break
            if accepted:
                yield row

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
    """Residual predicate applied on top of a child stream."""

    child: PlanNode
    predicates: list[WhereExpr]

    def __post_init__(self):
        self.header = self.child.header
        self._compiled = [compile_predicate(self.header, p) for p in self.predicates]
        self._string_flags = [_is_string_predicate(p) for p in self.predicates]

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        for row in self.child.execute(meter):
            accepted = True
            for predicate, is_string in zip(self._compiled, self._string_flags):
                meter.count("string_filter_evals" if is_string else "filter_evals")
                if not predicate(row):
                    accepted = False
                    break
            if accepted:
                yield row

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

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        table: dict[SQLValue, list[Row]] = {}
        for row in self.left.execute(meter):
            meter.count("hash_build_rows")
            key = row[self._left_position]
            if key is not None:
                table.setdefault(key, []).append(row)
        for row in self.right.execute(meter):
            meter.count("hash_probe_rows")
            key = row[self._right_position]
            if key is None:
                continue
            for matched in table.get(key, ()):
                meter.count("join_output_rows")
                yield matched + row

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
        self._compiled = [compile_predicate(inner_header, p) for p in self.inner_predicates]
        self._string_flags = [_is_string_predicate(p) for p in self.inner_predicates]

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        index = self.storage.index(self.index_name)
        for outer_row in self.outer.execute(meter):
            key = outer_row[self._outer_position]
            if key is None:
                continue
            meter.count("index_probes")
            for row_id in index.lookup((key,)):
                meter.count("index_row_fetches")
                inner_row = self.storage.row(row_id)
                accepted = True
                for predicate, is_string in zip(self._compiled, self._string_flags):
                    meter.count("string_filter_evals" if is_string else "filter_evals")
                    if not predicate(inner_row):
                        accepted = False
                        break
                if accepted:
                    meter.count("join_output_rows")
                    yield outer_row + inner_row

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

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        positions = self._positions
        for row in self.child.execute(meter):
            meter.count("rows_output")
            yield tuple(row[position] for position in positions)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Project[" + ", ".join(self.header) + "]"


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def __post_init__(self):
        self.header = self.child.header

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        seen: set[Row] = set()
        for row in self.child.execute(meter):
            meter.count("distinct_rows")
            if row not in seen:
                seen.add(row)
                yield row

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"


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

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        rows = list(self.child.execute(meter))
        meter.count("sort_rows", len(rows))

        def key_for(position: int) -> Callable[[Row], tuple]:
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

        for position, ascending in reversed(self._positions):
            rows.sort(key=key_for(position), reverse=not ascending)
        yield from rows

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

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        skipped = 0
        produced = 0
        for row in self.child.execute(meter):
            if self.offset and skipped < self.offset:
                skipped += 1
                continue
            if self.limit is not None and produced >= self.limit:
                return
            produced += 1
            yield row

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

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        groups: dict[tuple, list[_Accumulator]] = {}
        for row in self.child.execute(meter):
            meter.count("hash_build_rows")
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
        for key, accumulators in groups.items():
            meter.count("rows_output")
            yield key + tuple(accumulator.result() for accumulator in accumulators)

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

    def execute(self, meter: OperationMeter) -> Iterator[Row]:
        count = 0
        for __ in self.child.execute(meter):
            count += 1
        meter.count("rows_output")
        yield (count,)

    def children(self) -> list[PlanNode]:
        return [self.child]

    def label(self) -> str:
        return "Count(*)"
