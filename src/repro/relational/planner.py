"""Cost-based planner for single-database SQL queries.

Given a :class:`SelectStatement` and a :class:`Database`, the planner

1. classifies WHERE conjuncts into per-table predicates, equi-join
   conditions and residual filters,
2. selects an access path per table (index equality / range scan when an
   index covers the predicate, otherwise a filtered sequential scan),
3. orders joins greedily by estimated cardinality, choosing index
   nested-loop joins when the inner table has an index on its join column
   and hash joins otherwise, and
4. applies residual filters, sorting, projection, DISTINCT and LIMIT.

The planner embodies the "relational databases are designed to find
effective plans for joins and filters exploiting indexes if beneficial"
assumption the paper's Heuristic 1 builds on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..exceptions import PlanningError
from .executor import (
    AggregateNode,
    CountNode,
    DistinctNode,
    FilterNode,
    HashJoin,
    IndexNestedLoopJoin,
    IndexScan,
    LimitNode,
    PlanNode,
    ProjectNode,
    SeqScan,
    SortNode,
)
from .sql.ast import (
    AggregateCall,
    ColumnRef,
    SelectItem,
    Comparison,
    Constant,
    InPredicate,
    IsNullPredicate,
    LikePredicate,
    NotExpr,
    OrExpr,
    AndExpr,
    SelectStatement,
    WhereExpr,
    conjuncts,
)
from .statistics import TableStatistics
from .storage import TableStorage

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .database import Database

#: Default selectivity guesses when statistics cannot decide.
LIKE_PREFIX_SELECTIVITY = 0.05
LIKE_INFIX_SELECTIVITY = 0.25
COLUMN_EQ_COLUMN_SELECTIVITY = 0.1
NEGATION_SELECTIVITY = 0.9


@dataclass
class PlannerOptions:
    """Tunables for the planner (exposed for the ablation benchmarks)."""

    allow_index_scans: bool = True
    allow_index_joins: bool = True
    allow_hash_joins: bool = True


@dataclass
class _TableInfo:
    binding: str
    storage: TableStorage
    statistics: TableStatistics
    predicates: list[WhereExpr] = field(default_factory=list)

    @property
    def base_rows(self) -> int:
        return len(self.storage)


def _referenced_bindings(predicate: WhereExpr, resolver: "_ColumnResolver") -> set[str]:
    if isinstance(predicate, Comparison):
        bindings: set[str] = set()
        for operand in (predicate.left, predicate.right):
            if isinstance(operand, ColumnRef):
                bindings.add(resolver.binding_of(operand))
        return bindings
    if isinstance(predicate, (LikePredicate, InPredicate, IsNullPredicate)):
        return {resolver.binding_of(predicate.column)}
    if isinstance(predicate, NotExpr):
        return _referenced_bindings(predicate.operand, resolver)
    if isinstance(predicate, (AndExpr, OrExpr)):
        bindings = set()
        for operand in predicate.operands:
            bindings |= _referenced_bindings(operand, resolver)
        return bindings
    raise PlanningError(f"unsupported predicate {predicate!r}")


class _ColumnResolver:
    """Resolves (possibly unqualified) column refs to bindings."""

    def __init__(self, tables: dict[str, _TableInfo]):
        self._tables = tables

    def binding_of(self, ref: ColumnRef) -> str:
        if ref.table:
            if ref.table not in self._tables:
                raise PlanningError(f"unknown table alias {ref.table!r}")
            if not self._tables[ref.table].storage.schema.has_column(ref.column):
                raise PlanningError(f"no column {ref.column!r} in table {ref.table!r}")
            return ref.table
        matches = [
            binding
            for binding, info in self._tables.items()
            if info.storage.schema.has_column(ref.column)
        ]
        if not matches:
            raise PlanningError(f"unknown column {ref.column!r}")
        if len(matches) > 1:
            raise PlanningError(f"ambiguous column {ref.column!r} (in {sorted(matches)})")
        return matches[0]

    def qualify(self, ref: ColumnRef) -> ColumnRef:
        if ref.table:
            return ref
        return ColumnRef(self.binding_of(ref), ref.column)


@dataclass(frozen=True)
class _JoinEdge:
    left: ColumnRef  # qualified
    right: ColumnRef  # qualified


class Planner:
    """Builds physical plans for one database."""

    def __init__(self, database: "Database", options: PlannerOptions | None = None):
        self.database = database
        self.options = options or PlannerOptions()

    # -- public -------------------------------------------------------------

    def plan(self, statement: SelectStatement) -> PlanNode:
        tables = self._collect_tables(statement)
        resolver = _ColumnResolver(tables)
        edges, residuals = self._classify_where(statement, tables, resolver)
        root = self._plan_joins(tables, edges, resolver)
        if residuals:
            root = FilterNode(root, residuals)
        root = self._apply_modifiers(root, statement, resolver)
        return root

    # -- scaffolding ---------------------------------------------------------

    def _collect_tables(self, statement: SelectStatement) -> dict[str, _TableInfo]:
        tables: dict[str, _TableInfo] = {}
        for ref in statement.referenced_tables():
            if ref.binding in tables:
                raise PlanningError(f"duplicate table binding {ref.binding!r}")
            storage = self.database.table(ref.name)
            tables[ref.binding] = _TableInfo(
                binding=ref.binding,
                storage=storage,
                statistics=self.database.statistics(ref.name),
            )
        return tables

    def _classify_where(
        self,
        statement: SelectStatement,
        tables: dict[str, _TableInfo],
        resolver: _ColumnResolver,
    ) -> tuple[list[_JoinEdge], list[WhereExpr]]:
        edges = [
            _JoinEdge(resolver.qualify(join.left), resolver.qualify(join.right))
            for join in statement.joins
        ]
        residuals: list[WhereExpr] = []
        for predicate in conjuncts(statement.where):
            bindings = _referenced_bindings(predicate, resolver)
            if len(bindings) == 1:
                tables[next(iter(bindings))].predicates.append(predicate)
            elif (
                isinstance(predicate, Comparison)
                and predicate.operator == "="
                and isinstance(predicate.left, ColumnRef)
                and isinstance(predicate.right, ColumnRef)
                and len(bindings) == 2
            ):
                edges.append(
                    _JoinEdge(resolver.qualify(predicate.left), resolver.qualify(predicate.right))
                )
            else:
                residuals.append(predicate)
        for edge in edges:
            if resolver.binding_of(edge.left) == resolver.binding_of(edge.right):
                raise PlanningError("self-join conditions within one binding are unsupported")
        return edges, residuals

    # -- selectivity estimation ----------------------------------------------

    def _predicate_selectivity(self, info: _TableInfo, predicate: WhereExpr) -> float:
        statistics = info.statistics
        if isinstance(predicate, Comparison):
            column_ref = None
            constant = None
            for operand, other in (
                (predicate.left, predicate.right),
                (predicate.right, predicate.left),
            ):
                if isinstance(operand, ColumnRef) and isinstance(other, Constant):
                    column_ref, constant = operand, other
                    break
            if column_ref is None:
                return COLUMN_EQ_COLUMN_SELECTIVITY
            column_statistics = statistics.column(column_ref.column)
            if predicate.operator == "=":
                return column_statistics.equality_selectivity(constant.value)
            if predicate.operator == "<>":
                return 1.0 - column_statistics.equality_selectivity(constant.value)
            return column_statistics.range_selectivity()
        if isinstance(predicate, LikePredicate):
            base = (
                LIKE_INFIX_SELECTIVITY
                if predicate.pattern.startswith("%")
                else LIKE_PREFIX_SELECTIVITY
            )
            return 1.0 - base if predicate.negated else base
        if isinstance(predicate, InPredicate):
            column_statistics = statistics.column(predicate.column.column)
            each = column_statistics.equality_selectivity()
            selectivity = min(1.0, each * len(predicate.values))
            return 1.0 - selectivity if predicate.negated else selectivity
        if isinstance(predicate, IsNullPredicate):
            column_statistics = statistics.column(predicate.column.column)
            if column_statistics.row_count == 0:
                return 0.0
            fraction = column_statistics.null_count / column_statistics.row_count
            return 1.0 - fraction if predicate.negated else fraction
        if isinstance(predicate, NotExpr):
            return max(0.0, 1.0 - self._predicate_selectivity(info, predicate.operand))
        if isinstance(predicate, AndExpr):
            selectivity = 1.0
            for operand in predicate.operands:
                selectivity *= self._predicate_selectivity(info, operand)
            return selectivity
        if isinstance(predicate, OrExpr):
            selectivity = 0.0
            for operand in predicate.operands:
                selectivity += self._predicate_selectivity(info, operand)
            return min(1.0, selectivity)
        return 0.5

    def _estimated_rows(self, info: _TableInfo) -> float:
        rows = float(info.base_rows)
        for predicate in info.predicates:
            rows *= self._predicate_selectivity(info, predicate)
        return max(rows, 0.0)

    # -- access paths ---------------------------------------------------------

    def _access_path(self, info: _TableInfo) -> PlanNode:
        """Pick the cheapest access path for one table.

        Preference order: indexed equality, indexed IN list, indexed range,
        filtered sequential scan.  The predicate served by the index is
        removed from the residual list; everything else stays.
        """
        if not self.options.allow_index_scans:
            return SeqScan(info.storage, info.binding, list(info.predicates))

        equality: list[tuple[int, str, object]] = []
        in_lists: list[tuple[int, str, tuple]] = []
        ranges: list[tuple[int, str, str, object]] = []
        for position, predicate in enumerate(info.predicates):
            extracted = _constant_comparison(predicate)
            if extracted is not None:
                column, operator, value = extracted
                if operator == "=":
                    equality.append((position, column, value))
                elif operator in ("<", "<=", ">", ">="):
                    ranges.append((position, column, operator, value))
                continue
            if (
                isinstance(predicate, InPredicate)
                and not predicate.negated
                and predicate.values
                and all(value is not None for value in predicate.values)
            ):
                in_lists.append((position, predicate.column.column, predicate.values))

        def residual_without(position: int) -> list[WhereExpr]:
            return [p for index, p in enumerate(info.predicates) if index != position]

        def single_column_index(column: str, btree_only: bool = False):
            definitions = [
                d
                for d in info.storage.indexes_on(column)
                if len(d.columns) == 1 and (not btree_only or d.kind == "btree")
            ]
            return definitions[0] if definitions else None

        for position, column, value in equality:
            definition = single_column_index(column)
            if definition is not None:
                return IndexScan(
                    info.storage,
                    info.binding,
                    definition.name,
                    equality_key=(value,),
                    residual_predicates=residual_without(position),
                )
        for position, column, values in in_lists:
            definition = single_column_index(column)
            if definition is not None:
                return IndexScan(
                    info.storage,
                    info.binding,
                    definition.name,
                    # A repeated value would fetch (and return) its rows twice.
                    in_keys=[(value,) for value in dict.fromkeys(values)],
                    residual_predicates=residual_without(position),
                )
        for position, column, operator, value in ranges:
            definition = single_column_index(column, btree_only=True)
            if definition is not None:
                low = high = None
                include_low = include_high = True
                if operator in (">", ">="):
                    low, include_low = (value,), operator == ">="
                else:
                    high, include_high = (value,), operator == "<="
                return IndexScan(
                    info.storage,
                    info.binding,
                    definition.name,
                    range_low=low,
                    range_high=high,
                    include_low=include_low,
                    include_high=include_high,
                    residual_predicates=residual_without(position),
                )
        return SeqScan(info.storage, info.binding, list(info.predicates))

    # -- joins ------------------------------------------------------------------

    def _plan_joins(
        self,
        tables: dict[str, _TableInfo],
        edges: list[_JoinEdge],
        resolver: _ColumnResolver,
    ) -> PlanNode:
        if len(tables) == 1:
            return self._access_path(next(iter(tables.values())))

        estimates = {binding: self._estimated_rows(info) for binding, info in tables.items()}
        start = min(estimates, key=estimates.get)
        joined = {start}
        root = self._access_path(tables[start])
        current_estimate = estimates[start]
        remaining_edges = list(edges)

        while len(joined) < len(tables):
            chosen: tuple[_JoinEdge, str, ColumnRef, ColumnRef] | None = None
            best_estimate = None
            for edge in remaining_edges:
                left_binding = resolver.binding_of(edge.left)
                right_binding = resolver.binding_of(edge.right)
                if left_binding in joined and right_binding not in joined:
                    candidate = (edge, right_binding, edge.left, edge.right)
                elif right_binding in joined and left_binding not in joined:
                    candidate = (edge, left_binding, edge.right, edge.left)
                else:
                    continue
                estimate = estimates[candidate[1]]
                if best_estimate is None or estimate < best_estimate:
                    chosen = candidate
                    best_estimate = estimate
            if chosen is None:
                missing = sorted(set(tables) - joined)
                raise PlanningError(
                    f"query requires a cartesian product to reach table(s) {missing}"
                )
            edge, new_binding, outer_key, inner_key = chosen
            remaining_edges.remove(edge)
            info = tables[new_binding]
            root = self._join(root, info, outer_key, inner_key, current_estimate)
            joined.add(new_binding)
            current_estimate = max(
                1.0, current_estimate * estimates[new_binding] / max(info.base_rows, 1)
            )
            # Consume any further edges now internal to the joined set as residuals.
            internal = [
                e
                for e in remaining_edges
                if resolver.binding_of(e.left) in joined and resolver.binding_of(e.right) in joined
            ]
            for extra in internal:
                remaining_edges.remove(extra)
                root = FilterNode(root, [Comparison("=", extra.left, extra.right)])
        return root

    def _join(
        self,
        outer: PlanNode,
        info: _TableInfo,
        outer_key: ColumnRef,
        inner_key: ColumnRef,
        outer_estimate: float,
    ) -> PlanNode:
        inner_column = inner_key.column
        index_definitions = [
            d for d in info.storage.indexes_on(inner_column) if len(d.columns) == 1
        ]
        use_index_join = (
            self.options.allow_index_joins
            and index_definitions
            and (
                not self.options.allow_hash_joins
                or outer_estimate <= max(len(info.storage), 1)
            )
        )
        if use_index_join:
            return IndexNestedLoopJoin(
                outer=outer,
                storage=info.storage,
                binding=info.binding,
                index_name=index_definitions[0].name,
                outer_key=outer_key,
                inner_predicates=list(info.predicates),
            )
        if not self.options.allow_hash_joins:
            raise PlanningError(
                f"no index on {info.binding}.{inner_column} and hash joins are disabled"
            )
        inner = self._access_path(info)
        return HashJoin(left=inner, right=outer, left_key=inner_key, right_key=outer_key)

    # -- modifiers -----------------------------------------------------------------

    def _apply_modifiers(
        self,
        root: PlanNode,
        statement: SelectStatement,
        resolver: _ColumnResolver,
    ) -> PlanNode:
        if statement.count_star:
            return CountNode(root)
        if statement.has_aggregates() or statement.group_by:
            return self._apply_aggregation(root, statement, resolver)
        if statement.order_by:
            keys = []
            for item in statement.order_by:
                ref = self._resolve_order_column(item.column, statement, resolver)
                keys.append((ref, item.ascending))
            root = SortNode(root, keys)
        if statement.items is None:
            columns = [ColumnRef(*name.split(".", 1)) for name in root.header]
            output_names = list(root.header)
        else:
            columns = [resolver.qualify(item.expr) for item in statement.items]
            output_names = [item.output_name for item in statement.items]
        root = ProjectNode(root, columns, output_names)
        if statement.distinct:
            root = DistinctNode(root)
        if statement.limit is not None or statement.offset is not None:
            root = LimitNode(root, statement.limit, statement.offset)
        return root

    def _apply_aggregation(
        self,
        root: PlanNode,
        statement: SelectStatement,
        resolver: _ColumnResolver,
    ) -> PlanNode:
        """GROUP BY + aggregate pipeline: Aggregate -> Sort -> Project -> Limit."""
        if statement.items is None:
            raise PlanningError("GROUP BY requires an explicit select list")
        group_refs = [resolver.qualify(ref) for ref in statement.group_by]
        group_names = {ref.qualified() for ref in group_refs}
        aggregates: list[tuple[str, ColumnRef | None, str]] = []
        output_columns: list[ColumnRef] = []
        output_names: list[str] = []
        for item in statement.items:
            if isinstance(item, AggregateCall):
                column = resolver.qualify(item.column) if item.column is not None else None
                name = item.output_name
                aggregates.append((item.function, column, name))
                output_columns.append(ColumnRef(None, name))
                output_names.append(name)
            else:
                qualified = resolver.qualify(item.expr)
                if qualified.qualified() not in group_names:
                    raise PlanningError(
                        f"column {item.expr.sql()} must appear in GROUP BY "
                        "or inside an aggregate"
                    )
                output_columns.append(qualified)
                output_names.append(item.output_name)
        root = AggregateNode(root, group_refs, aggregates)
        if statement.having is not None:
            # HAVING references select-list aliases / aggregate output names,
            # which the aggregate header exposes directly.
            root = FilterNode(root, [statement.having])
        if statement.order_by:
            keys = []
            for order_item in statement.order_by:
                # Resolve against the aggregate header (group columns keep
                # their qualified names; aggregate outputs are plain names).
                keys.append((order_item.column, order_item.ascending))
            root = SortNode(root, keys)
        root = ProjectNode(root, output_columns, output_names)
        if statement.distinct:
            root = DistinctNode(root)
        if statement.limit is not None or statement.offset is not None:
            root = LimitNode(root, statement.limit, statement.offset)
        return root

    def _resolve_order_column(
        self,
        ref: ColumnRef,
        statement: SelectStatement,
        resolver: _ColumnResolver,
    ) -> ColumnRef:
        if ref.table is None and statement.items is not None:
            for item in statement.items:
                if isinstance(item, SelectItem) and item.alias == ref.column:
                    return resolver.qualify(item.expr)
        return resolver.qualify(ref)


def _constant_comparison(predicate: WhereExpr) -> tuple[str, str, object] | None:
    """Extract ``(column, operator, value)`` from a column-vs-constant
    comparison, normalizing the column to the left side."""
    if not isinstance(predicate, Comparison):
        return None
    if isinstance(predicate.left, ColumnRef) and isinstance(predicate.right, Constant):
        if predicate.right.value is None:
            return None
        return (predicate.left.column, predicate.operator, predicate.right.value)
    if isinstance(predicate.right, ColumnRef) and isinstance(predicate.left, Constant):
        if predicate.left.value is None:
            return None
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<=", "=": "=", "<>": "<>"}
        return (predicate.right.column, flipped[predicate.operator], predicate.left.value)
    return None
