"""Relational substrate: an in-process SQL engine with indexes and statistics.

Each instance of :class:`Database` stands in for one of the paper's MySQL
containers.  The engine exposes the physical-design facts (indexes, primary
keys) that the federated optimizer's heuristics consume.
"""

from .database import Database, QueryResult
from .dump import dump_sql, load_sql, split_statements
from .executor import PlanNode, like_to_regex
from .meter import OperationMeter, OP_KINDS
from .planner import Planner, PlannerOptions
from .schema import Column, ForeignKey, IndexDef, TableSchema
from .sql.ast import (
    AndExpr,
    ColumnRef,
    Comparison,
    Constant,
    InPredicate,
    IsNullPredicate,
    JoinClause,
    LikePredicate,
    NotExpr,
    OrExpr,
    OrderItem,
    SelectItem,
    SelectStatement,
    TableRef,
    WhereExpr,
    conjunction,
    conjuncts,
)
from .sql.parser import parse_select, parse_statement
from .statistics import (
    ColumnStatistics,
    IndexAdvice,
    IndexAdvisor,
    TableStatistics,
    collect_column_statistics,
    collect_table_statistics,
)
from .storage import TableStorage
from .types import SQLType, SQLValue, coerce

__all__ = [
    "AndExpr",
    "Column",
    "ColumnRef",
    "ColumnStatistics",
    "Comparison",
    "Constant",
    "Database",
    "ForeignKey",
    "InPredicate",
    "IndexAdvice",
    "IndexAdvisor",
    "IndexDef",
    "IsNullPredicate",
    "JoinClause",
    "LikePredicate",
    "NotExpr",
    "OP_KINDS",
    "OperationMeter",
    "OrExpr",
    "OrderItem",
    "PlanNode",
    "Planner",
    "PlannerOptions",
    "QueryResult",
    "SQLType",
    "SQLValue",
    "SelectItem",
    "SelectStatement",
    "TableRef",
    "TableSchema",
    "TableStatistics",
    "TableStorage",
    "WhereExpr",
    "coerce",
    "collect_column_statistics",
    "collect_table_statistics",
    "conjunction",
    "conjuncts",
    "dump_sql",
    "load_sql",
    "split_statements",
    "like_to_regex",
    "parse_select",
    "parse_statement",
]
