"""The `Database` facade: DDL, DML, querying and statistics.

One :class:`Database` instance plays the role of one MySQL container in the
paper's setup — each LSLOD data set gets its own database, queried through
the federation's SQL wrapper.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..exceptions import CatalogError, SchemaError
from .executor import PlanNode, Row
from .meter import OperationMeter
from .planner import Planner, PlannerOptions
from .schema import Column, ForeignKey, IndexDef, TableSchema
from .sql.ast import (
    CreateIndexStatement,
    CreateTableStatement,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .executor import compile_predicate
from .sql.parser import parse_statement
from .statistics import (
    IndexAdvice,
    IndexAdvisor,
    TableStatistics,
    collect_table_statistics,
)
from .storage import TableStorage
from .types import SQLType, SQLValue


class QueryResult:
    """A streaming query result: header plus an iterator of rows."""

    def __init__(self, header: tuple[str, ...], rows: Iterator[Row]):
        self.header = header
        self._rows = rows

    def __iter__(self) -> Iterator[Row]:
        return self._rows

    def fetchall(self) -> list[Row]:
        return list(self._rows)

    def as_dicts(self) -> Iterator[dict[str, SQLValue]]:
        short_names = [name.rpartition(".")[2] for name in self.header]
        for row in self._rows:
            yield dict(zip(short_names, row))


class Database:
    """An in-process relational database with a SQL interface.

    Example:
        >>> db = Database("diseasome")
        >>> db.execute("CREATE TABLE gene (id INTEGER PRIMARY KEY, name TEXT)")
        >>> db.execute("INSERT INTO gene VALUES (1, 'BRCA1')")
        1
        >>> db.query("SELECT name FROM gene WHERE id = 1").fetchall()
        [('BRCA1',)]
    """

    def __init__(self, name: str, planner_options: PlannerOptions | None = None):
        self.name = name
        self._tables: dict[str, TableStorage] = {}
        #: table -> (storage version, statistics): a write through any path
        #: moves the version; drop_table forgets the entry.
        self._statistics: dict[str, tuple[int, TableStatistics]] = {}
        self._data_version = 0
        self.planner = Planner(self, planner_options)

    @property
    def data_version(self) -> int:
        """Monotonic counter of result-affecting changes to this database.

        Bumped by every INSERT/DELETE/UPDATE, CREATE/DROP INDEX, and
        CREATE/DROP TABLE — including DML issued directly against a
        :class:`TableStorage` obtained via :meth:`table` (storages report
        changes back through their ``on_change`` hook).  The federation's
        sub-result caches and run scripts embed this value in their keys,
        so any write silently invalidates every answer cached over this
        source; heuristic plans key on the lake's design version instead.
        """
        return self._data_version

    def _bump_data_version(self) -> None:
        self._data_version += 1

    # -- catalog --------------------------------------------------------------

    def table(self, name: str) -> TableStorage:
        if name not in self._tables:
            raise CatalogError(f"no table {name!r} in database {self.name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def indexes(self, table: str) -> dict[str, IndexDef]:
        return self.table(table).indexes

    def has_index_on(self, table: str, column: str) -> bool:
        """True when *column* is the leading column of some index of *table*.

        This is the physical-design fact the paper's heuristics consult.
        """
        return self.table(table).has_index_on(column)

    # -- DDL --------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        foreign_keys: Sequence[ForeignKey] = (),
    ) -> TableSchema:
        if name in self._tables:
            raise SchemaError(f"table {name!r} already exists in database {self.name!r}")
        schema = TableSchema(
            name=name,
            columns=list(columns),
            primary_key=tuple(primary_key),
            foreign_keys=list(foreign_keys),
        )
        self._tables[name] = TableStorage(schema, on_change=self._bump_data_version)
        self._bump_data_version()
        return schema

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise SchemaError(f"no table {name!r} in database {self.name!r}")
        del self._tables[name]
        self._statistics.pop(name, None)
        self._bump_data_version()

    def create_index(
        self,
        table: str,
        columns: Sequence[str],
        name: str | None = None,
        unique: bool = False,
        kind: str = "btree",
    ) -> IndexDef:
        storage = self.table(table)
        index_name = name or f"ix_{table}_{'_'.join(columns)}"
        definition = IndexDef(
            name=index_name, table=table, columns=tuple(columns), unique=unique, kind=kind
        )
        storage.create_index(definition)
        return definition

    def drop_index(self, table: str, name: str) -> None:
        self.table(table).drop_index(name)

    # -- DML ---------------------------------------------------------------------

    def insert(self, table: str, values: Mapping[str, SQLValue] | Sequence[SQLValue]) -> int:
        return self.table(table).insert(values)

    def insert_many(
        self, table: str, rows: Sequence[Mapping[str, SQLValue] | Sequence[SQLValue]]
    ) -> int:
        storage = self.table(table)
        for row in rows:
            storage.insert(row)
        return len(rows)

    # -- statistics ----------------------------------------------------------------

    def statistics(self, table: str) -> TableStatistics:
        """Cached ANALYZE output for *table* (recomputed after any write)."""
        storage = self.table(table)
        cached = self._statistics.get(table)
        if cached is not None and cached[0] == storage.version:
            return cached[1]
        statistics = collect_table_statistics(storage)
        self._statistics[table] = (storage.version, statistics)
        return statistics

    def analyze(self) -> None:
        """Refresh statistics for every table."""
        for table in self._tables:
            self.statistics(table)

    def advise_index(
        self, table: str, column: str, max_value_fraction: float = 0.15
    ) -> IndexAdvice:
        """Run the 15 %-rule index advisor on one column."""
        advisor = IndexAdvisor(max_value_fraction)
        return advisor.advise(self.table(table), column)

    def create_advised_indexes(
        self, table: str, columns: Sequence[str], max_value_fraction: float = 0.15
    ) -> list[IndexAdvice]:
        """Advise each candidate column and create indexes where advised."""
        advices = []
        for column in columns:
            advice = self.advise_index(table, column, max_value_fraction)
            if advice.create and not self.table(table).has_index_on(column):
                self.create_index(table, [column])
            advices.append(advice)
        return advices

    # -- querying --------------------------------------------------------------------

    def plan(self, statement: SelectStatement | str) -> PlanNode:
        """Plan a SELECT without executing it (EXPLAIN support)."""
        if isinstance(statement, str):
            parsed = parse_statement(statement)
            if not isinstance(parsed, SelectStatement):
                raise SchemaError("plan() expects a SELECT statement")
            statement = parsed
        return self.planner.plan(statement)

    def explain(self, statement: SelectStatement | str) -> str:
        return self.plan(statement).explain()

    def query(
        self,
        statement: SelectStatement | str,
        meter: OperationMeter | None = None,
    ) -> QueryResult:
        """Execute a SELECT; *meter* holds, after each pulled row, the work a
        streaming execution would have done up to that row.

        The federation never calls this: its SQL wrapper plans the statement
        and prices the whole run at once (``vexecutor.execute_priced``).  The
        per-row meter replay serves direct callers — tests (which pin the
        counts and the pricing against it), ``benchmarks/`` and
        ``examples/``."""
        plan = self.plan(statement)
        return QueryResult(plan.header, plan.execute(meter))

    def execute(self, statement: Statement | str, meter: OperationMeter | None = None):
        """Execute any supported statement.

        Returns a :class:`QueryResult` for SELECT, the inserted row count for
        INSERT, and None for DDL.
        """
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if isinstance(statement, SelectStatement):
            return self.query(statement, meter)
        if isinstance(statement, InsertStatement):
            storage = self.table(statement.table)
            for row in statement.rows:
                if statement.columns:
                    storage.insert(dict(zip(statement.columns, row)))
                else:
                    storage.insert(row)
            return len(statement.rows)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement)
        if isinstance(statement, CreateTableStatement):
            columns = [
                Column(c.name, c.sql_type, nullable=c.nullable and not c.primary_key)
                for c in statement.columns
            ]
            primary_key = statement.primary_key or tuple(
                c.name for c in statement.columns if c.primary_key
            )
            foreign_keys = [
                ForeignKey(column, referenced_table, referenced_column)
                for column, referenced_table, referenced_column in statement.foreign_keys
            ]
            self.create_table(statement.table, columns, primary_key, foreign_keys)
            return None
        if isinstance(statement, CreateIndexStatement):
            self.create_index(
                statement.table,
                statement.columns,
                name=statement.name,
                unique=statement.unique,
            )
            return None
        raise SchemaError(f"unsupported statement {statement!r}")

    def _matching_row_ids(self, storage: TableStorage, where) -> list[int]:
        if where is None:
            return [row_id for row_id, __ in storage.scan()]
        header = tuple(
            f"{storage.schema.name}.{name}" for name in storage.schema.column_names
        )
        predicate = compile_predicate(header, where)
        return [row_id for row_id, row in storage.scan() if predicate(row)]

    def _execute_update(self, statement: UpdateStatement) -> int:
        """UPDATE: delete + re-insert matching rows with new values.

        Note: the engine has no transactions; a constraint violation during
        re-insertion aborts mid-statement (already-updated rows stay).
        """
        storage = self.table(statement.table)
        positions = {
            column: storage.schema.column_index(column)
            for column, __ in statement.assignments
        }
        row_ids = self._matching_row_ids(storage, statement.where)
        for row_id in row_ids:
            old_row = list(storage.row(row_id))
            for column, value in statement.assignments:
                old_row[positions[column]] = value
            storage.delete(row_id)
            storage.insert(old_row)
        return len(row_ids)

    def _execute_delete(self, statement: DeleteStatement) -> int:
        storage = self.table(statement.table)
        row_ids = self._matching_row_ids(storage, statement.where)
        for row_id in row_ids:
            storage.delete(row_id)
        return len(row_ids)

    def __repr__(self) -> str:
        return f"Database({self.name!r}, tables={self.table_names})"
