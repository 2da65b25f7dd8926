"""Federation layer: wrappers, adaptive operators, answers and statistics."""

from .answers import ExecutionStats, RunContext, Solution, SourceStats
from .endpoints import DataSource, RDFSource, RelationalSource
from .operators import (
    DependentJoin,
    Distinct,
    EngineFilter,
    FedOperator,
    LeftJoin,
    Limit,
    OrderBy,
    Project,
    ServiceNode,
    SymmetricHashJoin,
    Union,
)
from .wrappers import SPARQLWrapper, SQLWrapper, StarRequest

__all__ = [
    "DataSource",
    "DependentJoin",
    "Distinct",
    "EngineFilter",
    "ExecutionStats",
    "FedOperator",
    "LeftJoin",
    "Limit",
    "OrderBy",
    "Project",
    "RDFSource",
    "RelationalSource",
    "RunContext",
    "SPARQLWrapper",
    "SQLWrapper",
    "ServiceNode",
    "Solution",
    "SourceStats",
    "StarRequest",
    "SymmetricHashJoin",
    "Union",
]
