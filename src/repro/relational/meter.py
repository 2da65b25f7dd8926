"""Operation metering for the relational executor.

The substrate counts *operations* (rows scanned, index probes, filter
evaluations, ...); the federation layer prices those counts into virtual
time using :class:`repro.network.costmodel.CostModel`.  Separating counting
from pricing keeps the relational engine usable standalone and lets
benchmarks re-price a single execution under different cost assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Operation kinds the executor reports.
OP_KINDS = (
    "rows_scanned",
    "index_probes",
    "index_row_fetches",
    "filter_evals",
    "string_filter_evals",
    "hash_build_rows",
    "hash_probe_rows",
    "join_output_rows",
    "sort_rows",
    "distinct_rows",
    "rows_output",
)


@dataclass
class OperationMeter:
    """Mutable counter of executor operations.

    ``PlanNode.execute`` replays a plan's counts into it row by row;
    observers may read :attr:`counts` between pulls to price incremental
    work (that is how the SQL wrapper advances the virtual clock per
    produced answer).
    """

    counts: dict[str, int] = field(default_factory=dict)

    def count(self, kind: str, amount: int = 1) -> None:
        if amount:
            self.counts[kind] = self.counts.get(kind, 0) + amount

    def get(self, kind: str) -> int:
        return self.counts.get(kind, 0)
