"""Pricing of one relational execution for the SQL wrapper.

A plan's :meth:`~repro.relational.executor.PlanNode.run` yields its rows with
the cumulative operation counts at each row; this module prices all rows at
once with a few NumPy array operations into per-row charge deltas.  They are
bit-identical to pricing each ``Database.query`` meter snapshot with
``CostModel.price_rdb_operations`` (``tests/relational/test_meter_golden.py``
pins this for every golden execution): counts are exact small integers, the
static kind order equals the order in which ``meter.counts`` fills (so the
priced sum adds the same terms in the same order — DESIGN.md §12), and
NumPy's elementwise float64 ``*``/``+``/``-`` are the IEEE-754 operations
the scalar code performs per row.
"""

from __future__ import annotations

import numpy as np

from ..network.costmodel import CostModel
from .executor import CountedRows, PlanNode, Row

#: (output rows, per-row charge deltas, residual charge after the last row)
PricedRows = tuple[list[Row], list[float], float]


def _price_stream(stream: CountedRows, cost_model: CostModel) -> tuple[list[float], float]:
    mapping = cost_model.rdb_price_mapping()
    n = len(stream.rows)
    if n:
        total = np.zeros(n)
        for kind in stream.order:
            price = mapping.get(kind, 0.0)
            if price:
                total = total + price * np.asarray(stream.counts[kind], dtype=np.float64)
        deltas = np.empty(n)
        deltas[0] = total[0]
        np.subtract(total[1:], total[:-1], out=deltas[1:])
        delta_list = deltas.tolist()
        last_total = float(total[-1])
    else:
        delta_list = []
        last_total = 0.0
    final_total = 0.0
    for kind in stream.order:
        final_total += mapping.get(kind, 0.0) * stream.final.get(kind, 0)
    return delta_list, final_total - last_total


def execute_priced(plan: PlanNode, cost_model: CostModel) -> PricedRows:
    """Run *plan* once; rows plus its per-row charge deltas and residual."""
    stream = plan.run()
    deltas, residual = _price_stream(stream, cost_model)
    return stream.rows, deltas, residual
