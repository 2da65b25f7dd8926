"""The cost-based federated planner (``--policy cost``).

Subclasses :class:`~repro.core.planner.FederatedPlanner`, replacing the
three rule-bound decisions with estimated-cost comparisons while keeping
the exact same structural legality envelope (so every plan it emits passes
the oracle's plan-invariant checker):

* **Heuristic 1 merges** — the base planner's ``_mergeable`` still gates
  structurally (same endpoint, shared indexed join variable, table budget,
  translatable); among eligible pairs the merge advisor compares the
  virtual-time cost of shipping the merged sub-query against shipping both
  halves and hash-joining at the engine.
* **Filter placement** — any *translatable* filter may run at either side;
  the filter advisor compares source-side evaluation (index probes when
  available, per-row scans otherwise, string patterns at their expensive
  rate) plus reduced transfer against full transfer plus engine-side
  evaluation.  Unlike ``SOURCE_IF_INDEXED``, this can profitably push
  selective filters over *unindexed* attributes on slow networks — and
  keep expensive LIKE scans at the engine on fast ones.
* **Join order and method** — bushy dynamic programming (DPsize) over the
  branch's plan units, with join cardinalities from the NDV sketches
  (``|A ⋈ B| = |A|·|B| / max(ndv)`` over the shared variables) and a
  dependent-join candidate wherever the inner side is a single
  restrictable service with exactly one shared variable.  Beyond
  :data:`MAX_DP_UNITS` units the planner falls back to the base greedy
  ordering (with a note), bounding planning time.

Cardinalities prefer the :class:`~repro.optimizer.ObservedStatistics`
store over catalog estimates, which is the feedback loop: ingesting one
observed run replaces a misestimate with ground truth and the next
planning pass enumerates with correct numbers.

Everything is deterministic: DP iterates subsets in sorted order, ties
break on ``(cost, rows, canonical tree text)``, and all inputs (catalog
snapshot, observed store, constants) are plain data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING

from ..core.heuristics import MergeGroup, filter_selectivity
from ..core.planner import FederatedPlanner, _annotate, _PlanUnit
from ..core.source_selection import SelectedStar
from ..core.statskeys import join_signature, unit_signature, unit_signature_for
from ..exceptions import PlanningError, TranslationError
from ..federation.operators import DependentJoin, ServiceNode, SymmetricHashJoin
from ..mapping.translator import filter_columns, stars_variable_columns
from ..sparql.algebra import BinaryOp, FunctionCall, UnaryOp
from .cost import CostConstants, analytic_constants
from .statistics import CatalogStatistics, ObservedStatistics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalake.lake import SemanticDataLake
    from ..network.costmodel import CostModel
    from ..network.delays import NetworkSetting
    from ..core.policy import PlanPolicy

#: Above this many plan units in one branch, DPsize (O(3^n) subset splits)
#: gives way to the base planner's greedy ordering.
MAX_DP_UNITS = 10

#: String-pattern built-ins priced at the expensive source-side rate.
_STRING_FUNCTIONS = frozenset({"REGEX", "CONTAINS", "STRSTARTS", "STRENDS"})


def _has_string_predicate(expression) -> bool:
    if isinstance(expression, FunctionCall):
        if expression.name.upper() in _STRING_FUNCTIONS:
            return True
        return any(_has_string_predicate(arg) for arg in expression.args)
    if isinstance(expression, BinaryOp):
        return _has_string_predicate(expression.left) or _has_string_predicate(
            expression.right
        )
    if isinstance(expression, UnaryOp):
        return _has_string_predicate(expression.operand)
    return False


@dataclass
class _Entry:
    """One DP table entry: the best plan found for a unit subset."""

    cost: float
    rows: float
    ndv: dict[str, float]
    variables: frozenset[str]
    tree: tuple  # ("leaf", i) | ("hash", l, r, vars, rows) | ("dep", l, i, var, rows)


def _entry_key(entry: _Entry) -> tuple:
    return (entry.cost, entry.rows, repr(entry.tree))


class CostBasedPlanner(FederatedPlanner):
    """A :class:`FederatedPlanner` whose decisions come from cost estimates."""

    def __init__(
        self,
        lake: "SemanticDataLake",
        policy: "PlanPolicy",
        network: "NetworkSetting",
        catalog_stats: CatalogStatistics,
        observed: ObservedStatistics,
        cost_model: "CostModel",
        constants: CostConstants | None = None,
        debug_validate: bool | None = None,
        obs=None,
    ):
        super().__init__(lake, policy, network, debug_validate=debug_validate, obs=obs)
        self.catalog_stats = catalog_stats
        self.observed = observed
        self.constants = constants or analytic_constants(cost_model, network)
        self.merge_advisor = self._advise_merge
        self.filter_advisor = self._advise_filter

    # -- cardinalities --------------------------------------------------------

    def _rows_for(self, signature: tuple, fallback: float) -> float:
        observed = self.observed.lookup(signature)
        if observed is None:
            return max(fallback, 0.0)
        return max(observed, 0.0)

    def _build_unit(self, unit, filter_decisions) -> _PlanUnit:
        plan_unit = super()._build_unit(unit, filter_decisions)
        rows = self._rows_for(plan_unit.signature, plan_unit.estimate)
        if rows != plan_unit.estimate:
            plan_unit.estimate = rows
            _annotate(plan_unit.operator, rows)
        plan_unit.ndv = self._unit_ndv(unit, rows)
        return plan_unit

    def _unit_ndv(
        self, unit: MergeGroup | SelectedStar, rows: float
    ) -> dict[str, float]:
        """Per-variable NDV sketch of one plan unit, capped at its rows."""
        cap = max(rows, 1.0)
        if isinstance(unit, MergeGroup):
            stars = unit.stars_with_mappings()
            source_id = unit.source_id
            variables: set[str] = set()
            for star in unit.stars:
                variables |= star.variable_names()
        else:
            variables = unit.star.variable_names()
            candidate = unit.candidates[0] if unit.candidates else None
            if (
                len(unit.candidates) == 1
                and candidate.kind == "rdb"
                and candidate.class_mapping is not None
            ):
                stars = [(unit.star, candidate.class_mapping)]
                source_id = candidate.source_id
            else:
                stars = None
                source_id = ""
        columns: dict[str, tuple[str, str]] = {}
        if stars is not None:
            try:
                columns = stars_variable_columns(stars)
            except TranslationError:
                columns = {}
        ndv = {}
        for variable in variables:
            if variable in columns:
                table, column = columns[variable]
                ndv[variable] = min(
                    cap, self.catalog_stats.column_ndv(source_id, table, column)
                )
            else:
                ndv[variable] = cap
        return ndv

    # -- advisors -------------------------------------------------------------

    def _advise_merge(
        self, group, selection, candidate, est_merged, est_separate
    ) -> tuple[bool, str]:
        c = self.constants
        source_id = group.source_id
        group_fallback = min(
            float(self.lake.physical_catalog.table_rows(source_id, g.class_mapping.table))
            for g in group.candidates
        )
        group_rows = self._rows_for(
            unit_signature([source_id], group.stars), group_fallback
        )
        star_rows = self._rows_for(
            unit_signature_for(selection), float(selection.estimated_cardinality())
        )
        merged_rows = self._rows_for(
            unit_signature([source_id], list(group.stars) + [selection.star]),
            est_merged if est_merged is not None else group_fallback,
        )
        shipped_separate = group_rows + star_rows
        cost_merged = (
            c.request
            + merged_rows * (c.transfer_per_row + c.source_row)
            + shipped_separate * c.index_row_fetch  # source-side join work
        )
        cost_separate = (
            2 * c.request
            + shipped_separate * (c.transfer_per_row + c.source_row)
            + shipped_separate * c.hash_work
            + max(group_rows, star_rows) * c.join_output
        )
        merged_ms = cost_merged * 1000.0
        separate_ms = cost_separate * 1000.0
        if cost_merged <= cost_separate:
            return True, (
                f"cost-based merge: merged {merged_ms:.3f} ms <= separate "
                f"{separate_ms:.3f} ms (ship {merged_rows:.0f} vs "
                f"{group_rows:.0f}+{star_rows:.0f} rows)"
            )
        return False, (
            f"cost-based merge declined: separate {separate_ms:.3f} ms < merged "
            f"{merged_ms:.3f} ms (ship {group_rows:.0f}+{star_rows:.0f} vs "
            f"{merged_rows:.0f} rows)"
        )

    def _advise_filter(
        self, filter_, stars, source_id, est_pushed, est_engine
    ) -> tuple[bool, str]:
        c = self.constants
        base = est_engine if est_engine is not None else 0.0
        columns = filter_columns(filter_, stars)
        selectivity = self._filter_selectivity(filter_, columns, source_id)
        pushed_rows = base * selectivity
        string_predicate = _has_string_predicate(filter_.expression)
        indexed = bool(columns) and all(
            self.catalog_stats.column_indexed(source_id, table, column)
            for table, column in columns
        )
        if indexed and not string_predicate:
            source_side = c.index_probe + pushed_rows * c.index_row_fetch
        else:
            eval_cost = (
                c.source_string_filter_eval if string_predicate else c.source_filter_eval
            )
            source_side = base * eval_cost
        cost_push = source_side + pushed_rows * c.transfer_per_row
        cost_engine = base * (c.transfer_per_row + c.engine_filter_eval)
        push_ms = cost_push * 1000.0
        engine_ms = cost_engine * 1000.0
        if cost_push <= cost_engine:
            return True, (
                f"cost-based placement: source {push_ms:.3f} ms <= engine "
                f"{engine_ms:.3f} ms (est {pushed_rows:.0f} of {base:.0f} rows pass)"
            )
        return False, (
            f"cost-based placement: engine {engine_ms:.3f} ms < source "
            f"{push_ms:.3f} ms (est {pushed_rows:.0f} of {base:.0f} rows pass)"
        )

    def _filter_selectivity(self, filter_, columns, source_id) -> float:
        expression = filter_.expression
        if isinstance(expression, BinaryOp) and expression.operator == "=" and columns:
            return min(
                self.catalog_stats.equality_selectivity(source_id, table, column)
                for table, column in columns
            )
        return filter_selectivity(filter_)

    # -- join enumeration ------------------------------------------------------

    def _order_joins(self, units: list[_PlanUnit], notes: list[str]):
        if not units:
            raise PlanningError("nothing to plan: no sub-queries")
        if len(units) == 1:
            return units[0].operator
        if len(units) > MAX_DP_UNITS:
            notes.append(
                f"cost-based enumeration skipped: {len(units)} plan units exceed "
                f"the DP bound of {MAX_DP_UNITS}; greedy ordering used"
            )
            return super()._order_joins(units, notes)
        components = self._connected_components(units)
        entries = [self._enumerate(units, component) for component in components]
        entries.sort(key=_entry_key)
        result = entries[0]
        for other in entries[1:]:
            notes.append("cartesian product: no shared variables between plan units")
            result = self._hash_entry(result, other)
        root, __ = self._build(result.tree, units)
        return root

    def _connected_components(self, units: list[_PlanUnit]) -> list[list[int]]:
        remaining = list(range(len(units)))
        components: list[list[int]] = []
        while remaining:
            seed = remaining.pop(0)
            component = [seed]
            variables = set(units[seed].variables)
            grew = True
            while grew:
                grew = False
                for index in list(remaining):
                    if units[index].variables & variables:
                        remaining.remove(index)
                        component.append(index)
                        variables |= units[index].variables
                        grew = True
            components.append(sorted(component))
        return components

    def _leaf_entry(self, units: list[_PlanUnit], index: int) -> _Entry:
        c = self.constants
        unit = units[index]
        rows = max(unit.estimate, 0.0)
        ndv = unit.ndv if unit.ndv is not None else {
            variable: max(rows, 1.0) for variable in unit.variables
        }
        cost = c.request + rows * (c.transfer_per_row + c.source_row)
        return _Entry(
            cost=cost,
            rows=rows,
            ndv=dict(ndv),
            variables=frozenset(unit.variables),
            tree=("leaf", index),
        )

    def _join_rows(self, left: _Entry, right: _Entry, shared: frozenset[str]) -> float:
        cross = left.rows * right.rows
        if not shared:
            return cross
        divisor = max(
            max(
                left.ndv.get(variable, max(left.rows, 1.0)),
                right.ndv.get(variable, max(right.rows, 1.0)),
            )
            for variable in shared
        )
        return cross / max(divisor, 1.0)

    def _join_ndv(
        self, left: _Entry, right: _Entry, rows: float
    ) -> dict[str, float]:
        cap = max(rows, 1.0)
        ndv = {}
        for variable in set(left.ndv) | set(right.ndv):
            candidates = [cap]
            if variable in left.ndv:
                candidates.append(left.ndv[variable])
            if variable in right.ndv:
                candidates.append(right.ndv[variable])
            ndv[variable] = min(candidates)
        return ndv

    def _hash_entry(self, left: _Entry, right: _Entry) -> _Entry:
        c = self.constants
        shared = left.variables & right.variables
        rows = self._join_rows(left, right, shared)
        cost = (
            left.cost
            + right.cost
            + (left.rows + right.rows) * c.hash_work
            + rows * c.join_output
        )
        return _Entry(
            cost=cost,
            rows=rows,
            ndv=self._join_ndv(left, right, rows),
            variables=left.variables | right.variables,
            tree=("hash", left.tree, right.tree, tuple(sorted(shared)), rows),
        )

    def _dependent_entry(
        self, left: _Entry, units: list[_PlanUnit], index: int, variable: str
    ) -> _Entry:
        c = self.constants
        inner = self._leaf_entry(units, index)
        rows = self._join_rows(left, inner, frozenset({variable}))
        blocks = math.ceil(max(left.rows, 1.0) / self.policy.dependent_block_size)
        cost = (
            left.cost
            + blocks * (c.request + c.index_probe)
            + rows * (c.transfer_per_row + c.source_row + c.join_output)
        )
        return _Entry(
            cost=cost,
            rows=rows,
            ndv=self._join_ndv(left, inner, rows),
            variables=left.variables | inner.variables,
            tree=("dep", left.tree, index, variable, rows),
        )

    def _enumerate(self, units: list[_PlanUnit], component: list[int]) -> _Entry:
        dp: dict[frozenset[int], _Entry] = {}
        for index in component:
            dp[frozenset([index])] = self._leaf_entry(units, index)
        for size in range(2, len(component) + 1):
            for subset in combinations(component, size):
                members = list(subset)
                subset_set = frozenset(members)
                best: _Entry | None = None
                best_key = None
                # Every ordered split (left, right) of the subset; DPsize
                # over 2^size masks, deterministic by construction.
                for mask in range(1, (1 << size) - 1):
                    left_set = frozenset(
                        members[bit] for bit in range(size) if mask >> bit & 1
                    )
                    right_set = subset_set - left_set
                    left = dp[left_set]
                    right = dp[right_set]
                    candidates = [self._hash_entry(left, right)]
                    if len(right_set) == 1:
                        (inner_index,) = right_set
                        inner_unit = units[inner_index]
                        shared = left.variables & frozenset(inner_unit.variables)
                        if len(shared) == 1 and isinstance(inner_unit.operator, ServiceNode):
                            (shared_variable,) = shared
                            candidates.append(
                                self._dependent_entry(
                                    left, units, inner_index, shared_variable
                                )
                            )
                    for candidate in candidates:
                        key = _entry_key(candidate)
                        if best is None or key < best_key:
                            best = candidate
                            best_key = key
                dp[subset_set] = best
        return dp[frozenset(component)]

    def _build(self, tree: tuple, units: list[_PlanUnit]):
        """Materialize a DP tree spec into operators; returns (op, sigs)."""
        kind = tree[0]
        if kind == "leaf":
            unit = units[tree[1]]
            return unit.operator, [unit.signature]
        if kind == "hash":
            left_op, left_sigs = self._build(tree[1], units)
            right_op, right_sigs = self._build(tree[2], units)
            operator = SymmetricHashJoin(
                left=left_op, right=right_op, join_variables=tree[3]
            )
            _annotate(operator, tree[4])
            signatures = left_sigs + right_sigs
            operator.stats_signature = join_signature(signatures)
            return operator, signatures
        # kind == "dep"
        outer_op, outer_sigs = self._build(tree[1], units)
        unit = units[tree[2]]
        operator = DependentJoin(
            outer=outer_op,
            inner=unit.operator,
            join_variable=tree[3],
            block_size=self.policy.dependent_block_size,
        )
        _annotate(operator, tree[4])
        signatures = outer_sigs + [unit.signature]
        operator.stats_signature = join_signature(signatures)
        return operator, signatures
