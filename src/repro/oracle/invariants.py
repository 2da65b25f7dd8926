"""Plan-invariant checker — structural audits for every produced plan.

Deliberately *independent* of :mod:`repro.core.heuristics`: the placement
and merge rules are re-derived here from the physical-design catalog, the
policy and the network setting, so a bug (or an injected fault) in the
planner's implementation of Heuristic 1/2 is caught by disagreement rather
than reproduced.  The checks:

1. **Coverage** — every star-shaped sub-query of the decomposition is
   covered by exactly one plan unit (merged group or selected star).
2. **Heuristic 1** — a merged group only contains same-endpoint relational
   stars, pairwise connected through column-backed join variables with an
   index on at least one side, within the policy's table budget.
3. **Heuristic 2** — every logged filter placement matches the placement
   the policy/catalog/network state implies.
4. **Join orderings** — dependent joins bind their join variable on the
   outer side before probing the inner service; hash joins only key on
   variables both sides can produce.

The planner runs these automatically in debug-validate mode (construct the
engine/planner with ``debug_validate=True`` or set
``REPRO_DEBUG_VALIDATE=1``), raising
:class:`~repro.exceptions.InvariantViolation` on any finding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.decomposer import Decomposition, StarSubquery
from ..core.heuristics import MergeGroup
from ..core.policy import FilterPlacement
from ..core.source_selection import SelectedStar
from ..exceptions import InvariantViolation, TranslationError
from ..federation.operators import (
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
from ..mapping.translator import (
    can_translate_filter,
    filter_columns,
    stars_variable_columns,
)
from ..sparql.algebra import Filter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.planner import FederatedPlan
    from ..datalake.lake import SemanticDataLake


def check_plan(plan: "FederatedPlan", lake: "SemanticDataLake") -> list[str]:
    """Audit *plan* against the planner invariants; returns violations."""
    violations: list[str] = []
    violations.extend(_check_coverage(plan))
    for unit in plan.units:
        if isinstance(unit, MergeGroup):
            violations.extend(_check_merge_group(unit, plan, lake))
    violations.extend(_check_filter_placements(plan, lake))
    violations.extend(_check_join_orderings(plan.root))
    return violations


def assert_plan_valid(plan: "FederatedPlan", lake: "SemanticDataLake") -> None:
    """Raise :class:`InvariantViolation` when :func:`check_plan` finds any."""
    violations = check_plan(plan, lake)
    if violations:
        raise InvariantViolation(violations)


# ---------------------------------------------------------------------------
# 1. Every SSQ covered by exactly one plan unit
# ---------------------------------------------------------------------------


def _decomposition_stars(decomposition: Decomposition) -> list[StarSubquery]:
    stars = list(decomposition.subqueries)
    for optional in decomposition.optional_groups:
        stars.extend(_decomposition_stars(optional))
    for branch in decomposition.union_branches:
        stars.extend(_decomposition_stars(branch))
    return stars


def _unit_stars(unit: MergeGroup | SelectedStar) -> list[StarSubquery]:
    if isinstance(unit, MergeGroup):
        return list(unit.stars)
    return [unit.star]


def _check_coverage(plan: "FederatedPlan") -> list[str]:
    violations = []
    expected = _decomposition_stars(plan.decomposition)
    covered: dict[int, int] = {}
    for unit in plan.units:
        for star in _unit_stars(unit):
            covered[id(star)] = covered.get(id(star), 0) + 1
    for star in expected:
        count = covered.pop(id(star), 0)
        if count == 0:
            violations.append(f"star {star.subject_name} is covered by no plan unit")
        elif count > 1:
            violations.append(
                f"star {star.subject_name} is covered by {count} plan units"
            )
    if covered:
        violations.append(
            f"{len(covered)} plan unit star(s) do not belong to the decomposition"
        )
    return violations


# ---------------------------------------------------------------------------
# 2. Heuristic 1 preconditions on every merged group
# ---------------------------------------------------------------------------


def _check_merge_group(
    group: MergeGroup, plan: "FederatedPlan", lake: "SemanticDataLake"
) -> list[str]:
    violations = []
    label = f"merge group on {group.source_id!r}"
    catalog = lake.physical_catalog
    if not plan.policy.merge_same_source_joins:
        violations.append(f"{label}: policy does not allow Heuristic 1 merges")

    for candidate in group.candidates:
        if candidate.source_id != group.source_id:
            violations.append(
                f"{label}: member star selected on foreign source {candidate.source_id!r}"
            )
        if candidate.kind != "rdb":
            violations.append(f"{label}: member star is not relational")

    stars = group.stars_with_mappings()
    columns_per_star: list[dict[str, tuple[str, str]] | None] = []
    for star, mapping in stars:
        try:
            columns_per_star.append(stars_variable_columns([(star, mapping)]))
        except TranslationError as exc:
            columns_per_star.append(None)
            violations.append(f"{label}: member star not translatable ({exc})")

    # Pairwise: every shared join variable must be column-backed on both
    # sides and indexed on at least one (the heuristic's core condition).
    connected = {0} if stars else set()
    for a in range(len(stars)):
        for b in range(a + 1, len(stars)):
            star_a, __ = stars[a]
            star_b, __ = stars[b]
            shared = star_a.join_variables(star_b)
            if not shared:
                continue
            connected.update((a, b))
            columns_a, columns_b = columns_per_star[a], columns_per_star[b]
            if columns_a is None or columns_b is None:
                continue
            for variable in sorted(shared):
                if variable not in columns_a or variable not in columns_b:
                    violations.append(
                        f"{label}: join variable ?{variable} is not column-backed "
                        f"on both merged stars"
                    )
                    continue
                table_a, column_a = columns_a[variable]
                table_b, column_b = columns_b[variable]
                if not (
                    catalog.is_indexed(group.source_id, table_a, column_a)
                    or catalog.is_indexed(group.source_id, table_b, column_b)
                ):
                    violations.append(
                        f"{label}: merged on unindexed join attribute ?{variable} "
                        f"({table_a}.{column_a} / {table_b}.{column_b})"
                    )
    # Connectivity: growing the group star by star requires each member to
    # share a variable with some other member.
    for position in range(len(stars)):
        if position not in connected and len(stars) > 1:
            violations.append(
                f"{label}: member star {stars[position][0].subject_name} shares no "
                f"join variable with the rest of the group"
            )

    tables = {mapping.table for __, mapping in stars}
    satellites = 0
    for star, mapping in stars:
        for pattern in star.patterns:
            if mapping.has_predicate(pattern.predicate):
                if mapping.predicate_mapping(pattern.predicate).kind == "multivalued":
                    satellites += 1
    if len(tables) + satellites > plan.policy.max_merged_tables:
        violations.append(
            f"{label}: joins {len(tables) + satellites} tables, over the policy "
            f"budget of {plan.policy.max_merged_tables}"
        )
    return violations


# ---------------------------------------------------------------------------
# 3. Heuristic 2: logged filter placements match the policy/catalog/network
# ---------------------------------------------------------------------------


def _expected_placement(
    filter_: Filter,
    stars,
    source_id: str,
    plan: "FederatedPlan",
    lake: "SemanticDataLake",
) -> bool | None:
    """Re-derive where this filter belongs (True = pushed to the source).

    Returns ``None`` when the placement is legitimately open: under
    :attr:`FilterPlacement.COST` the optimizer may put any *translatable*
    filter on either side, so only structural legality is checkable (an
    untranslatable filter must still stay at the engine).
    """
    placement = plan.policy.filter_placement
    if placement is FilterPlacement.ENGINE:
        return False
    if not can_translate_filter(filter_, stars):
        return False
    if placement is FilterPlacement.COST:
        return None
    if placement is FilterPlacement.SOURCE:
        return True
    columns = filter_columns(filter_, stars)
    if not columns:
        return False
    catalog = lake.physical_catalog
    if any(not catalog.is_indexed(source_id, table, column) for table, column in columns):
        return False
    if placement is FilterPlacement.SOURCE_IF_INDEXED:
        return True
    return plan.network.is_slow  # FilterPlacement.HEURISTIC2


def _check_filter_placements(plan: "FederatedPlan", lake: "SemanticDataLake") -> list[str]:
    # Context per relational sub-query: which stars (with mappings) a
    # filter was placed against, keyed by source.
    contexts: list[tuple[str, list, list[Filter]]] = []
    for unit in plan.units:
        if isinstance(unit, MergeGroup):
            filters = [f for star in unit.stars for f in star.filters]
            contexts.append((unit.source_id, unit.stars_with_mappings(), filters))
        else:
            for candidate in unit.candidates:
                if candidate.kind != "rdb" or candidate.class_mapping is None:
                    continue
                contexts.append(
                    (
                        candidate.source_id,
                        [(unit.star, candidate.class_mapping)],
                        list(unit.star.filters),
                    )
                )

    violations = []
    for source_id, decision in plan.filter_decisions:
        matched = False
        for context_source, stars, filters in contexts:
            if context_source != source_id or decision.filter not in filters:
                continue
            matched = True
            expected = _expected_placement(decision.filter, stars, source_id, plan, lake)
            if expected is not None and expected != decision.pushed:
                want = "source" if expected else "engine"
                got = "source" if decision.pushed else "engine"
                violations.append(
                    f"filter {decision.filter.n3()} on {source_id!r}: placed at "
                    f"{got}, but policy/catalog/network imply {want}"
                )
            break
        if not matched:
            violations.append(
                f"filter decision for {decision.filter.n3()} references no plan "
                f"unit on source {source_id!r}"
            )
    return violations


# ---------------------------------------------------------------------------
# 4. Join orderings respect variable bindings
# ---------------------------------------------------------------------------


def _certain_variables(operator: FedOperator) -> set[str] | None:
    """Variables bound in *every* solution the operator emits.

    Returns ``None`` when unknown (a service node the planner did not
    annotate), which disables downstream checks instead of guessing.
    """
    if isinstance(operator, ServiceNode):
        return set(operator.variables) if operator.variables else None
    if isinstance(operator, (SymmetricHashJoin, DependentJoin)):
        left, right = operator.children()
        a, b = _certain_variables(left), _certain_variables(right)
        if a is None or b is None:
            return None
        return a | b
    if isinstance(operator, LeftJoin):
        return _certain_variables(operator.left)
    if isinstance(operator, Union):
        parts = [_certain_variables(child) for child in operator.inputs]
        if any(part is None for part in parts) or not parts:
            return None
        certain = parts[0]
        for part in parts[1:]:
            certain = certain & part
        return certain
    if isinstance(operator, Project):
        child = _certain_variables(operator.child)
        if child is None:
            return None
        return child & set(operator.variables)
    if isinstance(operator, (EngineFilter, Distinct, Limit, OrderBy)):
        return _certain_variables(operator.children()[0])
    return None


def _possible_variables(operator: FedOperator) -> set[str] | None:
    """Variables that *may* appear in the operator's solutions."""
    if isinstance(operator, ServiceNode):
        return set(operator.variables) if operator.variables else None
    if isinstance(operator, Project):
        child = _possible_variables(operator.child)
        if child is None:
            return None
        return child & set(operator.variables)
    children = operator.children()
    if not children:
        return None
    parts = [_possible_variables(child) for child in children]
    if any(part is None for part in parts):
        return None
    union: set[str] = set()
    for part in parts:
        union |= part
    return union


def _check_join_orderings(root: FedOperator) -> list[str]:
    violations = []

    def visit(operator: FedOperator) -> None:
        if isinstance(operator, DependentJoin):
            if not isinstance(operator.inner, ServiceNode):
                violations.append(
                    f"dependent join probes {operator.inner.label()!r}, "
                    f"which is not a restrictable service leaf"
                )
            certain = _certain_variables(operator.outer)
            if certain is not None and operator.join_variable not in certain:
                violations.append(
                    f"dependent join on ?{operator.join_variable} but the outer "
                    f"input does not always bind it"
                )
        if isinstance(operator, SymmetricHashJoin):
            left = _possible_variables(operator.left)
            right = _possible_variables(operator.right)
            for variable in operator.join_variables:
                if left is not None and variable not in left:
                    violations.append(
                        f"hash join keys on ?{variable}, absent from its left input"
                    )
                if right is not None and variable not in right:
                    violations.append(
                        f"hash join keys on ?{variable}, absent from its right input"
                    )
        for child in operator.children():
            visit(child)

    visit(root)
    return violations
