"""The federated plan generator — the paper's contribution lives here.

Pipeline (Ontario's architecture with the paper's heuristics plugged in):

1. **Decompose** the SPARQL query into star-shaped sub-queries (or triples,
   for the ablation).
2. **Select sources** per star via RDF molecule templates.
3. **Heuristic 1** — merge stars over the same relational endpoint when the
   join attribute is indexed (physical-design-aware policies only).
4. **Heuristic 2** — place each filter at the source or at the engine,
   consulting the physical-design catalog and the network condition.
5. **Order joins** greedily over estimated cardinalities, connecting plan
   units through ANAPSID's non-blocking symmetric hash joins.
6. Apply residual filters, ORDER BY, projection, DISTINCT and LIMIT.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..exceptions import PlanningError
from ..federation.endpoints import RDFSource, RelationalSource
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
from ..federation.wrappers import SPARQLWrapper, SQLWrapper, StarRequest
from ..mapping.translator import translate_stars
from ..network.delays import NetworkSetting
from ..sparql.algebra import Filter, SelectQuery
from ..sparql.parser import parse_query
from .decomposer import (
    Decomposition,
    StarSubquery,
    decompose_star_shaped,
    decompose_triple_wise,
)
from .heuristics import (
    FilterDecision,
    MergeDecision,
    MergeGroup,
    StarWithMapping,
    place_filters,
    push_down_joins,
)
from .policy import DecompositionKind, JoinStrategy, PlanPolicy
from .source_selection import SelectedStar, SourceCandidate, select_sources
from .statskeys import join_signature, unit_signature_for

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> datalake cycle
    from ..datalake.lake import SemanticDataLake


@dataclass
class FederatedPlan:
    """An executable federated plan plus its decision log."""

    root: FedOperator
    query: SelectQuery
    policy: PlanPolicy
    network: NetworkSetting
    decomposition: Decomposition
    merge_decisions: list[MergeDecision] = field(default_factory=list)
    filter_decisions: list[tuple[str, FilterDecision]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Every leaf plan unit, in build order: merged star groups (Heuristic 1)
    #: and single selected stars.  The plan-invariant checker
    #: (:mod:`repro.oracle.invariants`) audits SSQ coverage and the
    #: heuristics' preconditions from this log.
    units: list[MergeGroup | SelectedStar] = field(default_factory=list)

    def explain(self) -> str:
        """Figure-1-style plan rendering with the heuristics' reasoning."""
        lines = [
            f"Plan [{self.policy.name}] network={self.network.name}",
            self.root.explain(indent=1),
        ]
        if self.merge_decisions:
            lines.append("Heuristic 1 (pushing down joins):")
            for decision in self.merge_decisions:
                verdict = "merged" if decision.merged else "kept separate"
                lines.append(
                    f"  {decision.star_a} + {decision.star_b}: {verdict} — {decision.reason}"
                )
        if self.filter_decisions:
            lines.append("Heuristic 2 (filter placement):")
            for source_id, decision in self.filter_decisions:
                lines.append(f"  [{source_id}] {decision.describe()}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


@dataclass
class _PlanUnit:
    """A leaf operator plus the metadata join ordering needs."""

    operator: FedOperator
    variables: set[str]
    estimate: float
    #: Observed-statistics signature of the unit (see
    #: :mod:`repro.core.statskeys`); join ordering folds these into join
    #: signatures so every run feeds the cost-based optimizer's store.
    signature: tuple = ()
    #: Per-variable NDV sketch (filled only by the cost-based planner; the
    #: greedy orderer never reads it).
    ndv: dict[str, float] | None = None


def _annotate(operator: FedOperator, estimate: float) -> FedOperator:
    """Stamp the planner's cardinality estimate onto *operator*.

    The estimate is planning metadata only — join ordering keeps reading
    :attr:`_PlanUnit.estimate`, so annotating can never change a plan.
    EXPLAIN ANALYZE reads it back to compute per-operator q-error.
    """
    operator.estimated_rows = float(estimate)
    return operator


class FederatedPlanner:
    """Builds :class:`FederatedPlan` objects for one lake."""

    #: Cost-based subclasses install callables here (see
    #: :class:`repro.optimizer.CostBasedPlanner`); with both ``None`` the
    #: heuristics' own verdicts stand, so the base planner is unchanged.
    merge_advisor = None
    filter_advisor = None

    def __init__(
        self,
        lake: SemanticDataLake,
        policy: PlanPolicy,
        network: NetworkSetting,
        debug_validate: bool | None = None,
        obs=None,
    ):
        self.lake = lake
        self.policy = policy
        self.network = network
        #: Optional :class:`~repro.obs.observation.RunObservation`: when
        #: set, planning emits lifecycle instants (parse, decompose,
        #: source selection, every heuristic decision) onto its bus.
        #: Planning happens before the run's virtual clock starts, so
        #: these are zero-duration markers at t=0 in emission order.
        self.obs = obs
        # Debug mode: audit every produced plan with the oracle's invariant
        # checker.  ``None`` defers to the REPRO_DEBUG_VALIDATE env var so
        # test runs can switch the whole suite into validating mode.
        if debug_validate is None:
            debug_validate = os.environ.get("REPRO_DEBUG_VALIDATE", "").lower() in (
                "1", "true", "yes", "on",
            )
        self.debug_validate = debug_validate

    # -- public ---------------------------------------------------------------

    def plan(self, query: SelectQuery | str) -> FederatedPlan:
        obs = self.obs
        if isinstance(query, str):
            query = parse_query(query)
            if obs is not None:
                obs.bus.add_instant("parse", "plan")
        if self.policy.decomposition is DecompositionKind.TRIPLE:
            decomposition = decompose_triple_wise(query)
        else:
            decomposition = decompose_star_shaped(query)
        if obs is not None:
            obs.bus.add_instant(
                "decompose",
                "plan",
                kind=self.policy.decomposition.value,
                subqueries=len(decomposition.subqueries),
                union_branches=len(decomposition.union_branches),
                optional_groups=len(decomposition.optional_groups),
            )
        merge_decisions: list[MergeDecision] = []
        filter_decisions: list[tuple[str, FilterDecision]] = []
        notes: list[str] = []
        units: list[MergeGroup | SelectedStar] = []
        root = self._plan_decomposition(
            decomposition, merge_decisions, filter_decisions, notes, units
        )
        root = self._apply_modifiers(root, query, decomposition)
        plan = FederatedPlan(
            root=root,
            query=query,
            policy=self.policy,
            network=self.network,
            decomposition=decomposition,
            merge_decisions=merge_decisions,
            filter_decisions=filter_decisions,
            notes=notes,
            units=units,
        )
        if self.debug_validate:
            # Imported lazily: the oracle package depends on core, not the
            # other way around, except in this opt-in debug path.
            from ..oracle.invariants import assert_plan_valid

            assert_plan_valid(plan, self.lake)
        return plan

    def _plan_decomposition(
        self,
        decomposition: Decomposition,
        merge_decisions: list[MergeDecision],
        filter_decisions: list[tuple[str, FilterDecision]],
        notes: list[str],
        unit_log: list[MergeGroup | SelectedStar],
    ) -> FedOperator:
        """Plan one decomposition (recursively for UNION branches and
        OPTIONAL groups) into an operator tree, pre-modifiers."""
        if decomposition.union_branches:
            branches = [
                self._plan_branch(branch, merge_decisions, filter_decisions, notes, unit_log)
                for branch in decomposition.union_branches
            ]
            return _annotate(
                Union(branches),
                sum(branch.estimated_rows or 0.0 for branch in branches),
            )
        return self._plan_branch(
            decomposition, merge_decisions, filter_decisions, notes, unit_log
        )

    def _plan_branch(
        self,
        decomposition: Decomposition,
        merge_decisions: list[MergeDecision],
        filter_decisions: list[tuple[str, FilterDecision]],
        notes: list[str],
        unit_log: list[MergeGroup | SelectedStar],
    ) -> FedOperator:
        obs = self.obs
        selections = select_sources(self.lake, decomposition)
        if obs is not None:
            obs.bus.add_instant(
                "source-selection",
                "plan",
                stars=len(selections),
                candidates=sum(len(s.candidates) for s in selections),
            )
        units_spec, branch_merges = push_down_joins(
            selections,
            self.lake.physical_catalog,
            self.policy,
            merge_advisor=self.merge_advisor,
        )
        if obs is not None:
            for decision in branch_merges:
                obs.bus.add_instant(
                    "h1-decision",
                    "plan",
                    star_a=decision.star_a,
                    star_b=decision.star_b,
                    merged=decision.merged,
                    reason=decision.reason,
                )
        merge_decisions.extend(branch_merges)
        unit_log.extend(units_spec)
        filters_before = len(filter_decisions)
        units = [self._build_unit(unit, filter_decisions) for unit in units_spec]
        if obs is not None:
            for source_id, decision in filter_decisions[filters_before:]:
                obs.bus.add_instant(
                    "h2-decision",
                    "plan",
                    source=source_id,
                    filter=decision.filter.n3(),
                    pushed=decision.pushed,
                    reason=decision.reason,
                )
        notes_before = len(notes)
        root = self._order_joins(units, notes)
        if obs is not None:
            for note in notes[notes_before:]:
                obs.bus.add_instant("note", "plan", text=note)
        if decomposition.residual_filters:
            root = _annotate(
                EngineFilter(root, decomposition.residual_filters),
                root.estimated_rows or 0.0,
            )
        main_variables: set[str] = set()
        for star in decomposition.subqueries:
            main_variables |= star.variable_names()
        for optional in decomposition.optional_groups:
            optional_root = self._plan_decomposition(
                optional, merge_decisions, filter_decisions, notes, unit_log
            )
            optional_variables: set[str] = set()
            for star in optional.subqueries:
                optional_variables |= star.variable_names()
            join_variables = tuple(sorted(main_variables & optional_variables))
            root = _annotate(
                LeftJoin(left=root, right=optional_root, join_variables=join_variables),
                max(root.estimated_rows or 0.0, optional_root.estimated_rows or 0.0),
            )
            main_variables |= optional_variables
        return root

    # -- leaves -----------------------------------------------------------------

    def _build_unit(
        self,
        unit: MergeGroup | SelectedStar,
        filter_decisions: list[tuple[str, FilterDecision]],
    ) -> _PlanUnit:
        if isinstance(unit, MergeGroup):
            # Heuristic 1 merged these stars into one relational sub-query.
            stars = unit.stars_with_mappings()
            operator = self._sql_leaf(unit.source_id, stars, filter_decisions)
            estimate = min(
                float(self.lake.physical_catalog.table_rows(unit.source_id, mapping.table))
                for __, mapping in stars
            )
            _annotate(operator, estimate)
            variables = set(operator.variables)
        else:
            star = unit.star
            branches = [
                _annotate(
                    self._star_leaf(star, candidate, filter_decisions),
                    candidate.cardinality,
                )
                for candidate in unit.candidates
            ]
            operator = branches[0] if len(branches) == 1 else _annotate(
                Union(branches), sum(branch.estimated_rows or 0.0 for branch in branches)
            )
            estimate = float(unit.estimated_cardinality())
            variables = star.variable_names()
        signature = unit_signature_for(unit)
        operator.stats_signature = signature
        return _PlanUnit(
            operator=operator,
            variables=variables,
            estimate=estimate,
            signature=signature,
        )

    def _star_leaf(
        self,
        star: StarSubquery,
        candidate: SourceCandidate,
        filter_decisions: list[tuple[str, FilterDecision]],
    ) -> ServiceNode:
        """One star at one candidate source, in that source's language."""
        if candidate.kind == "rdb":
            # A single relational candidate is a merge group of one.
            stars = [(star, candidate.class_mapping)]
            return self._sql_leaf(candidate.source_id, stars, filter_decisions)
        source = self.lake.source(candidate.source_id)
        assert isinstance(source, RDFSource)
        return ServiceNode(
            SPARQLWrapper(source),
            StarRequest(star, tuple(star.filters)),
            variables=tuple(sorted(star.variable_names())),
        )

    def _sql_leaf(
        self,
        source_id: str,
        stars: list[StarWithMapping],
        filter_decisions: list[tuple[str, FilterDecision]],
    ) -> ServiceNode:
        """Place the stars' filters (Heuristic 2), translate stars + pushed
        filters into one SQL statement, keep the rest at the engine."""
        source = self.lake.source(source_id)
        assert isinstance(source, RelationalSource)
        filters: list[Filter] = []
        variables: set[str] = set()
        for star, __ in stars:
            filters.extend(star.filters)
            variables |= star.variable_names()
        filter_plan = place_filters(
            filters,
            stars,
            source_id,
            self.lake.physical_catalog,
            self.policy,
            self.network,
            filter_advisor=self.filter_advisor,
        )
        filter_decisions.extend((source_id, decision) for decision in filter_plan.decisions)
        return ServiceNode(
            SQLWrapper(source),
            translate_stars(stars, pushed_filters=filter_plan.pushed),
            engine_filters=filter_plan.at_engine,
            variables=tuple(sorted(variables)),
        )

    # -- join ordering -------------------------------------------------------------

    def _order_joins(self, units: list[_PlanUnit], notes: list[str]) -> FedOperator:
        if not units:
            raise PlanningError("nothing to plan: no sub-queries")
        remaining = sorted(units, key=lambda unit: unit.estimate)
        current = remaining.pop(0)
        root = current.operator
        bound = set(current.variables)
        estimate = current.estimate
        member_signatures = [current.signature]
        while remaining:
            connected = [unit for unit in remaining if unit.variables & bound]
            if connected:
                nxt = min(connected, key=lambda unit: unit.estimate)
            else:
                nxt = remaining[0]
                notes.append(
                    "cartesian product: no shared variables between plan units"
                )
            remaining.remove(nxt)
            join_variables = tuple(sorted(nxt.variables & bound))
            root = self._join_operator(root, nxt, join_variables)
            bound |= nxt.variables
            estimate = max(estimate, nxt.estimate)
            # The greedy orderer's running estimate is also the join's own
            # output estimate (no join-selectivity model, as in ANAPSID).
            _annotate(root, estimate)
            member_signatures.append(nxt.signature)
            root.stats_signature = join_signature(member_signatures)
        return root

    def _join_operator(
        self, outer: FedOperator, nxt: _PlanUnit, join_variables: tuple[str, ...]
    ) -> FedOperator:
        use_dependent = (
            self.policy.join_strategy is JoinStrategy.DEPENDENT
            and len(join_variables) == 1
            and isinstance(nxt.operator, ServiceNode)
        )
        if use_dependent:
            return DependentJoin(
                outer=outer,
                inner=nxt.operator,
                join_variable=join_variables[0],
                block_size=self.policy.dependent_block_size,
            )
        return SymmetricHashJoin(left=outer, right=nxt.operator, join_variables=join_variables)

    # -- modifiers ------------------------------------------------------------------

    def _apply_modifiers(
        self,
        root: FedOperator,
        query: SelectQuery,
        decomposition: Decomposition,
    ) -> FedOperator:
        # residual filters were applied per branch in _plan_branch
        inherited = root.estimated_rows or 0.0
        if query.order_by:
            root = _annotate(OrderBy(root, query.order_by), inherited)
        projected = tuple(variable.name for variable in query.projected_variables())
        root = _annotate(Project(root, projected), inherited)
        if query.distinct:
            root = _annotate(Distinct(root), inherited)
        if query.limit is not None or query.offset is not None:
            capped = inherited if query.limit is None else min(inherited, float(query.limit))
            root = _annotate(Limit(root, query.limit, query.offset), capped)
        return root
