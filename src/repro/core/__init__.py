"""The paper's contribution: physical-design-aware federated planning."""

from .catalog import PhysicalDesignCatalog, SourcePhysicalDesign
from .decomposer import (
    Decomposition,
    StarSubquery,
    decompose_star_shaped,
    decompose_triple_wise,
    validate_decomposition,
)
from .engine import FederatedEngine, ResultStream
from .heuristics import (
    FilterDecision,
    FilterPlan,
    MergeDecision,
    MergeGroup,
    place_filters,
    push_down_joins,
)
from .planner import FederatedPlan, FederatedPlanner
from ..obs.instrument import profile_plan
from ..obs.profile import OperatorProfile, ProfileReport
from .policy import DecompositionKind, FilterPlacement, JoinStrategy, PlanPolicy
from .source_selection import SelectedStar, SourceCandidate, select_sources

__all__ = [
    "Decomposition",
    "DecompositionKind",
    "FederatedEngine",
    "FederatedPlan",
    "FederatedPlanner",
    "FilterDecision",
    "FilterPlacement",
    "FilterPlan",
    "JoinStrategy",
    "MergeDecision",
    "MergeGroup",
    "OperatorProfile",
    "ProfileReport",
    "profile_plan",
    "PhysicalDesignCatalog",
    "PlanPolicy",
    "ResultStream",
    "SelectedStar",
    "SourceCandidate",
    "SourcePhysicalDesign",
    "StarSubquery",
    "decompose_star_shaped",
    "decompose_triple_wise",
    "place_filters",
    "push_down_joins",
    "select_sources",
    "validate_decomposition",
]
