"""Differential runner: every plan configuration vs the naive oracle.

Each query runs under every base :class:`~repro.core.policy.PlanPolicy` ×
{star, triple-wise decomposition} × {caches on, caches off} under gamma-1
delays; cached configurations run twice (cold, then warm — at the next
seed under the sequential runtime, where a batch warm run replays the
cold run's script) so cache-induced wrong answers are caught too.  Each
execution's answers are diffed against the reference
evaluator and every produced plan is audited by the invariant checker.

Comparison semantics follow the engine's documented behaviour:

* Without LIMIT, answers are compared as **multisets** — except when the
  lake replicates a dataset: the planner unions all candidate sources of a
  star, so replicated rows legitimately appear once per replica, and the
  comparison weakens to answer *sets* (DISTINCT queries stay exact).
* With LIMIT/OFFSET but no total order, different (correct) plans may pick
  different rows; produced answers must be a subset of the *unlimited*
  reference answers, with the right cardinality.
* Under ORDER BY, the produced sequence must be sorted by the query's
  conditions; exact order of ties is plan-dependent and not compared.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..benchmark.metrics import answer_set, solution_key
from ..cache.memos import run_scripts
from ..core.engine import FederatedEngine
from ..core.policy import DecompositionKind, PlanPolicy
from ..exceptions import ReproError
from ..federation.answers import Solution
from ..network.delays import NetworkSetting
from ..sparql.algebra import OrderCondition, SelectQuery
from ..sparql.expressions import ExpressionError, evaluate
from ..sparql.parser import parse_query
from .generator import FuzzCase, build_lake
from .invariants import check_plan
from .reference import ReferenceEvaluator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datalake.lake import SemanticDataLake

#: Real delays, so one charged in the wrong place shows in the stats; and
#: fast for Heuristic 2, so the plans are those of a delay-free network.
NETWORK = NetworkSetting.gamma1()


@dataclass(frozen=True)
class EngineConfig:
    """One cell of the configuration matrix."""

    name: str
    policy: PlanPolicy
    cache: bool
    #: Execution runtime axis: "sequential", "event", or "thread" (see
    #: :mod:`repro.runtime`).  Answer multisets must agree across runtimes.
    runtime: str = "sequential"
    #: Data-plane axis: "row" or "batch".  Stricter than the runtime axis:
    #: for the same (policy, cache, runtime, seed), the two exec modes must
    #: produce bitwise-identical answer *sequences* and virtual-time stats,
    #: which the differential runner checks pairwise.
    exec: str = "row"


@dataclass
class Mismatch:
    """One disagreement between a configuration and the oracle."""

    config: str
    kind: str  # "answers" | "count" | "order" | "duplicates" | "cache" | "script" | "invariant" | "error"
    detail: str

    def describe(self) -> str:
        return f"[{self.config}] {self.kind}: {self.detail}"


def default_configs(
    runtimes: tuple[str, ...] = ("sequential",),
    execs: tuple[str, ...] = ("row",),
    policies: Sequence[PlanPolicy] | None = None,
) -> list[EngineConfig]:
    """The full matrix: policies × decompositions × cache × runtimes × exec.

    The runtime axis defaults to sequential-only (the historical matrix);
    passing e.g. ``("sequential", "event")`` cross-checks the event
    scheduler's answers against the oracle under every policy as well.
    The exec axis defaults to row-only; passing ``("row", "batch")``
    additionally pins the columnar data plane bitwise against the row
    plane (answers in order *and* virtual-time stats) per configuration.
    The policy axis defaults to the five heuristic base policies; pass an
    explicit list to add e.g. the cost-based policy to the matrix.
    """
    base = (
        list(policies)
        if policies is not None
        else [
            PlanPolicy.physical_design_aware(),
            PlanPolicy.physical_design_unaware(),
            PlanPolicy.heuristic2(),
            PlanPolicy.filters_at_source(),
            PlanPolicy.dependent_join(),
        ]
    )
    configs: list[EngineConfig] = []
    for policy in base:
        for decomposition in (DecompositionKind.STAR, DecompositionKind.TRIPLE):
            variant = policy.with_(decomposition=decomposition)
            for cache in (True, False):
                for runtime in runtimes:
                    for exec_mode in execs:
                        name = (
                            f"{policy.name}/{decomposition.value}/"
                            f"{'cache' if cache else 'nocache'}"
                        )
                        if len(runtimes) > 1 or runtime != "sequential":
                            name += f"/{runtime}"
                        if len(execs) > 1 or exec_mode != "row":
                            name += f"/{exec_mode}"
                        configs.append(
                            EngineConfig(
                                name=name,
                                policy=variant,
                                cache=cache,
                                runtime=runtime,
                                exec=exec_mode,
                            )
                        )
    return configs


# ---------------------------------------------------------------------------
# Answer comparison
# ---------------------------------------------------------------------------


def _order_key(condition: OrderCondition, solution: Solution) -> tuple:
    # Mirrors the typed sort key of both executors (operators.OrderBy and
    # sparql.bgp) so "is the output sorted?" uses the same collation.
    try:
        value = evaluate(condition.expression, solution)
    except ExpressionError:
        return (0, "")
    if hasattr(value, "to_python"):
        value = value.to_python()
    elif hasattr(value, "value"):
        value = value.value
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


def _is_sorted(solutions: list[Solution], conditions: list[OrderCondition]) -> bool:
    for previous, current in zip(solutions, solutions[1:]):
        for condition in conditions:
            key_a = _order_key(condition, previous)
            key_b = _order_key(condition, current)
            if key_a == key_b:
                continue
            ordered = key_a < key_b if condition.ascending else key_a > key_b
            if not ordered:
                return False
            break
    return True


def compare_answers(
    query: SelectQuery,
    expected_full: list[Solution],
    produced: list[Solution],
    exact: bool,
    config: str,
) -> list[Mismatch]:
    """Diff one execution against the (unlimited) reference answers."""
    mismatches: list[Mismatch] = []
    if query.order_by and not _is_sorted(produced, query.order_by):
        mismatches.append(
            Mismatch(config, "order", "answers are not sorted by the ORDER BY conditions")
        )

    produced_keys = [solution_key(solution) for solution in produced]
    expected_keys = [solution_key(solution) for solution in expected_full]
    expected_set = set(expected_keys)
    # DISTINCT dedupes before any replica effect can survive, so DISTINCT
    # comparisons stay exact even on replicated layouts.
    exact = exact or query.distinct

    if query.distinct and len(produced_keys) != len(set(produced_keys)):
        mismatches.append(
            Mismatch(config, "duplicates", "DISTINCT execution produced duplicate answers")
        )

    sliced = query.limit is not None or bool(query.offset)
    if sliced:
        extra = set(produced_keys) - expected_set
        if extra:
            mismatches.append(
                Mismatch(
                    config,
                    "answers",
                    f"{len(extra)} answer(s) outside the reference set, e.g. "
                    f"{sorted(extra)[0]}",
                )
            )
        offset = query.offset or 0
        want = max(0, len(expected_keys) - offset)
        if query.limit is not None:
            want = min(want, query.limit)
        if exact and len(produced_keys) != want:
            mismatches.append(
                Mismatch(
                    config,
                    "count",
                    f"returned {len(produced_keys)} answers, expected {want} "
                    f"under LIMIT {query.limit} OFFSET {offset}",
                )
            )
        elif not exact and query.limit is not None and len(produced_keys) > query.limit:
            mismatches.append(
                Mismatch(
                    config,
                    "count",
                    f"returned {len(produced_keys)} answers over LIMIT {query.limit}",
                )
            )
        return mismatches

    if exact:
        expected_counter = Counter(expected_keys)
        produced_counter = Counter(produced_keys)
        if expected_counter != produced_counter:
            missing = expected_counter - produced_counter
            surplus = produced_counter - expected_counter
            parts = []
            if missing:
                parts.append(f"missing {sum(missing.values())} (e.g. {sorted(missing)[0]})")
            if surplus:
                parts.append(f"surplus {sum(surplus.values())} (e.g. {sorted(surplus)[0]})")
            mismatches.append(
                Mismatch(config, "answers", "multisets differ: " + ", ".join(parts))
            )
    else:
        produced_set = set(produced_keys)
        if produced_set != expected_set:
            missing = expected_set - produced_set
            surplus = produced_set - expected_set
            parts = []
            if missing:
                parts.append(f"missing {len(missing)} (e.g. {sorted(missing)[0]})")
            if surplus:
                parts.append(f"surplus {len(surplus)} (e.g. {sorted(surplus)[0]})")
            mismatches.append(
                Mismatch(config, "answers", "answer sets differ: " + ", ".join(parts))
            )
    return mismatches


# ---------------------------------------------------------------------------
# Running the matrix
# ---------------------------------------------------------------------------


def _stats_signature(stats, runtime: str) -> tuple:
    """Every virtual-time accumulator, as one comparable tuple.

    Used for the exec-mode bit-identity check: row and batch execution
    must agree on all of these exactly (no tolerance), cold and warm.  The
    thread runtime's pool drains leaves concurrently, so whether a leaf
    finds a same-key sibling's block already published is a wall-clock
    race: its sub-result hit count is left out, its times are not.
    """
    per_source = tuple(
        (sid, s.requests, s.answers, s.virtual_cost, s.network_delay)
        for sid, s in sorted(stats.source_stats.items())
    )
    return (
        stats.execution_time,
        tuple(stats.trace),
        stats.messages,
        stats.engine_cost,
        stats.time_to_first_answer,
        stats.answers,
        None if runtime == "thread" else stats.subresult_cache_hits,
        per_source,
    )


def check_case_on_lake(
    lake: "SemanticDataLake",
    query_text: str,
    *,
    exact: bool = True,
    configs: list[EngineConfig] | None = None,
    check_invariants: bool = True,
    seed: int = 11,
) -> list[Mismatch]:
    """Run *query_text* under every configuration and diff vs the oracle."""
    query = parse_query(query_text)
    oracle = ReferenceEvaluator(lake)
    expected_full = oracle.answers_unlimited(query)
    # Triple-wise decomposition intentionally rejects OPTIONAL/UNION.
    supports_triple = not (query.where.optionals or query.where.unions)

    mismatches: list[Mismatch] = []
    # (policy, cache, runtime) -> exec mode -> per-run (answers, stats sig);
    # pairs of exec modes sharing a base cell are compared bitwise below.
    exec_runs: dict[tuple, dict[str, list[tuple[list[Solution], tuple]]]] = {}
    for config in configs if configs is not None else default_configs():
        if config.policy.decomposition is DecompositionKind.TRIPLE and not supports_triple:
            continue
        engine = FederatedEngine(
            lake,
            policy=config.policy,
            network=NETWORK,
            enable_plan_cache=config.cache,
            enable_subresult_cache=config.cache,
            runtime=config.runtime,
            exec=config.exec,
        )
        runs: list[list[Solution]] = []
        recorded: list[tuple[list[Solution], tuple]] = []
        failed = False
        for run_index in range(2 if config.cache else 1):
            label = f"{config.name}#{'warm' if run_index else 'cold'}"
            # A sequential warm run draws fresh delays, so a replayed batch
            # run must place each draw where the live row run does.  Under
            # the event runtimes arrival order follows the delays (a LIMIT
            # could keep other, equally correct rows): same seed there.
            run_seed = seed + run_index if config.runtime == "sequential" else seed
            replays = run_scripts.stats().hits
            try:
                answers, stats = engine.run(query_text, seed=run_seed)
            except ReproError as exc:
                mismatches.append(
                    Mismatch(config.name, "error", f"{label}: {type(exc).__name__}: {exc}")
                )
                failed = True
                break
            # A sequential batch warm run replays the cold run's script: the
            # exec check below then holds a replay against the live row run.
            if run_index and (config.runtime, config.exec) == ("sequential", "batch"):
                if run_scripts.stats().hits == replays:
                    mismatches.append(Mismatch(config.name, "script", f"{label}: no replay"))
            runs.append(answers)
            recorded.append((answers, _stats_signature(stats, config.runtime)))
            mismatches.extend(
                compare_answers(query, expected_full, answers, exact, label)
            )
        if len(runs) == 2 and Counter(map(solution_key, runs[0])) != Counter(
            map(solution_key, runs[1])
        ):
            mismatches.append(
                Mismatch(config.name, "cache", "warm-cache answers differ from cold run")
            )
        if not failed:
            exec_runs.setdefault(
                (config.policy, config.cache, config.runtime), {}
            )[config.exec] = recorded
        if check_invariants and not failed:
            violations = check_plan(engine.plan(query_text), lake)
            mismatches.extend(
                Mismatch(config.name, "invariant", violation) for violation in violations
            )

    # Exec-mode bit-identity: for each base cell that ran under both data
    # planes, cold (and warm, when cached) runs must agree bitwise — same
    # answer sequence, same virtual-time stats.
    for (policy, cache, runtime), by_exec in exec_runs.items():
        if "row" not in by_exec or "batch" not in by_exec:
            continue
        cell = f"{policy.name}/{'cache' if cache else 'nocache'}/{runtime}"
        for run_index, (row_run, batch_run) in enumerate(
            zip(by_exec["row"], by_exec["batch"])
        ):
            phase = "warm" if run_index else "cold"
            if row_run[0] != batch_run[0]:
                mismatches.append(
                    Mismatch(
                        cell,
                        "exec",
                        f"{phase}: batch answers differ from row answers in "
                        "content or order",
                    )
                )
            if row_run[1] != batch_run[1]:
                mismatches.append(
                    Mismatch(
                        cell,
                        "exec",
                        f"{phase}: batch virtual-time stats differ from row "
                        f"stats: row={row_run[1]!r} batch={batch_run[1]!r}",
                    )
                )
    return mismatches


def check_fuzz_case(
    case: FuzzCase,
    *,
    configs: list[EngineConfig] | None = None,
    check_invariants: bool = True,
    seed: int = 11,
) -> list[Mismatch]:
    """Build the case's lake and run the full differential check."""
    lake = build_lake(case.layout)
    return check_case_on_lake(
        lake,
        case.sparql(),
        exact=not case.layout.has_replicas,
        configs=configs,
        check_invariants=check_invariants,
        seed=seed,
    )
