"""The federated query engine facade (our Ontario).

:class:`FederatedEngine` receives SPARQL queries, plans them under a
:class:`~repro.core.policy.PlanPolicy` and a network setting, and streams
answers through the ANAPSID-style operators while a shared clock accumulates
the virtual execution timeline.  Every produced answer is timestamped,
yielding the answer traces of the paper's Figure 2.
"""

from __future__ import annotations

from typing import Iterator, TYPE_CHECKING

from ..cache import CacheRegistry, CacheStats, canonicalize_query
from ..federation.answers import (
    DEFAULT_BATCH_SIZE,
    EXEC_MODES,
    ExecutionStats,
    RunContext,
    Solution,
)
from ..network.clock import Clock, VirtualClock
from ..network.costmodel import CostModel, DEFAULT_COST_MODEL
from ..network.delays import NetworkSetting
from ..sparql.algebra import SelectQuery
from .planner import FederatedPlan, FederatedPlanner
from .policy import PlanPolicy

if TYPE_CHECKING:  # pragma: no cover - avoids a core <-> datalake cycle
    from ..datalake.lake import SemanticDataLake


def _resolve_batch_size(batch_size: int | None) -> int:
    """The effective batch size: the explicit argument, else the default."""
    if batch_size is None:
        return DEFAULT_BATCH_SIZE
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    return batch_size


class ResultStream:
    """A streamed query result.

    Iterate to pull answers (driving the virtual clock); ``stats`` is
    complete once the stream is exhausted.  :meth:`collect` pulls everything
    and returns the answer list.

    ``stats.execution_time`` tracks the clock after every answer and is
    finalized when the stream ends — including when the consumer abandons
    it early (a LIMIT consumer breaking out closes the generator, which
    lands in the ``finally`` below), so traces from partial consumption
    are well-defined under every runtime.
    """

    def __init__(
        self,
        plan: FederatedPlan,
        context: RunContext,
        runtime: str = "sequential",
        thread_workers: int | None = None,
    ):
        self.plan = plan
        self.context = context
        self.runtime = runtime
        #: The run's :class:`~repro.obs.observation.RunObservation` (alias
        #: of ``context.obs``), or None for an unobserved run.
        self.observation = context.obs
        self._thread_workers = thread_workers
        self._iterator = self._run()
        self._exhausted = False

    def _run(self) -> Iterator[Solution]:
        stats = self.context.stats
        observation = self.observation
        restore = None
        try:
            if self.runtime == "sequential":
                if observation is not None:
                    from ..obs import instrument_sequential

                    restore = instrument_sequential(
                        self.plan.root, observation, self.context
                    )
                if self.context.exec_mode == "batch":
                    # record_answer and materialize, inlined: same counter
                    # updates and trace entries, minus two calls per answer.
                    # An unobserved Project root is fused into this loop:
                    # its per-row charge is issued here and the answer dict
                    # is built straight from the kept input columns, which
                    # skips one generator hop and the aliased projected
                    # batch (observed runs keep the operator so obs
                    # instrumentation sees it).
                    from ..federation.operators import Project

                    context = self.context
                    clock_now = context.clock.now
                    trace_append = stats.trace.append
                    answers = stats.answers
                    root = self.plan.root
                    fused_cost = 0.0
                    if observation is None and type(root) is Project:
                        project_names = root.variables
                        fused_cost = context.cost_model.engine_project_row
                        stream = root.child.execute_batch(context)
                    else:
                        project_names = None
                        stream = root.execute_batch(context)
                    clock = context.clock
                    virtual = type(clock) is VirtualClock
                    positive = fused_cost > 0
                    derived: dict[int, tuple] = {}
                    for batch, idx in stream:
                        if project_names is not None:
                            if positive:
                                if virtual:
                                    clock._now += fused_cost
                                else:
                                    clock.sleep(fused_cost)
                                stats.engine_cost += fused_cost
                            entry = derived.get(id(batch))
                            if entry is None:
                                index = batch.index
                                columns = batch.columns
                                derived[id(batch)] = entry = (
                                    batch,
                                    [
                                        (name, columns[index[name]])
                                        for name in project_names
                                        if name in index
                                    ],
                                )
                            pairs = entry[1]
                        else:
                            pairs = batch.pairs
                        now = clock._now if virtual else clock_now()
                        answers += 1
                        stats.answers = answers
                        if stats.time_to_first_answer is None:
                            stats.time_to_first_answer = now
                        trace_append((now, answers))
                        stats.execution_time = now
                        yield {
                            name: value
                            for name, column in pairs
                            if (value := column[idx]) is not None
                        }
                else:
                    for solution in self.plan.root.execute(self.context):
                        stats.record_answer(self.context.now())
                        stats.execution_time = self.context.now()
                        yield solution
            else:
                from ..runtime import EventScheduler

                workers = self._thread_workers if self.runtime == "thread" else None
                scheduler = EventScheduler(
                    self.plan.root, self.context, pool_workers=workers
                )
                for timestamp, solution in scheduler.run():
                    stats.record_answer(timestamp)
                    stats.execution_time = self.context.now()
                    yield solution
            self._exhausted = True
        finally:
            # Restore BEFORE finalizing: a plan must never leave an observed
            # run still carrying traced closures (the plan cache hands the
            # same object to later executions).
            if restore is not None:
                restore()
            stats.execution_time = self.context.now()
            if observation is not None:
                observation.finalize(stats)

    def __iter__(self) -> Iterator[Solution]:
        return self._iterator

    def __next__(self) -> Solution:
        return next(self._iterator)

    def collect(self) -> list[Solution]:
        return list(self._iterator)

    @property
    def stats(self) -> ExecutionStats:
        return self.context.stats

    @property
    def exhausted(self) -> bool:
        return self._exhausted


class FederatedEngine:
    """SPARQL query engine over a Semantic Data Lake.

    Example:
        >>> engine = FederatedEngine(lake, policy=PlanPolicy.physical_design_aware(),
        ...                          network=NetworkSetting.gamma2())
        >>> result = engine.execute(query_text, seed=1)
        >>> answers = result.collect()
        >>> result.stats.execution_time    # virtual seconds
    """

    def __init__(
        self,
        lake: SemanticDataLake,
        policy: PlanPolicy | None = None,
        network: NetworkSetting | None = None,
        cost_model: CostModel | None = None,
        enable_plan_cache: bool = True,
        enable_subresult_cache: bool = True,
        plan_cache_size: int = 256,
        subresult_cache_size: int = 1024,
        debug_validate: bool | None = None,
        runtime: str = "sequential",
        thread_workers: int | None = None,
        exec: str = "batch",
        batch_size: int | None = None,
        caches: CacheRegistry | None = None,
    ):
        self.lake = lake
        self.policy = policy or PlanPolicy.physical_design_aware()
        self.network = network or NetworkSetting.no_delay()
        self.cost_model = cost_model or DEFAULT_COST_MODEL
        from ..runtime import RUNTIMES

        if runtime not in RUNTIMES:
            raise ValueError(f"unknown runtime {runtime!r}; choose from {RUNTIMES}")
        if exec not in EXEC_MODES:
            raise ValueError(f"unknown exec mode {exec!r}; choose from {EXEC_MODES}")
        #: Default data-plane mode: "batch" (columnar solution batches on
        #: the hot path) or "row" (one dict per answer through every
        #: operator — the per-solution reference, same virtual timeline,
        #: slower wall-clock).  Overridable per call.
        self.exec = exec
        #: Default capacity of one solution batch (None = the library default).
        self.batch_size = _resolve_batch_size(batch_size)
        #: Default execution runtime: "sequential" (pull-based iterator
        #: chain), "event" (discrete-event scheduler with overlapping
        #: source delays), or "thread" (event semantics + a wrapper thread
        #: pool).  Overridable per call on :meth:`execute` / :meth:`run`.
        self.runtime = runtime
        #: Pool width for the "thread" runtime; None picks a small default.
        self.thread_workers = thread_workers
        #: None defers to the REPRO_DEBUG_VALIDATE env var (see planner).
        self.debug_validate = debug_validate
        # Effective switches: both the engine flag and the policy flag must
        # be on.  The registry defaults to engine-local because recorded
        # sub-results price source work under this engine's cost model; a
        # pool of engines with identical settings may pass a shared
        # registry via ``caches=`` (the service layer's configuration —
        # the LRU caches are internally locked, so cross-engine use is
        # safe).  Callers sharing a registry own its sizing/enablement.
        # Cost-based optimization state, created lazily (heuristic-policy
        # engines never import repro.optimizer).
        self._observed_stats = None
        self._catalog_stats = None
        if caches is None:
            caches = CacheRegistry(
                plan_capacity=plan_cache_size,
                subresult_capacity=subresult_cache_size,
                plans_enabled=enable_plan_cache and self.policy.use_plan_cache,
                subresults_enabled=(
                    enable_subresult_cache and self.policy.use_subresult_cache
                ),
            )
        else:
            # A sibling gets a fresh registry shaped like the shared one.
            enable_plan_cache = caches.plans.enabled
            enable_subresult_cache = caches.subresults.enabled
            plan_cache_size = caches.plans.capacity
            subresult_cache_size = caches.subresults.capacity
        self.caches = caches
        #: The cache arguments as given, for :meth:`_sibling` (the registry
        #: itself only knows them ANDed with this engine's policy).
        self._cache_settings = {
            "enable_plan_cache": enable_plan_cache,
            "enable_subresult_cache": enable_subresult_cache,
            "plan_cache_size": plan_cache_size,
            "subresult_cache_size": subresult_cache_size,
        }

    @property
    def observed_stats(self):
        """The engine's observed-cardinality store (created on demand).

        Fed by :meth:`ingest_observation`; consulted only by cost-based
        planning, where its revision is part of the plan-cache key — so
        ingesting observations transparently invalidates cached cost plans
        while heuristic plans (which never read the store) stay cached.
        """
        if self._observed_stats is None:
            from ..optimizer import ObservedStatistics

            self._observed_stats = ObservedStatistics()
        return self._observed_stats

    def catalog_statistics(self):
        """Deterministic statistics snapshot of the lake, cached per
        catalog version (any mutation re-collects)."""
        version = self.lake.catalog_version()
        cached = self._catalog_stats
        if cached is None or cached.catalog_version != version:
            from ..optimizer import CatalogStatistics

            cached = self._catalog_stats = CatalogStatistics.collect(self.lake)
        return cached

    def ingest_observation(self, observation) -> int:
        """Feed one finished observed run's actual cardinalities to the
        optimizer's store; returns the number of records written."""
        return self.observed_stats.ingest_observation(observation)

    def planner(self, obs=None) -> FederatedPlanner:
        if self.policy.cost_based:
            from ..optimizer import CostBasedPlanner

            return CostBasedPlanner(
                self.lake,
                self.policy,
                self.network,
                catalog_stats=self.catalog_statistics(),
                observed=self.observed_stats,
                cost_model=self.cost_model,
                debug_validate=self.debug_validate,
                obs=obs,
            )
        return FederatedPlanner(
            self.lake,
            self.policy,
            self.network,
            debug_validate=self.debug_validate,
            obs=obs,
        )

    def _plan_cached(
        self, query: SelectQuery | str, obs=None
    ) -> tuple[FederatedPlan, bool | None]:
        """Plan through the plan cache; returns (plan, hit-or-None).

        Only textual queries are cacheable (pre-parsed queries are mutable
        objects without a canonical key).  The key binds the canonicalized
        text to the policy fingerprint, the network setting, and the lake's
        catalog version — so policies, networks, and physical designs can
        never share an entry, and any write to any member source
        invalidates by changing the version vector.

        With an observation attached, fresh planning emits its lifecycle
        instants and a cache hit emits a single plan-cache instant instead
        (the heuristic decisions themselves still reach the explain report
        through the plan's decision log).
        """
        if not isinstance(query, str) or not self.caches.plans.enabled:
            return self.planner(obs=obs).plan(query), None
        key = (
            canonicalize_query(query),
            self.policy.fingerprint(),
            self.network,
            self.lake.catalog_version(),
            # Cost-based plans depend on the observed-stats store: any
            # ingest bumps the revision, so stale cost plans are never
            # served after the optimizer learned better cardinalities.
            self.observed_stats.revision if self.policy.cost_based else None,
        )
        plan = self.caches.plans.get(key)
        if plan is not None:
            if obs is not None:
                obs.plan_cache_event(hit=True)
            return plan, True
        if obs is not None:
            obs.plan_cache_event(hit=False)
        plan = self.planner(obs=obs).plan(query)
        self.caches.plans.put(key, plan)
        return plan, False

    def plan(self, query: SelectQuery | str) -> FederatedPlan:
        """Plan without executing (EXPLAIN)."""
        plan, __ = self._plan_cached(query)
        return plan

    def explain(self, query: SelectQuery | str) -> str:
        return self.plan(query).explain()

    def cache_stats(self) -> dict[str, CacheStats]:
        """Lifetime hit/miss/eviction counters of this engine's caches."""
        return self.caches.stats()

    def clear_caches(self) -> None:
        """Drop every cached plan and sub-result (counters are kept)."""
        self.caches.clear()

    def execute(
        self,
        query: SelectQuery | str,
        seed: int | None = None,
        clock: Clock | None = None,
        runtime: str | None = None,
        observe: bool = False,
        exec: str | None = None,
        batch_size: int | None = None,
    ) -> ResultStream:
        """Plan and execute *query*, returning a streamed result.

        Args:
            query: SPARQL text or a parsed query.
            seed: seed for the delay-sampling RNG (determinism).
            clock: override the default fresh virtual clock (e.g. a
                :class:`~repro.network.clock.RealClock` for live demos).
            runtime: override the engine's default runtime for this call
                ("sequential", "event", or "thread").
            observe: attach a :class:`~repro.obs.RunObservation` collecting
                spans, per-operator profiles and metrics; read it from the
                returned stream's ``observation`` attribute once consumed.
                Timestamps come from the run's virtual clocks, so observed
                timelines are bit-identical to unobserved ones.
            exec: override the engine's data-plane mode for this call
                ("row" or "batch"); answers and virtual times are
                bit-identical either way.
            batch_size: override the batch capacity for this call.
        """
        runtime = runtime or self.runtime
        from ..runtime import RUNTIMES

        if runtime not in RUNTIMES:
            raise ValueError(f"unknown runtime {runtime!r}; choose from {RUNTIMES}")
        exec = exec or self.exec
        if exec not in EXEC_MODES:
            raise ValueError(f"unknown exec mode {exec!r}; choose from {EXEC_MODES}")
        batch_size = (
            self.batch_size if batch_size is None else _resolve_batch_size(batch_size)
        )
        observation = None
        if observe:
            from ..obs import RunObservation

            observation = RunObservation()
            observation.runtime = runtime
        plan, plan_cache_hit = self._plan_cached(query, obs=observation)
        context = RunContext(
            network=self.network,
            cost_model=self.cost_model,
            clock=clock,
            seed=seed,
            caches=self.caches,
            exec_mode=exec,
            batch_size=batch_size,
        )
        context.stats.plan_cache_hit = plan_cache_hit
        if observation is not None:
            observation.register_plan(plan)
            context.obs = observation
        workers = (self.thread_workers or 4) if runtime == "thread" else None
        return ResultStream(plan, context, runtime=runtime, thread_workers=workers)

    def run(
        self,
        query: SelectQuery | str,
        seed: int | None = None,
        runtime: str | None = None,
        exec: str | None = None,
        batch_size: int | None = None,
    ) -> tuple[list[Solution], ExecutionStats]:
        """Execute to completion; returns (answers, stats)."""
        stream = self.execute(
            query, seed=seed, runtime=runtime, exec=exec, batch_size=batch_size
        )
        answers = stream.collect()
        return answers, stream.stats

    def observe(
        self,
        query: SelectQuery | str,
        seed: int | None = None,
        runtime: str | None = None,
    ):
        """Execute to completion with full observation.

        Returns (answers, stats, observation) where *observation* is the
        run's :class:`~repro.obs.RunObservation` — trace bus, per-operator
        profiles, metrics, and (via its exporters) JSON / Chrome-trace
        dumps.  Works under every runtime.
        """
        stream = self.execute(query, seed=seed, runtime=runtime, observe=True)
        answers = stream.collect()
        return answers, stream.stats, stream.observation

    def critpath(
        self,
        query: SelectQuery | str,
        seed: int | None = None,
        runtime: str | None = None,
        exec: str | None = None,
    ):
        """Execute observed and attribute the virtual time exactly.

        Returns (answers, stats, report) where *report* is a
        :class:`~repro.obs.critpath.CriticalPathReport`: the run's
        end-to-end virtual time tiled into blame-class segments that sum
        to it exactly (checked in Fraction arithmetic), with per-source
        attribution and what-if slack.  Works under every runtime.
        """
        from ..obs.critpath import attribute_run

        stream = self.execute(
            query, seed=seed, runtime=runtime, exec=exec, observe=True
        )
        answers = stream.collect()
        report = attribute_run(stream.observation, stream.stats)
        return answers, stream.stats, report

    def analyze(
        self,
        query: SelectQuery | str,
        seed: int | None = None,
        runtime: str | None = None,
        hotspot_count: int = 3,
    ):
        """EXPLAIN ANALYZE with q-error feedback.

        Executes *query* observed and returns (answers, stats, report)
        where *report* is a :class:`~repro.obs.analyze.AnalyzeReport`: per
        operator the planner's cardinality estimate, the observed rows,
        their q-error, and — for the worst-estimated operators — which
        Heuristic-1/Heuristic-2 decisions sat on them.  Cardinalities and
        estimates are runtime-invariant, so all three runtimes report
        identical numbers.
        """
        from ..obs.analyze import analyze_observation

        answers, stats, observation = self.observe(query, seed=seed, runtime=runtime)
        report = analyze_observation(observation, stats, hotspot_count=hotspot_count)
        return answers, stats, report

    def profile(
        self,
        query: SelectQuery | str,
        seed: int | None = None,
        runtime: str | None = None,
    ):
        """EXPLAIN ANALYZE: execute with per-operator instrumentation.

        Returns (answers, stats, report) where *report* is a
        :class:`~repro.obs.ProfileReport`.  Runs on the observation bus, so
        it works under every runtime (sequential instrumentation is undone
        in a ``finally``; the event runtimes use tap nodes and never touch
        the plan), composes with the plan cache, and still exercises (and
        reports) the sub-result cache.
        """
        answers, stats, observation = self.observe(query, seed=seed, runtime=runtime)
        report = observation.profile_report(stats)
        report.cache_summary = stats.cache_summary()
        return answers, stats, report

    def with_policy(self, policy: PlanPolicy) -> "FederatedEngine":
        """A sibling engine differing only in policy."""
        return self._sibling(policy, self.network)

    def with_network(self, network: NetworkSetting) -> "FederatedEngine":
        """A sibling engine differing only in network setting."""
        return self._sibling(self.policy, network)

    def _sibling(self, policy: PlanPolicy, network: NetworkSetting) -> "FederatedEngine":
        """This engine's every constructor setting under *policy* and
        *network*, with a fresh cache registry of the same capacities and
        switches — never a shared one, whose counters would merge."""
        return FederatedEngine(
            self.lake,
            policy,
            network,
            self.cost_model,
            debug_validate=self.debug_validate,
            runtime=self.runtime,
            thread_workers=self.thread_workers,
            exec=self.exec,
            batch_size=self.batch_size,
            **self._cache_settings,
        )
