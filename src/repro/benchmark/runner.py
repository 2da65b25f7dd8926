"""The experiment runner: the paper's 8-configuration grid.

The experiment "conducts of eight different configurations in total, i.e.,
both QEP types are evaluated using all four simulated network conditions".
:func:`run_grid` executes any set of queries over that grid (or a custom
one) and returns structured results the reporting module renders.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.engine import FederatedEngine
from ..core.policy import PlanPolicy
from ..datalake.lake import SemanticDataLake
from ..federation.answers import ExecutionStats
from ..network.costmodel import CostModel
from ..network.delays import NetworkSetting
from ..datasets.queries import BenchmarkQuery


@dataclass(frozen=True)
class Configuration:
    """One cell of the experiment grid."""

    policy: PlanPolicy
    network: NetworkSetting
    #: Execution runtime ("sequential", "event", or "thread"); kept out of
    #: the label unless it deviates from the historical default.
    runtime: str = "sequential"
    #: Data plane ("batch" or "row"); virtual-time results are identical
    #: either way, so the axis only changes wall-clock cost of the run and
    #: is kept out of the label unless it deviates from the default.
    exec: str = "batch"

    @property
    def label(self) -> str:
        base = f"{self.policy.name} / {self.network.name}"
        if self.runtime != "sequential":
            base += f" / {self.runtime}"
        if self.exec != "batch":
            base += f" / {self.exec}"
        return base


def experiment_grid(
    policies: Sequence[PlanPolicy] | None = None,
    networks: Sequence[NetworkSetting] | None = None,
    runtime: str = "sequential",
    exec: str = "batch",
) -> list[Configuration]:
    """The default grid: {aware, unaware} x four network settings."""
    policies = policies or (
        PlanPolicy.physical_design_unaware(),
        PlanPolicy.physical_design_aware(),
    )
    networks = networks or NetworkSetting.all_settings()
    return [
        Configuration(policy, network, runtime=runtime, exec=exec)
        for policy in policies
        for network in networks
    ]


@dataclass
class RunResult:
    """Measurements of one (query, configuration) execution."""

    query: str
    policy: str
    network: str
    answers: int
    execution_time: float
    time_to_first_answer: float | None
    messages: int
    engine_cost: float
    trace: list[tuple[float, int]] = field(default_factory=list)
    #: The run's :class:`~repro.obs.RunObservation` when the grid was run
    #: with ``observe=True``; None otherwise.  Deliberately excluded from
    #: the CSV/JSON reports — export it via its own exporters instead.
    observation: object | None = None

    @property
    def throughput(self) -> float:
        if self.execution_time <= 0:
            return 0.0
        return self.answers / self.execution_time


@dataclass
class GridResults:
    """All results of one grid run, with lookup helpers."""

    results: list[RunResult] = field(default_factory=list)

    def add(self, result: RunResult) -> None:
        self.results.append(result)

    def lookup(self, query: str, policy: str, network: str) -> RunResult:
        for result in self.results:
            if (
                result.query == query
                and result.policy == policy
                and result.network == network
            ):
                return result
        raise KeyError((query, policy, network))

    def queries(self) -> list[str]:
        seen: list[str] = []
        for result in self.results:
            if result.query not in seen:
                seen.append(result.query)
        return seen

    def policies(self) -> list[str]:
        seen: list[str] = []
        for result in self.results:
            if result.policy not in seen:
                seen.append(result.policy)
        return seen

    def networks(self) -> list[str]:
        seen: list[str] = []
        for result in self.results:
            if result.network not in seen:
                seen.append(result.network)
        return seen

    def slowdown(self, query: str, policy: str, baseline_network: str, network: str) -> float:
        """Execution-time factor of *network* relative to *baseline_network*."""
        base = self.lookup(query, policy, baseline_network).execution_time
        other = self.lookup(query, policy, network).execution_time
        if base <= 0:
            return float("inf")
        return other / base

    def speedup(self, query: str, network: str, slow_policy: str, fast_policy: str) -> float:
        """How much faster *fast_policy* is than *slow_policy*."""
        slow = self.lookup(query, slow_policy, network).execution_time
        fast = self.lookup(query, fast_policy, network).execution_time
        if fast <= 0:
            return float("inf")
        return slow / fast


def run_query(
    lake: SemanticDataLake,
    query: BenchmarkQuery | str,
    configuration: Configuration,
    seed: int = 7,
    cost_model: CostModel | None = None,
    observe: bool = False,
) -> RunResult:
    """Execute one query under one configuration.

    With ``observe=True`` the run carries a full observation (trace bus,
    per-operator profiles, metrics) attached to the result — virtual
    timings are unchanged, so observed grids stay comparable to plain ones.
    """
    text = query.text if isinstance(query, BenchmarkQuery) else query
    name = query.name if isinstance(query, BenchmarkQuery) else "query"
    engine = FederatedEngine(
        lake,
        policy=configuration.policy,
        network=configuration.network,
        cost_model=cost_model,
        runtime=configuration.runtime,
        exec=configuration.exec,
    )
    stream = engine.execute(text, seed=seed, observe=observe)
    answers = stream.collect()
    result = _to_result(name, configuration, len(answers), stream.stats)
    result.observation = stream.observation
    return result


def _to_result(
    name: str, configuration: Configuration, count: int, stats: ExecutionStats
) -> RunResult:
    return RunResult(
        query=name,
        policy=configuration.policy.name,
        network=configuration.network.name,
        answers=count,
        execution_time=stats.execution_time,
        time_to_first_answer=stats.time_to_first_answer,
        messages=stats.messages,
        engine_cost=stats.engine_cost,
        trace=list(stats.trace),
    )


def run_grid(
    lake: SemanticDataLake,
    queries: Iterable[BenchmarkQuery],
    configurations: Sequence[Configuration] | None = None,
    seed: int = 7,
    cost_model: CostModel | None = None,
    runtime: str = "sequential",
    exec: str = "batch",
    observe: bool = False,
) -> GridResults:
    """Run every query under every configuration (the paper's experiment)."""
    configurations = configurations or experiment_grid(runtime=runtime, exec=exec)
    grid = GridResults()
    for query in queries:
        for configuration in configurations:
            grid.add(
                run_query(
                    lake,
                    query,
                    configuration,
                    seed=seed,
                    cost_model=cost_model,
                    observe=observe,
                )
            )
    return grid
