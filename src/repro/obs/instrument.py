"""Sequential-runtime instrumentation: rebind ``execute``, restore after.

The pull-based operator chain offers no push-side interception point, so
observing it means rebinding ``execute`` on each operator instance with a
counting wrapper.  The historical profiler did exactly that and never
undid it — a plan served from the plan cache after being profiled kept its
traced closures and double-counted on the next profile.  This module's
contract closes that hole: :func:`instrument_sequential` returns a restore
callable, and every caller runs it in a ``finally`` so the plan leaves the
observed execution exactly as it entered.

The event and thread runtimes need none of this: the scheduler's
``compile_plan`` inserts tap nodes between push-mode nodes when the run is
observed, which never touches the plan's operators at all.
"""

from __future__ import annotations

from typing import Callable, Iterator

from typing import TYPE_CHECKING

from ..federation.answers import RunContext, Solution
from ..federation.operators import DependentJoin, FedOperator
from .observation import RunObservation
from .profile import ProfileReport

if TYPE_CHECKING:  # pragma: no cover - avoids an obs <-> core cycle
    from ..core.planner import FederatedPlan


def instrument_sequential(
    root: FedOperator, observation: RunObservation, context: RunContext
) -> Callable[[], None]:
    """Rebind ``execute`` on every operator under *root* to count rows.

    Returns a restore callable that removes every rebinding; callers MUST
    invoke it in a ``finally`` so cached plans never retain traced
    closures (the plan-cache × profiler double-count bug).
    """
    instrumented: list[FedOperator] = []

    def instrument(operator: FedOperator) -> None:
        profile = observation.profile_for(operator)
        original_execute = operator.execute
        original_execute_batch = operator.execute_batch

        def traced_execute(run_context: RunContext) -> Iterator[Solution]:
            for solution in original_execute(run_context):
                profile.record(context.now())
                yield solution

        def traced_execute_batch(run_context: RunContext):
            # Batch operators count rows, not chunks: one profile record
            # per emitted handle keeps row/batch profiles comparable.
            # (Works on the dispatcher-style execute_batch methods too —
            # they return an iterator which this generator drains.)
            for handle in original_execute_batch(run_context):
                profile.record(context.now())
                yield handle

        operator.execute = traced_execute  # type: ignore[method-assign]
        operator.execute_batch = traced_execute_batch  # type: ignore[method-assign]
        instrumented.append(operator)
        # A dependent join re-issues its inner leaf once per block with a
        # restricted request: those streams are the join's input, not a
        # plan output, so — as in ``compile_plan`` — the inner gets no tap.
        inputs = (
            [operator.outer] if isinstance(operator, DependentJoin) else operator.children()
        )
        for child in inputs:
            instrument(child)

    def restore() -> None:
        for operator in instrumented:
            # The rebinding lives in the instance dict, shadowing the class
            # method; deleting it restores the original behaviour even if
            # restore runs more than once.
            operator.__dict__.pop("execute", None)
            operator.__dict__.pop("execute_batch", None)

    instrument(root)
    return restore


def profile_plan(
    plan: "FederatedPlan", context: RunContext
) -> tuple[list[Solution], ProfileReport]:
    """Execute *plan* under *context* with per-operator instrumentation.

    Sequential-runtime only (drives ``plan.root.execute`` directly); for
    profiling under the event/thread runtimes go through
    :meth:`repro.core.engine.FederatedEngine.profile`.  The plan is
    guaranteed to leave uninstrumented even on error or early abandonment.
    """
    observation = RunObservation()
    observation.register_plan(plan)
    if context.obs is None:
        context.obs = observation
    restore = instrument_sequential(plan.root, observation, context)
    answers = []
    try:
        for solution in plan.root.execute(context):
            context.stats.record_answer(context.now())
            answers.append(solution)
    finally:
        restore()
        context.stats.execution_time = context.now()
    report = observation.profile_report(context.stats)
    if context.caches is not None:
        report.cache_summary = context.stats.cache_summary()
    return answers, report
