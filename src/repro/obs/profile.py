"""Per-operator profiles and the EXPLAIN-ANALYZE report.

Profiling rides the observation bus, so all three runtimes — sequential,
event, thread — feed the same report structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def q_error(estimated: float, actual: float) -> float:
    """The q-error of a cardinality estimate: ``max(est/actual, actual/est)``.

    Zero rows make the textbook ratio undefined, so both sides are floored
    at one row first (the standard +1-free smoothing: a 0-vs-0 estimate is
    perfect, q = 1.0; 0-vs-N degrades like 1-vs-N).  Always >= 1.0.
    """
    floored_estimate = max(float(estimated), 1.0)
    floored_actual = max(float(actual), 1.0)
    return max(floored_estimate / floored_actual, floored_actual / floored_estimate)


@dataclass
class OperatorProfile:
    """Measurements of one operator within one execution."""

    label: str
    depth: int
    rows_out: int = 0
    first_output_at: float | None = None
    last_output_at: float | None = None
    #: The planner's output-cardinality estimate for this operator (rows);
    #: None when the plan carries no estimate (hand-built operator trees).
    estimated_rows: float | None = None

    def record(self, timestamp: float) -> None:
        self.rows_out += 1
        if self.first_output_at is None:
            self.first_output_at = timestamp
        self.last_output_at = timestamp

    @property
    def q_error(self) -> float | None:
        """q-error of the planner's estimate vs the observed rows (>= 1.0),
        or None when the operator carries no estimate."""
        if self.estimated_rows is None:
            return None
        return q_error(self.estimated_rows, self.rows_out)


@dataclass
class ProfileReport:
    """All operator profiles of one run, in plan (pre-order) order."""

    entries: list[OperatorProfile] = field(default_factory=list)
    execution_time: float = 0.0
    #: The run's cache behaviour (from ``ExecutionStats.cache_summary``);
    #: None for runs executed without a cache registry.
    cache_summary: str | None = None
    #: Which runtime produced the measurements ("sequential", "event",
    #: "thread"); informational only — cardinalities are runtime-invariant.
    runtime: str = "sequential"

    def render(self) -> str:
        lines = [f"Profile (virtual execution time {self.execution_time:.4f}s)"]
        for entry in self.entries:
            # Operators that produced zero rows render with "-" markers so
            # the report stays stable (and line counts comparable) whether
            # or not an operator ever emitted.
            first = (
                f"{entry.first_output_at:.4f}s"
                if entry.first_output_at is not None
                else "-"
            )
            last = (
                f"{entry.last_output_at:.4f}s"
                if entry.last_output_at is not None
                else "-"
            )
            annotated = ""
            if entry.estimated_rows is not None:
                annotated = f" est={entry.estimated_rows:g} q={entry.q_error:.2f}"
            lines.append(
                f"{'  ' * entry.depth}{entry.label}  "
                f"[rows={entry.rows_out} first={first} last={last}{annotated}]"
            )
        if self.cache_summary is not None:
            lines.append(f"caches: {self.cache_summary}")
        return "\n".join(lines)

    def by_label(self, fragment: str) -> OperatorProfile:
        for entry in self.entries:
            if fragment in entry.label:
                return entry
        available = ", ".join(repr(entry.label) for entry in self.entries) or "(none)"
        raise KeyError(
            f"no operator label contains {fragment!r}; available labels: {available}"
        )

    def cardinalities(self) -> list[tuple[str, int]]:
        """(label, rows_out) pairs in plan order — the runtime-invariant
        signature cross-runtime tests compare."""
        return [(entry.label, entry.rows_out) for entry in self.entries]
