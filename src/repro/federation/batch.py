"""Columnar solution batches: the data plane of the ``exec="batch"`` engine.

The row engine moves one ``dict[str, Term]`` per answer through a chain of
generator frames.  The batch engine keeps the *pull chain* (so every clock
charge and RNG draw happens at exactly the same point as in row mode — the
bit-identity argument in DESIGN.md §12) but replaces the *data* flowing
through it with lightweight handles ``(SolutionBatch, row_index)`` into
shared column vectors.  Building, merging, projecting and deduplicating
solutions then touch O(columns) Python objects instead of O(columns) dict
entries per row, and projections are zero-copy column aliasing.

A :class:`SolutionBatch` stores one column (a plain list of ``Term | None``)
per variable.  ``None`` is a *hole*: the variable is unbound in that row.
Row-mode solutions never map a name to ``None`` (wrappers drop such rows
wholesale and joins omit absent names), so holes unambiguously encode
absence and ``materialize`` can reconstruct the exact row-mode dict.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..rdf.terms import Term
from .answers import DEFAULT_BATCH_SIZE, EXEC_MODES, Solution

__all__ = [
    "EXEC_MODES",
    "DEFAULT_BATCH_SIZE",
    "SolutionBatch",
    "RowView",
    "BatchBuilder",
    "Handle",
    "single_solution_batch",
    "chunk_columns",
    "MergePlan",
]


class SolutionBatch:
    """A columnar block of solutions sharing one variable-name shape.

    ``columns[i][j]`` is the value of variable ``names[i]`` in row ``j``
    (``None`` = unbound).  Batches built by a :class:`BatchBuilder` are
    *live*: columns only ever grow, so a handle ``(batch, j)`` stays valid
    while later rows are appended.
    """

    __slots__ = ("names", "columns", "index", "pairs", "sorted_pairs")

    def __init__(self, names: tuple[str, ...], columns: list[list[Term | None]]):
        self.names = names
        self.columns = columns
        self.index = {name: position for position, name in enumerate(names)}
        self.pairs = list(zip(names, columns))
        self.sorted_pairs = sorted(self.pairs, key=lambda pair: pair[0])

    def rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def materialize(self, idx: int) -> Solution:
        """The row-mode dict of row *idx* (holes omitted)."""
        return {
            name: value
            for name, column in self.pairs
            if (value := column[idx]) is not None
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SolutionBatch(names={self.names!r}, rows={self.rows()})"


#: A handle to one solution inside a batch.
Handle = tuple[SolutionBatch, int]


class RowView(Mapping):
    """A read-only dict view of one batch row.

    Implements exactly the Mapping surface the expression evaluator and the
    sort-key builders use (``in``, ``[]``, iteration), skipping holes so it
    is observationally identical to the row-mode solution dict.
    """

    __slots__ = ("batch", "idx")

    def __init__(self, batch: SolutionBatch, idx: int):
        self.batch = batch
        self.idx = idx

    def __getitem__(self, name: str) -> Term:
        position = self.batch.index.get(name)
        if position is None:
            raise KeyError(name)
        value = self.batch.columns[position][self.idx]
        if value is None:
            raise KeyError(name)
        return value

    def __contains__(self, name: object) -> bool:
        position = self.batch.index.get(name)  # type: ignore[arg-type]
        if position is None:
            return False
        return self.batch.columns[position][self.idx] is not None

    def get(self, name: str, default=None):
        position = self.batch.index.get(name)
        if position is None:
            return default
        value = self.batch.columns[position][self.idx]
        return default if value is None else value

    def __iter__(self) -> Iterator[str]:
        idx = self.idx
        return (name for name, column in self.batch.pairs if column[idx] is not None)

    def __len__(self) -> int:
        idx = self.idx
        return sum(1 for __, column in self.batch.pairs if column[idx] is not None)


class BatchBuilder:
    """Accumulates rows of one shape into a live batch, rotating at capacity.

    ``append`` returns the handle of the appended row.  When the current
    batch reaches *capacity* the builder starts a fresh one and reports the
    completed fill through ``take_completed`` (feeding the obs batch-fill
    histogram); handles into rotated-out batches remain valid.
    """

    __slots__ = ("names", "capacity", "batch", "count", "completed")

    def __init__(self, names: tuple[str, ...], capacity: int):
        self.names = names
        self.capacity = capacity
        self.batch = SolutionBatch(names, [[] for __ in names])
        self.count = 0
        self.completed: list[int] = []

    def append(self, values: Iterable[Term | None]) -> Handle:
        idx = self.count
        if idx >= self.capacity:
            self.completed.append(idx)
            self.batch = SolutionBatch(self.names, [[] for __ in self.names])
            idx = 0
        batch = self.batch
        for column, value in zip(batch.columns, values):
            column.append(value)
        self.count = idx + 1
        return (batch, idx)

    def append_gather(
        self,
        lcolumns: list[list[Term | None]],
        li: int,
        rcolumns: list[list[Term | None]],
        ri: int,
        right_only: tuple[int, ...],
    ) -> Handle:
        """Fused join-output append: left row verbatim + gathered right-only.

        Equivalent to ``append([c[li] for c in lcolumns] + [rcolumns[p][ri]
        for p in right_only])`` without the intermediate row list — the hash
        join's fast path when key equality already proves compatibility.
        """
        idx = self.count
        if idx >= self.capacity:
            self.completed.append(idx)
            self.batch = SolutionBatch(self.names, [[] for __ in self.names])
            idx = 0
        batch = self.batch
        columns = batch.columns
        position = 0
        for column in lcolumns:
            columns[position].append(column[li])
            position += 1
        for rpos in right_only:
            columns[position].append(rcolumns[rpos][ri])
            position += 1
        self.count = idx + 1
        return (batch, idx)

    def take_completed(self) -> list[int]:
        """Fills of all finished batches (including the current partial one)."""
        fills = self.completed
        if self.count:
            fills = fills + [self.count]
        self.completed = []
        return fills


def single_solution_batch(solution: Solution) -> Handle:
    """Wrap one row-mode dict as a single-row batch (adapter fallback)."""
    names = tuple(solution)
    return (SolutionBatch(names, [[solution[name]] for name in names]), 0)


def chunk_columns(
    names: tuple[str, ...],
    columns: list[list[Term | None]],
    kept: "list[int] | range",
    count: int,
    batch_size: int,
) -> tuple[list[Handle | None], list[int]]:
    """Chunk the *kept* rows of a columnar result into batch handles.

    Returns ``(handles, fills)``: one handle per source row (None for the
    rows not kept) and the chunk sizes.  An unfiltered result (``kept`` is
    a range) is chunked by slicing.
    """
    handles: list[Handle | None] = [None] * count
    fills: list[int] = []
    for start in range(0, len(kept), batch_size):
        chunk = kept[start : start + batch_size]
        if isinstance(chunk, range):
            batch = SolutionBatch(
                names, [column[chunk.start : chunk.stop] for column in columns]
            )
        else:
            batch = SolutionBatch(
                names, [[column[i] for i in chunk] for column in columns]
            )
        fills.append(len(chunk))
        for offset, i in enumerate(chunk):
            handles[i] = (batch, offset)
    return handles, fills


def observe_batches(obs, owner: str, fills: list[int], configured: int) -> None:
    """Record batching effectiveness into the run's MetricsRegistry.

    One histogram sample per completed chunk (``batch_rows_per_chunk``,
    labelled by the producing operator/wrapper) plus the configured batch
    size as a gauge — the ``repro explain`` / metrics view of how full the
    batches actually ran.  No-op for unobserved runs (``obs is None``).
    """
    if obs is None or not fills:
        return
    histogram = obs.metrics.histogram("batch_rows_per_chunk", operator=owner)
    for fill in fills:
        histogram.observe(fill)
    obs.metrics.gauge("batch_configured_size").set(configured)
    obs.metrics.counter("batch_rows", operator=owner).inc(sum(fills))


class MergePlan:
    """The precompiled column routing of one join-output shape.

    Mirrors ``operators._merge``: output names are the left names followed
    by the right-only names; a shared name takes the left value unless it is
    a hole, and two bound, unequal values make the rows incompatible.
    """

    __slots__ = ("names", "left_width", "shared", "right_only")

    def __init__(self, left_names: tuple[str, ...], right_names: tuple[str, ...]):
        right_index = {name: position for position, name in enumerate(right_names)}
        self.left_width = len(left_names)
        self.shared = [
            (lpos, right_index[name])
            for lpos, name in enumerate(left_names)
            if name in right_index
        ]
        self.right_only = [
            rpos for rpos, name in enumerate(right_names) if name not in left_names
        ]
        self.names = left_names + tuple(right_names[rpos] for rpos in self.right_only)

    def merge_values(
        self, left: SolutionBatch, li: int, right: SolutionBatch, ri: int
    ) -> list[Term | None] | None:
        """The merged row's column values, or None when incompatible."""
        lcols = left.columns
        rcols = right.columns
        out = [lcols[pos][li] for pos in range(self.left_width)]
        for lpos, rpos in self.shared:
            lvalue = out[lpos]
            rvalue = rcols[rpos][ri]
            if lvalue is None:
                out[lpos] = rvalue
            elif rvalue is not None and lvalue != rvalue:
                return None
        for rpos in self.right_only:
            out.append(rcols[rpos][ri])
        return out
