"""The untraced run: set-up, warm-up pass, timed passes, correctness gate.

Noise rules (see README): runs are count-based (a pass is a fixed op list
from the seed), every timing metric is the median over passes of the
per-pass statistic, the cyclic collector runs once per pass, after its last
op, and one closed-loop client issues one op at a time.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field

from . import ops as opkinds
from . import procstat
from .env import seconds_since_start
from .ops import WORKLOADS, Op, Workload, harvest, hot_set, rng
from .stats import median, percentile
from .system import (
    LAKE_SEED,
    InProcessSystem,
    OpResult,
    SocketSystem,
    digest_answers,
    lake_scale,
    reference_engine,
)

#: The contract's ``run_seconds``: ``--seconds`` scales the pass count
#: relative to it, never a clock-driven loop (R1).
RUN_SECONDS = 10
MIN_PASSES = 5
#: Share of the unique ops re-executed on the reference engine afterwards.
RECHECK_SHARE = 0.10

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("first_answer_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("virtual_s_per_op", "virtual_s"),
)


def timed_passes(workload: Workload, seconds: float, smoke: bool) -> int:
    if smoke:
        return 1
    return max(MIN_PASSES, round(workload.passes * seconds / RUN_SECONDS))


def set_up(workload: Workload, smoke: bool):
    """Build the system under test; what ``setup_s`` times."""
    if workload.socket:
        return SocketSystem(lake_scale(smoke))
    return InProcessSystem(workload.tenants, lake_scale(smoke))


class Checker:
    """The correctness gate: answers of a cache-free row/sequential
    reference engine over the same lake state.

    Repeated texts (the hot set, the grid cells) are checked on every
    execution: the first execution of a text in each pass by SHA-256 against
    the reference (memoized per physical design in force), later ones by
    being identical, term for term, to an execution so verified — anything
    else falls back to the SHA-256 comparison.  Text-unique ops are
    remembered and a seeded sample is re-executed on the reference engine
    after timing.
    """

    def __init__(self, system, lake, constants, reference_tenant=None):
        from repro.service.server import serialize_answers

        self._serialize = serialize_answers
        self.system = system
        self.lake = lake
        self.repeated = set(hot_set(constants))
        self.reference_tenant = reference_tenant
        self._engines: dict = {}
        self._memo: dict = {}
        self._dropped: frozenset = frozenset()
        self._verified: dict = {}
        #: False while a pass runs under a runtime that may deliver the
        #: same answers in another order (event / thread).
        self.ordered = True
        self.unique: list[tuple[Op, str]] = []
        self.failures: list[str] = []
        self._grid = [
            Op(opkinds.READ, constants.named[name], 7, opkinds.MAIN_TENANT)
            for name in opkinds.GRID_QUERIES
        ]
        self._grid_at_setup = [self._reference(op) for op in self._grid]

    def _reference(self, op: Op, ordered: bool = True) -> str:
        tenant = self.reference_tenant or op.tenant
        engine = self._engines.get(tenant)
        if engine is None:
            engine = self._engines[tenant] = reference_engine(self.lake, tenant)
        answers, __ = engine.run(op.text, seed=op.seed)
        return digest_answers(self._serialize(answers), ordered)

    def _digest(self, result: OpResult) -> str:
        return digest_answers(self.system.serialized(result), self.ordered)

    def start_pass(self) -> None:
        self._verified.clear()

    def observe(self, op: Op, result: OpResult) -> bool:
        """Judge one executed op; False counts it as failed."""
        if not result.ok:
            self.failures.append(f"{op.kind} {op.tenant}: {result.detail or 'refused'}")
            return False
        if op.kind == opkinds.DROP_INDEX:
            self._dropped |= {(op.tenant, *op.args)}
        elif op.kind == opkinds.CREATE_INDEX:
            table, column = op.args
            self._dropped -= {(op.tenant, table, f"ix_{table}_{column}")}
        if op.kind != opkinds.READ:
            return True
        if op.text not in self.repeated:
            self.unique.append((op, self._digest(result)))
            return True
        # No seed in the key: answers are seed-independent (only the
        # virtual timeline follows the sampled delays).
        key = (op.tenant, op.text, self._dropped, self.ordered)
        fingerprint = hash(tuple([tuple(answer.values()) for answer in result.answers]))
        verified = self._verified.setdefault(key, set())
        if fingerprint in verified:
            return True
        expected = self._memo.get(key)
        if expected is None:
            expected = self._memo[key] = self._reference(op, self.ordered)
        if self._digest(result) != expected:
            self.failures.append(f"wrong answers: {op.tenant} {op.text[-80:]!r}")
            return False
        verified.add(fingerprint)
        return True

    def recheck_unique(self, seed: int) -> int:
        """Re-execute a seeded sample of the unique ops; returns failures."""
        if not self.unique:
            return 0
        count = max(1, math.ceil(len(self.unique) * RECHECK_SHARE))
        sample = rng(seed, "recheck").sample(self.unique, count)
        failed = 0
        for op, digest in sample:
            if self._reference(op) != digest:
                failed += 1
                self.failures.append(f"wrong answers (recheck): {op.text[-80:]!r}")
        return failed

    def check_design_restored(self) -> None:
        """After a net-zero pass: no index still dropped, and Q1-Q5 on the
        reference engine answer as at set-up."""
        if self._dropped:
            self.failures.append(f"indexes still dropped: {sorted(self._dropped)}")
        elif [self._reference(op) for op in self._grid] != self._grid_at_setup:
            self.failures.append("Q1-Q5 differ from set-up after a net-zero pass")


@dataclass
class PassRecord:
    """Per-pass raw samples (timed ops only)."""

    wall_ns: list = field(default_factory=list)
    first_ns: list = field(default_factory=list)
    cpu_ns: int = 0
    #: Wall of the collection that ends the pass.
    collect_ns: int = 0
    virtual_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def statistics(self) -> dict:
        ok = len(self.wall_ns)
        total_wall_s = (sum(self.wall_ns) + self.collect_ns) / 1e9
        return {
            "ops_per_s": ok / total_wall_s,
            "latency_p50_ms": median(self.wall_ns) / 1e6,
            "latency_p95_ms": percentile(self.wall_ns, 0.95) / 1e6,
            "first_answer_p50_ms": median(self.first_ns) / 1e6,
            "cpu_ms_per_op": self.cpu_ns / 1e6 / self.attempted,
        }


def run_pass(
    system,
    checker: Checker,
    ops: list[Op],
    execute=None,
    on_result=None,
    collector: bool = False,
) -> PassRecord:
    """Execute one pass and judge every op.

    The cyclic collector is off while the ops run: automatic collections
    land on arbitrary ops and cost in proportion to the live heap, which
    tripled the run-to-run spread of ``grid_refresh`` (README, "The
    collector").  Its work is not dropped: one collection runs when the last
    op is done and is charged to the pass -- its wall to ``ops_per_s``, its
    CPU to ``cpu_ms_per_op``.  Latency percentiles are collector-free.  The
    traced run reports what the collector costs when left on
    (``runtime.gc_ms_per_op``), from a pass run with ``collector=True``.
    """
    execute = execute or system.execute
    record = PassRecord()
    child = system.pid
    writes = sum(1 for op in ops if op.kind != opkinds.READ)
    churns = any(op.timed and op.kind != opkinds.READ for op in ops)
    versions = catalog_total(checker.lake)
    checker.start_pass()
    gc.unfreeze()
    gc.collect()
    if not collector:
        # Everything older than the pass goes out of the collector's reach,
        # so the collection charged to the pass scans what its ops left
        # behind, not the lake and the earlier passes' cache entries again.
        gc.freeze()
        gc.disable()
    try:
        child_cpu0 = procstat.child_cpu_ns(child) if child else 0
        for op in ops:
            result = execute(op)
            ok = checker.observe(op, result)
            if not op.timed:
                continue
            record.attempted += 1
            record.cpu_ns += result.cpu_ns
            if not ok:
                record.failed += 1
                continue
            record.wall_ns.append(result.wall_ns)
            if op.kind == opkinds.READ:
                record.first_ns.append(result.first_ns)
                record.virtual_s.append(result.virtual_s)
            if on_result is not None:
                on_result(op, result)
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        gc.collect()
        record.collect_ns = time.perf_counter_ns() - t0
        record.cpu_ns += time.process_time_ns() - cpu0
        if child:
            record.cpu_ns += procstat.child_cpu_ns(child) - child_cpu0
    finally:
        gc.enable()
    # Every write bumps exactly one member version; a pass that mixes
    # writes into its measured ops must also be net-zero, so the reference
    # answers are set-up's again.
    moved = catalog_total(checker.lake) - versions
    if moved != writes:
        checker.failures.append(f"catalog version moved by {moved}, expected {writes}")
    if churns:
        checker.check_design_restored()
    return record


def catalog_total(lake) -> int:
    return sum(version for __, version in lake.catalog_version())


def prepare(workload: Workload, system, smoke: bool):
    """Op constants and the correctness gate for a set-up system."""
    if workload.socket:
        # The client needs its own copy of the lake for op constants and
        # reference answers; the child's lake is out of reach.
        from repro.datasets import build_lslod_lake

        lake = build_lslod_lake(scale=lake_scale(smoke), seed=LAKE_SEED)
        reference_tenant = opkinds.MAIN_TENANT
    else:
        lake = system.lake
        reference_tenant = None
    constants = harvest(lake)
    return constants, Checker(system, lake, constants, reference_tenant)


def run_workload(name: str, seed: int, seconds: float = RUN_SECONDS, smoke: bool = False) -> dict:
    """One full untraced run; returns the result document."""
    workload = WORKLOADS[name]
    passes = timed_passes(workload, seconds, smoke)

    system = set_up(workload, smoke)
    setup_s = seconds_since_start()
    try:
        constants, checker = prepare(workload, system, smoke)
        # List 0 is the warm-up: executed and checked, never reported.
        records = [
            run_pass(system, checker, ops)
            for ops in workload.build(constants, seed, passes)
        ][1:]
        recheck_failed = checker.recheck_unique(seed)
        peak = procstat.peak_rss_mb(system.pid)
    finally:
        system.close()

    per_pass = [record.statistics() for record in records]
    metrics = {key: median(stats[key] for stats in per_pass) for key in per_pass[0]}
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak
    virtual = [value for record in records for value in record.virtual_s]
    metrics["virtual_s_per_op"] = sum(virtual) / len(virtual)
    failed = sum(record.failed for record in records) + recheck_failed
    return {
        "workload": name,
        "seed": seed,
        "passes": passes,
        "correct": failed == 0 and not checker.failures,
        "attempted": sum(record.attempted for record in records),
        "failed": failed,
        "failures": checker.failures[:10],
        "metrics": {
            key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END
        },
        "per_pass": per_pass,
    }
