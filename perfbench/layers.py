"""The traced run: per-layer metrics, measured from outside the program.

``install`` wraps the public entry points of each ``src/repro`` layer with
the timers of :mod:`perfbench.tracer`; the run then executes a warm-up and
three passes under them, one plain pass (tracing overhead), one pass with
the cyclic collector on (its cost), and the workload's variant passes
(row / event / thread / observed execution).  The socket workload is traced
twice over: against the child process for absolute client-side numbers, and
against the same service hosted in this process so the wrappers reach it.

Every metric of ``BENCHMARK.json``'s ``per_layer`` list is reported on every
workload; a metric that has no meaning on a workload (``service.*`` off the
socket, ``runtime.*`` off the grid) reads 0 there.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import threading
import time
from collections import Counter

from . import procstat
from . import system as system_module
from .env import RESULTS
from .ops import WORKLOADS
from .runner import Checker, PassRecord, prepare, run_pass, set_up
from .stats import median
from .system import SERVE_FLAGS, SocketClient
from .tracer import NAME, OP, Tracer, totals_by_name, write_chrome_trace

TRACED_PASSES = 3

#: (metric, unit, exact) of every per-layer metric, in report order.  Exact
#: metrics derive from counters, call counts and virtual time only, and
#: must repeat bit for bit for a given seed (the ISSUE's "count" metrics).
PER_LAYER = (
    ("sparql.parse_ms_per_op", "ms", False),
    ("sparql.parse_calls_per_op", "1/op", True),
    ("core.engine_self_ms_per_op", "ms", False),
    ("core.decompose_ms_per_op", "ms", False),
    ("core.source_select_ms_per_op", "ms", False),
    ("core.heuristics_ms_per_op", "ms", False),
    ("core.plan_self_ms_per_op", "ms", False),
    ("core.replans_per_op", "1/op", True),
    ("core.engine_construct_ms", "ms", False),
    ("mapping.translate_ms_per_op", "ms", False),
    ("mapping.translate_calls_per_op", "1/op", True),
    ("relational.select_ms_per_op", "ms", False),
    ("relational.statements_per_op", "1/op", True),
    ("relational.rows_out_per_op", "1/op", True),
    ("relational.write_ms_per_write", "ms", False),
    ("relational.index_ddl_ms_per_ddl", "ms", False),
    ("relational.virtual_source_s_per_op", "virtual_s", True),
    ("federation.wrapper_self_ms_per_op", "ms", False),
    ("federation.operators_self_ms_per_op", "ms", False),
    ("federation.subqueries_per_op", "1/op", True),
    ("federation.messages_per_op", "1/op", True),
    ("federation.answers_per_op", "1/op", True),
    ("federation.virtual_engine_s_per_op", "virtual_s", True),
    ("federation.row_vs_batch_wall_ratio", "ratio", False),
    ("network.virtual_network_s_per_op", "virtual_s", True),
    ("cache.canonicalize_ms_per_op", "ms", False),
    ("cache.lookup_ms_per_op", "ms", False),
    ("cache.plan_hit_ratio", "ratio", True),
    ("cache.subresult_hit_ratio", "ratio", True),
    ("cache.result_hit_ratio", "ratio", True),
    ("cache.plan_evictions_per_op", "1/op", True),
    ("cache.subresult_evictions_per_op", "1/op", True),
    ("cache.rss_growth_mb_per_kop", "MB", False),
    ("runtime.event_vs_sequential_wall_ratio", "ratio", False),
    ("runtime.thread_vs_sequential_wall_ratio", "ratio", False),
    ("runtime.gc_ms_per_op", "ms", False),
    ("obs.observe_wall_ratio", "ratio", False),
    ("service.boot_s", "s", False),
    ("service.http_roundtrip_ms", "ms", False),
    ("service.submit_ack_ms_p50", "ms", False),
    ("service.polls_per_op", "1/op", False),
    ("service.result_fetch_ms_p50", "ms", False),
    ("service.result_bytes_per_op", "B/op", True),
    ("service.serialize_ms_per_op", "ms", False),
    ("service.queue_wait_ms_p50", "ms", False),
    ("service.execution_ms_p50", "ms", False),
    ("service.metrics_render_ms", "ms", False),
    ("service.hit_latency_p50_ms", "ms", False),
    ("service.miss_latency_p50_ms", "ms", False),
    ("service.requests_retained", "count", True),
    ("service.rss_growth_mb_per_kop", "MB", False),
    ("datasets.build_lake_s", "s", False),
    ("trace.overhead_ratio", "ratio", False),
    ("trace.coverage_ratio", "ratio", False),
)

#: Span name -> the per-op self-time metric it feeds.
SELF_TIME_METRICS = {
    "sparql.parse": "sparql.parse_ms_per_op",
    "core.engine": "core.engine_self_ms_per_op",
    "core.decompose": "core.decompose_ms_per_op",
    "core.source_select": "core.source_select_ms_per_op",
    "core.heuristics": "core.heuristics_ms_per_op",
    "core.plan": "core.plan_self_ms_per_op",
    "mapping.translate": "mapping.translate_ms_per_op",
    "relational.plan": "relational.select_ms_per_op",
    "relational.execute": "relational.select_ms_per_op",
    "relational.query": "relational.select_ms_per_op",
    "relational.rows": "relational.select_ms_per_op",
    "federation.wrapper": "federation.wrapper_self_ms_per_op",
    "federation.operators": "federation.operators_self_ms_per_op",
    "cache.canonicalize": "cache.canonicalize_ms_per_op",
    "cache.lookup": "cache.lookup_ms_per_op",
    "service.serialize": "service.serialize_ms_per_op",
}

#: Variant passes: workload -> ((ratio metric, per-call engine arguments)).
#: A variant runs the first 1/VARIANT_SLICE of a pass (one grid round) and is
#: compared per op with the plain pass.
VARIANT_SLICE = 5
VARIANTS = {
    "grid_refresh": (
        ("federation.row_vs_batch_wall_ratio", {"exec": "row"}),
        ("runtime.event_vs_sequential_wall_ratio", {"runtime": "event"}),
        ("runtime.thread_vs_sequential_wall_ratio", {"runtime": "thread"}),
        ("obs.observe_wall_ratio", {"observe": True}),
    ),
    "hot_repeat": (("obs.observe_wall_ratio", {"observe": True}),),
}


class _TracedResult:
    """A ``ResultStream`` whose iteration runs under a stream span."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._tracer = tracer

    def __iter__(self):
        return self._tracer.stream("federation.operators", self._stream)

    def collect(self) -> list:
        return list(self)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def install(tracer: Tracer) -> None:
    """Wrap the program's public entry points (undo: ``tracer.restore``)."""
    from repro.cache.keys import canonicalize_query
    from repro.cache.lru import LRUCache
    from repro.core.decomposer import decompose_star_shaped, decompose_triple_wise
    from repro.core.engine import FederatedEngine
    from repro.core.heuristics import place_filters, push_down_joins
    from repro.core.planner import FederatedPlanner
    from repro.core.source_selection import select_sources
    from repro.datalake.lake import SemanticDataLake
    from repro.federation.wrappers import SPARQLWrapper, SQLWrapper
    from repro.mapping.translator import translate_stars
    from repro.rdf.graph import Graph
    from repro.relational.database import Database, QueryResult
    from repro.relational.vexecutor import execute_priced
    from repro.service.server import serialize_answers
    from repro.sparql.parser import parse_query

    def call(name, count=None):
        return lambda function: tracer.call(name, function, count)

    for function, name in (
        (parse_query, "sparql.parse"),
        (decompose_star_shaped, "core.decompose"),
        (decompose_triple_wise, "core.decompose"),
        (select_sources, "core.source_select"),
        (push_down_joins, "core.heuristics"),
        (place_filters, "core.heuristics"),
        (translate_stars, "mapping.translate"),
        (canonicalize_query, "cache.canonicalize"),
        (serialize_answers, "service.serialize"),
    ):
        tracer.patch_function(function, call(name))
    tracer.patch_function(execute_priced, call("relational.execute", lambda result: len(result[0])))
    tracer.patch(FederatedPlanner, "plan", call("core.plan"))
    tracer.patch(LRUCache, "get", call("cache.lookup"))
    tracer.patch(LRUCache, "put", call("cache.lookup"))
    tracer.patch(Database, "plan", call("relational.plan"))
    tracer.patch(Database, "execute", call("relational.write"))
    tracer.patch(SemanticDataLake, "create_index", call("relational.index_ddl"))
    tracer.patch(SemanticDataLake, "drop_index", call("relational.index_ddl"))
    tracer.patch(Graph, "add", call("rdf.write"))
    tracer.patch(Graph, "remove", call("rdf.write"))

    def traced_query(original):
        inner = tracer.call("relational.query", original)

        def query(self, statement, meter=None):
            result = inner(self, statement, meter)
            return QueryResult(result.header, tracer.stream("relational.rows", result))

        return query

    tracer.patch(Database, "query", traced_query)
    for wrapper in (SQLWrapper, SPARQLWrapper):
        for method in ("execute", "execute_batch"):
            tracer.patch(
                wrapper, method, lambda f: tracer.streaming("federation.wrapper", f)
            )

    def traced_execute(original):
        inner = tracer.call("core.engine", original)

        def execute(self, *args, **kwargs):
            return _TracedResult(inner(self, *args, **kwargs), tracer)

        return execute

    tracer.patch(FederatedEngine, "execute", traced_execute)


class _OpTracing:
    """Runs ops under an ``op`` root span and remembers the timed ones."""

    def __init__(self, tracer: Tracer, execute):
        self.tracer = tracer
        self.execute = execute
        self.recording = False
        self.timed_ops: set[int] = set()
        #: Refresh round of each recorded timed op: a run of untimed
        #: (refresh) ops starts a new round.
        self.round_of: dict[int, int] = {}
        self._round = 0
        self._refreshing = False
        self._next = 0

    def __call__(self, op):
        tracer = self.tracer
        tracer.op = self._next
        self._next += 1
        if not op.timed and not self._refreshing:
            self._round += 1
        self._refreshing = not op.timed
        if self.recording and op.timed:
            self.timed_ops.add(tracer.op)
            self.round_of[tracer.op] = self._round
        index = tracer.open("op")
        try:
            return self.execute(op)
        finally:
            tracer.close(index)
            tracer.op = -1


class _Tally:
    """Exact per-op counters read from each read's ``ExecutionStats``."""

    def __init__(self):
        self.reads = 0
        self.messages = 0
        self.answers = 0
        self.engine: list[float] = []
        self.network: list[float] = []
        self.source: list[float] = []

    def __call__(self, op, result) -> None:
        stats = (result.extra or {}).get("stats")
        if stats is None:
            return
        self.reads += 1
        self.messages += stats.messages
        self.answers += stats.answers
        blame = stats.blame_components()
        self.engine.append(blame["engine_work"])
        self.network.append(blame["network_delay"])
        self.source.append(blame["cache_miss_penalty"])


def _wall_per_op(record: PassRecord) -> float:
    return sum(record.wall_ns) / len(record.wall_ns)


def _hit_ratio(before: dict, after: dict) -> float:
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0


def _engine_cache_metrics(before: dict, after: dict, ops: int, metrics: dict) -> None:
    """Plan and sub-result cache movement between two counter snapshots."""
    for name in ("plan", "subresult"):
        earlier, later = before[name + "s"], after[name + "s"]
        metrics[f"cache.{name}_hit_ratio"] = _hit_ratio(earlier, later)
        metrics[f"cache.{name}_evictions_per_op"] = (
            later["evictions"] - earlier["evictions"]
        ) / ops


def _span_metrics(tracer: Tracer, timed_ops: set[int], metrics: dict) -> dict:
    """Fold the spans of *timed_ops* into per-op self times and counts."""
    totals = totals_by_name(tracer.spans, timed_ops)
    ops = len(timed_ops)
    for name, metric in SELF_TIME_METRICS.items():
        if name in totals:
            metrics[metric] += totals[name]["self"] / 1e6 / ops
    attributed = sum(bucket["self"] for name, bucket in totals.items() if name != "op")
    metrics["trace.coverage_ratio"] = attributed / totals["op"]["busy"]

    def spans(name: str) -> int:
        return totals[name]["spans"] if name in totals else 0

    metrics["sparql.parse_calls_per_op"] = spans("sparql.parse") / ops
    metrics["core.replans_per_op"] = spans("core.plan") / ops
    metrics["mapping.translate_calls_per_op"] = spans("mapping.translate") / ops
    metrics["relational.statements_per_op"] = spans("relational.plan") / ops
    metrics["federation.subqueries_per_op"] = spans("federation.wrapper") / ops
    rows = sum(
        totals[name]["count"]
        for name in ("relational.execute", "relational.rows")
        if name in totals
    )
    metrics["relational.rows_out_per_op"] = rows / ops
    for name, metric in (
        ("relational.write", "relational.write_ms_per_write"),
        ("relational.index_ddl", "relational.index_ddl_ms_per_ddl"),
    ):
        if name in totals:
            metrics[metric] = totals[name]["busy"] / 1e6 / totals[name]["spans"]
    return totals


def _collector_pass(system, checker: Checker, ops) -> tuple[PassRecord, float]:
    """One pass with the cyclic collector on and nothing frozen, as in a
    plain process; returns its record and the seconds automatic collections
    took."""
    spent = [0, 0]

    def watch(phase, info):
        if phase == "start":
            spent[1] = time.perf_counter_ns()
        else:
            spent[0] += time.perf_counter_ns() - spent[1]

    def execute(op):
        # Watching starts with the first op: the full collection ahead of
        # every pass is not the ops' doing.
        if watch not in gc.callbacks:
            gc.callbacks.append(watch)
        return system.execute(op)

    try:
        record = run_pass(system, checker, ops, execute=execute, collector=True)
    finally:
        gc.callbacks.remove(watch)
    # Nor is the collection that ends the pass an automatic one.
    return record, (spent[0] - record.collect_ns) / 1e9


def _trace_in_process(workload, system, constants, checker, seed, traced_passes, metrics):
    variants = VARIANTS.get(workload.name, ())
    lists = iter(workload.build(constants, seed, traced_passes + 2 + len(variants)))
    tracer = Tracer()
    driver = _OpTracing(tracer, system.execute)
    tally = _Tally()
    install(tracer)
    try:
        run_pass(system, checker, next(lists), execute=driver)
        rss0 = procstat.rss_mb()
        caches0 = system.cache_stats()
        driver.recording = True
        traced = [
            run_pass(system, checker, next(lists), execute=driver, on_result=tally)
            for __ in range(traced_passes)
        ]
        driver.recording = False
        caches1 = system.cache_stats()
        rss1 = procstat.rss_mb()
    finally:
        tracer.restore()
    attempted = sum(record.attempted for record in traced)
    failed = sum(record.failed for record in traced)
    _span_metrics(tracer, driver.timed_ops, metrics)
    # After every refresh the memos must miss again: no round sends fewer
    # statements to the relational engine than the first (more happen when
    # the program's own block-cache cap clears a member's blocks mid-round).
    statements = Counter(
        driver.round_of[span[OP]]
        for span in tracer.spans
        if span[NAME] == "relational.plan" and span[OP] in driver.round_of
    )
    per_round = [statements[index] for index in sorted(set(driver.round_of.values()))]
    if len(per_round) > 1 and not 0 < per_round[0] <= min(per_round):
        checker.failures.append(f"a refresh round replayed a memo: {per_round}")

    plain = run_pass(system, checker, next(lists))
    failed += plain.failed
    metrics["trace.overhead_ratio"] = median(map(_wall_per_op, traced)) / _wall_per_op(plain)
    collected, collector_s = _collector_pass(system, checker, next(lists))
    failed += collected.failed
    metrics["runtime.gc_ms_per_op"] = collector_s * 1e3 / collected.attempted
    for metric, arguments in variants:
        ops = next(lists)
        # The event and thread runtimes may deliver the same answers in
        # another order.
        checker.ordered = "runtime" not in arguments
        record = run_pass(
            system,
            checker,
            ops[: len(ops) // VARIANT_SLICE],
            execute=lambda op, arguments=arguments: system.execute(op, **arguments),
        )
        checker.ordered = True
        failed += record.failed
        metrics[metric] = _wall_per_op(record) / _wall_per_op(plain)

    reads = tally.reads
    metrics["federation.messages_per_op"] = tally.messages / reads
    metrics["federation.answers_per_op"] = tally.answers / reads
    metrics["federation.virtual_engine_s_per_op"] = math.fsum(tally.engine) / reads
    metrics["network.virtual_network_s_per_op"] = math.fsum(tally.network) / reads
    metrics["relational.virtual_source_s_per_op"] = math.fsum(tally.source) / reads
    _engine_cache_metrics(caches0, caches1, attempted, metrics)
    metrics["cache.rss_growth_mb_per_kop"] = (rss1 - rss0) * 1000.0 / attempted
    metrics["core.engine_construct_ms"] = system.engine_construct_ms
    metrics["datasets.build_lake_s"] = system.build_lake_s
    return tracer, attempted, failed, {"statements_per_round": per_round}


# -- the socket workload -------------------------------------------------------


class _HostedService:
    """The service of the socket workload, hosted on a thread of this
    process (same flags as the child) so the wrappers reach its layers."""

    def __init__(self, lake):
        from repro.service import ServiceConfig, start_service

        flags = dict(zip(SERVE_FLAGS[::2], SERVE_FLAGS[1::2]))
        config = ServiceConfig(
            port=0,
            exec=flags["--exec"],
            network=flags["--network"],
            workers=int(flags["--workers"]),
            global_concurrency=int(flags["--global-concurrency"]),
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self._server = asyncio.run_coroutine_threadsafe(
            start_service(lake, config), self._loop
        ).result(timeout=60)
        self.port = self._server.port

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(self._server.close(), self._loop).result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)
        self._loop.close()


def _traced_http(tracer: Tracer, original):
    """Client-side spans: one per exchange, named by what it turned out to
    be (submit, a poll answered 409, the result fetch)."""

    def request(port, method, path, body=b""):
        index = tracer.open("client.request")
        try:
            status, payload, first_byte_at = original(port, method, path, body)
        finally:
            tracer.close(index)
        if method == "POST":
            tracer.spans[index][0] = "client.submit"
        else:
            tracer.spans[index][0] = "client.poll" if status == 409 else "client.fetch"
        return status, payload, first_byte_at

    return request


def _histogram_p50_ms(before: dict, after: dict) -> float:
    """Median of the observations an SLO histogram gained between two
    ``/stats`` snapshots, in ms (bucket resolution)."""
    from repro.obs.slo import LogBucketHistogram

    earlier = dict(map(tuple, before["buckets"]))
    delta = {
        "count": after["count"] - before["count"],
        "sum": after["sum"] - before["sum"],
        "max": after["max"],
        "buckets": [
            [index, count - earlier.get(index, 0)]
            for index, count in after["buckets"]
            if count - earlier.get(index, 0)
        ],
    }
    if not delta["count"]:
        return 0.0
    return LogBucketHistogram.from_snapshot(delta).percentile(0.5) * 1e3


def _trace_socket(workload, system, constants, checker, seed, traced_passes, metrics):
    plan = workload.build(constants, seed, 2 * traced_passes)
    # Against the child: absolute client-side and server-side numbers.
    extras: list[dict] = []
    walls: dict[str, list[int]] = {"hit": [], "miss": []}

    def collect(op, result) -> None:
        extras.append(result.extra)
        walls[result.extra["result_cache"]].append(result.wall_ns)

    run_pass(system, checker, plan[0])
    stats0 = system.get_json("/stats")
    rss0 = procstat.rss_mb(system.pid)
    child_passes = [
        run_pass(system, checker, ops, on_result=collect)
        for ops in plan[1 : traced_passes + 1]
    ]
    stats1 = system.get_json("/stats")
    rss1 = procstat.rss_mb(system.pid)
    attempted = sum(record.attempted for record in child_passes)
    failed = sum(record.failed for record in child_passes)

    def timed(path: str) -> float:
        samples = []
        for __ in range(5):
            started = time.perf_counter_ns()
            system_module.http_request(system.port, "GET", path)
            samples.append(time.perf_counter_ns() - started)
        return median(samples) / 1e6

    metrics["service.boot_s"] = system.boot_s
    metrics["service.http_roundtrip_ms"] = timed("/healthz")
    metrics["service.metrics_render_ms"] = timed("/metrics")
    metrics["service.submit_ack_ms_p50"] = median(e["ack_ns"] for e in extras) / 1e6
    metrics["service.result_fetch_ms_p50"] = median(e["fetch_ns"] for e in extras) / 1e6
    metrics["service.polls_per_op"] = sum(e["polls"] for e in extras) / len(extras)
    metrics["service.result_bytes_per_op"] = sum(e["bytes"] for e in extras) / len(extras)
    metrics["service.hit_latency_p50_ms"] = median(walls["hit"]) / 1e6
    metrics["service.miss_latency_p50_ms"] = median(walls["miss"]) / 1e6
    slo0, slo1 = stats0["slo"]["global"], stats1["slo"]["global"]
    metrics["service.queue_wait_ms_p50"] = _histogram_p50_ms(slo0["queue_wait"], slo1["queue_wait"])
    metrics["service.execution_ms_p50"] = _histogram_p50_ms(slo0["execution"], slo1["execution"])
    metrics["service.requests_retained"] = stats1["requests"]
    metrics["service.rss_growth_mb_per_kop"] = (rss1 - rss0) * 1000.0 / attempted
    metrics["cache.result_hit_ratio"] = _hit_ratio(stats0["result_cache"], stats1["result_cache"])
    _engine_cache_metrics(stats0["caches"], stats1["caches"], attempted, metrics)

    # Hosted in this process: layer shares under the wrappers, plus
    # client-side spans.  Only shares are read from this part.
    hosted = _HostedService(checker.lake)
    tracer = Tracer()
    try:
        client = SocketClient(hosted.port)
        driver = _OpTracing(tracer, client.execute)
        hosted_checker = Checker(client, checker.lake, constants, checker.reference_tenant)
        install(tracer)
        tracer.patch(system_module, "connect", lambda f: tracer.call("client.connect", f))
        tracer.patch(system_module, "http_request", lambda f: _traced_http(tracer, f))
        try:
            run_pass(client, hosted_checker, plan[0], execute=driver)
            driver.recording = True
            traced = [
                run_pass(client, hosted_checker, ops, execute=driver)
                for ops in plan[traced_passes + 1 :]
            ]
            driver.recording = False
        finally:
            tracer.restore()
        plain = run_pass(client, hosted_checker, plan[1])
    finally:
        hosted.close()
    failed += sum(record.failed for record in traced) + plain.failed
    checker.failures.extend(hosted_checker.failures)
    _span_metrics(tracer, driver.timed_ops, metrics)
    metrics["trace.overhead_ratio"] = median(map(_wall_per_op, traced)) / _wall_per_op(plain)
    return tracer, attempted, failed, {}


def trace_workload(name: str, seed: int, smoke: bool = False) -> dict:
    """One traced run; returns the result document and writes the Chrome
    trace and the per-layer table under ``perfbench/results/traces/``."""
    workload = WORKLOADS[name]
    traced_passes = 1 if smoke else TRACED_PASSES
    metrics = {metric: 0.0 for metric, __, __ in PER_LAYER}
    system = set_up(workload, smoke)
    try:
        constants, checker = prepare(workload, system, smoke)
        trace = _trace_socket if workload.socket else _trace_in_process
        tracer, attempted, failed, extra = trace(
            workload, system, constants, checker, seed, traced_passes, metrics
        )
    finally:
        system.close()
    document = {
        "workload": name,
        "seed": seed,
        "passes": traced_passes,
        "correct": failed == 0 and not checker.failures,
        "attempted": attempted,
        "failed": failed,
        "failures": checker.failures[:10],
        "metrics": {
            metric: {"value": metrics[metric], "unit": unit}
            for metric, unit, __ in PER_LAYER
        },
        **extra,
    }
    directory = os.path.join(RESULTS, "traces")
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, f"{name}.seed{seed}")
    write_chrome_trace(tracer.spans, f"{stem}.chrome.json")
    with open(f"{stem}.layers.json", "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return document
