"""The multi-tenant query service: asyncio HTTP daemon over an engine pool.

Architecture (langbridge-style worker data plane, scaled to this repo)::

    HTTP clients ──> asyncio server ──> AdmissionController ──> EnginePool
                       (stdlib)          per-tenant FIFO,        N engines,
                                         limits, timeouts        shared caches

:class:`QueryService` is the transport-independent core: ``submit`` /
``status`` / ``result`` / ``trace`` work on plain dicts, so tests (and the
replay harness) can drive the exact service logic the HTTP layer exposes.
The HTTP layer itself is a minimal hand-rolled HTTP/1.1 server on
``asyncio.start_server`` — no third-party dependency, one JSON document
per response, ``Connection: close``; the request head is one bounded read,
and a malformed request is a ``4xx``, never a ``500``.

What runs where.  The loop thread owns every admission transition, the
cross-request result cache's one lookup — made when a ticket *starts*, at
submit if a slot is free, otherwise in the pump that frees one — and the
HTTP writer; an executor thread owns a miss: the engine run, the one JSON
encoding of its answers, the cache fill.  A result-cache **hit** therefore
never leaves the loop: it passes admission (submit → start → done, so
limits, fair share, SLO and journal see it like any request) and is
complete the moment it starts — before its ``202`` is written when a slot
was free — with no task, no executor hand-off and no thread wake-up.  ``GET …/result`` splices the answers' bytes encoded
once by the miss that created them — the miss's own response included —
into a document byte-identical to ``json.dumps(result, sort_keys=True)``.

API:

* ``POST /queries`` ``{"tenant": ..., "query": ..., "seed": ...}`` —
  ``202`` with a request ID, or ``429`` with a structured refusal when
  admission control sheds the request.
* ``GET /queries/<id>`` — status document (state machine:
  queued/running/done/timeout/shed/error).
* ``GET /queries/<id>/result`` — the answers (N3-serialized terms) plus
  execution stats; ``409`` while not finished, ``504`` after a timeout.
* ``GET /queries/<id>/trace`` — per-request Chrome trace (observe mode).
* ``GET /stats`` — versioned (``stats_version``) document: admission
  metrics, shared cache counters (engine caches and the cross-request
  result cache, evictions included), and the per-tenant SLO snapshot.
* ``GET /metrics`` — the same numbers in Prometheus text exposition
  format (``text/plain; version=0.0.4``), scrape-ready.
* ``GET /healthz`` — liveness.

Every request's execution carries its request ID into the PR-4 trace bus
(``RunObservation.request_id``), so a multi-request Chrome export shows
one process per request, attributable by ID.

Request timeouts cover queue wait + execution.  A request timing out while
queued never starts; one timing out mid-execution is answered with a
refusal immediately, but its concurrency slot is only released when the
worker thread actually finishes — the admission limits hold at every
instant, at the price of a slow query briefly "shadowing" a slot.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, NamedTuple

from ..cache import LRUCache, canonicalize_query
from ..federation.answers import EXEC_MODES, Solution
from ..obs.journal import EventJournal
from ..obs.promexport import render_exposition
from ..obs.slo import SLOAccountant
from .admission import AdmissionController, DONE, QUEUED, SHED, TIMED_OUT, Ticket
from .config import ServiceConfig, ServiceConfigError
from .pool import EnginePool

#: Version stamp of the ``/stats`` JSON shape.  v1 (PR 7) was unversioned;
#: v2 adds ``stats_version``, result-cache eviction counts, and the
#: per-tenant SLO snapshot; v3 adds the per-blame-class and per-source
#: network-delay histograms inside the SLO snapshot (slo_version 2) and
#: the per-request ``critical_path`` attribution on observed executions.
STATS_VERSION = 3

#: Largest accepted request body.
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


def serialize_solution(solution: Solution) -> dict[str, str]:
    """One answer as a JSON-safe dict (N3-rendered terms, sorted names)."""
    return {name: solution[name].n3() for name in sorted(solution)}


def serialize_answers(answers: list[Solution]) -> list[dict[str, str]]:
    """Answers in stream order — bit-comparable across execution paths."""
    return [serialize_solution(solution) for solution in answers]


class _Result(NamedTuple):
    """One finished execution: what the result cache stores and what a
    finished request points at.  ``answers_json`` is
    ``json.dumps(answers, sort_keys=True)`` encoded once, by the executor
    thread of the miss that ran the query; every ``GET …/result`` of that
    miss and of each later hit splices the same bytes into its response."""

    answers: list[dict[str, str]]
    answers_json: bytes
    stats: dict


class _Request:
    """Service-side state of one submitted request."""

    __slots__ = (
        "ticket",
        "query",
        "seed",
        "runtime",
        "exec",
        "started",
        "result",
        "observation",
        "error",
    )

    def __init__(
        self,
        ticket: Ticket,
        query: str,
        seed: int | None,
        runtime: str | None,
        exec: str | None,
    ):
        self.ticket = ticket
        self.query = query
        self.seed = seed
        self.runtime = runtime
        self.exec = exec
        self.started = asyncio.Event()
        self.result: _Result | None = None
        self.observation = None
        self.error: str | None = None


class QueryService:
    """The admission-controlled, pooled query execution core."""

    def __init__(
        self,
        lake,
        config: ServiceConfig,
        time_source: Callable[[], float] | None = None,
    ):
        config.validate()
        from ..benchmark.baseline import NETWORK_CHOICES, POLICY_CHOICES
        from ..datasets import BENCHMARK_QUERIES
        from ..runtime import RUNTIMES

        if config.policy not in POLICY_CHOICES:
            raise ServiceConfigError(
                f"unknown policy {config.policy!r}; choose from "
                f"{sorted(POLICY_CHOICES)}"
            )
        if config.network not in NETWORK_CHOICES:
            raise ServiceConfigError(
                f"unknown network {config.network!r}; choose from "
                f"{sorted(NETWORK_CHOICES)}"
            )
        if config.runtime not in RUNTIMES:
            raise ServiceConfigError(
                f"unknown runtime {config.runtime!r}; choose from {RUNTIMES}"
            )
        if config.exec not in EXEC_MODES:
            raise ServiceConfigError(
                f"unknown exec mode {config.exec!r}; choose from {EXEC_MODES}"
            )
        self.config = config
        self._named_queries = BENCHMARK_QUERIES
        self.pool = EnginePool(
            lake,
            size=config.workers,
            policy=POLICY_CHOICES[config.policy](),
            network=NETWORK_CHOICES[config.network](),
            runtime=config.runtime,
            exec=config.exec,
            batch_size=config.batch_size,
            plan_cache_size=config.plan_cache_size,
            subresult_cache_size=config.subresult_cache_size,
        )
        self.admission = AdmissionController(config)
        self._lake = lake
        # Cross-request result cache: (canonical query, catalog version,
        # seed, runtime, exec) -> _Result.  The catalog
        # version in the key invalidates every entry the moment the lake's
        # data changes; LRU-bounded by ``config.result_cache_size``.
        # Observed runs bypass it — a trace must measure a real execution.
        self._result_cache = LRUCache(
            max(1, config.result_cache_size),
            enabled=config.result_cache_size > 0 and not config.observe,
        )
        # Telemetry plane: SLO accountant + event journal observe every
        # admission transition; the journal optionally streams canonical
        # JSONL to config.journal_path.
        self.slo = SLOAccountant(config)
        self._journal_sink = (
            open(config.journal_path, "w", encoding="utf-8")
            if config.journal_path
            else None
        )
        self.journal = EventJournal(sink=self._journal_sink)
        self.admission.add_observer(self.slo)
        self.admission.add_observer(self.journal)
        self._requests: dict[str, _Request] = {}
        self._counter = 0
        self._executor = ThreadPoolExecutor(
            max_workers=config.global_concurrency,
            thread_name_prefix="repro-service",
        )
        self._now = time_source or time.monotonic
        self._lifecycles: set[asyncio.Task] = set()

    # -- core operations -----------------------------------------------------

    async def submit(self, payload: object) -> tuple[int, dict]:
        """Admit one request; returns (HTTP status, response document)."""
        if not isinstance(payload, dict):
            return 400, {"error": "bad-request", "detail": "body must be a JSON object"}
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            return 400, {
                "error": "bad-request",
                "detail": "field 'query' must be a non-empty string "
                "(benchmark name or SPARQL text)",
            }
        tenant = payload.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            return 400, {
                "error": "bad-request",
                "detail": f"field 'tenant' must be a non-empty string, got {tenant!r}",
            }
        seed = payload.get("seed")
        # bool is an int subclass; a JSON true is not a delay-sampling seed.
        if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
            return 400, {
                "error": "bad-request",
                "detail": f"field 'seed' must be an integer, got {seed!r}",
            }
        runtime = payload.get("runtime")
        if runtime is not None:
            from ..runtime import RUNTIMES

            if runtime not in RUNTIMES:
                return 400, {
                    "error": "bad-request",
                    "detail": f"unknown runtime {runtime!r}; choose from {RUNTIMES}",
                }
        exec_mode = payload.get("exec")
        if exec_mode is not None and exec_mode not in EXEC_MODES:
            return 400, {
                "error": "bad-request",
                "detail": f"unknown exec mode {exec_mode!r}; choose from {EXEC_MODES}",
            }

        self._counter += 1
        request_id = f"r-{self._counter:06d}"
        ticket = self.admission.submit(request_id, tenant, self._now())
        named = self._named_queries.get(query)
        record = _Request(
            ticket, named.text if named is not None else query, seed, runtime, exec_mode
        )
        self._requests[request_id] = record
        if ticket.state == SHED:
            body = ticket.refusal()
            body["error"] = "shed"
            return 429, body
        # With a free slot the request starts — and a result-cache hit
        # finishes — before the 202 is written.
        self._pump()
        if ticket.state == QUEUED and ticket.deadline is not None:
            self._spawn(self._queued_deadline(record))
        return 202, {
            "request_id": request_id,
            "tenant": tenant,
            "state": ticket.state,
            "status_url": f"/queries/{request_id}",
        }

    def status(self, request_id: str) -> tuple[int, dict]:
        record = self._requests.get(request_id)
        if record is None:
            return 404, {"error": "not-found", "request_id": request_id}
        ticket = record.ticket
        body = ticket.to_dict()
        if record.error is not None:
            body["state"] = "error"
            body["detail"] = record.error
        elif ticket.state == DONE:
            body["answers"] = len(record.result.answers)
            if ticket.finished_at is not None:
                body["latency"] = ticket.finished_at - ticket.submitted_at
            if "critical_path" in record.result.stats:
                body["critical_path"] = record.result.stats["critical_path"]
        return 200, body

    def _result_document(self, request_id: str) -> tuple[int, dict, _Result | None]:
        """Status and document of ``GET …/result`` without the answers,
        plus the finished result when the status is ``200``."""
        record = self._requests.get(request_id)
        if record is None:
            return 404, {"error": "not-found", "request_id": request_id}, None
        ticket = record.ticket
        if record.error is not None:
            return 500, {
                "error": "execution-failed",
                "request_id": request_id,
                "detail": record.error,
            }, None
        if ticket.state == SHED:
            body = ticket.refusal()
            body["error"] = "shed"
            return 429, body, None
        if ticket.state == TIMED_OUT:
            body = ticket.refusal()
            body["error"] = "timeout"
            return 504, body, None
        if ticket.state != DONE:
            return 409, {
                "error": "not-ready",
                "request_id": request_id,
                "state": ticket.state,
            }, None
        result = record.result
        return 200, {
            "request_id": request_id,
            "tenant": ticket.tenant,
            "stats": result.stats,
        }, result

    def result(self, request_id: str) -> tuple[int, dict]:
        status, body, result = self._result_document(request_id)
        if result is not None:
            body["answers"] = result.answers
        return status, body

    def result_json(self, request_id: str) -> tuple[int, dict | bytes]:
        """:meth:`result` as the HTTP layer sends it: a ``200`` is the
        encoded document — byte for byte ``json.dumps(result(...)[1],
        sort_keys=True)`` — spliced around the answers' bytes that were
        encoded once (``"answers"`` sorts before every other key)."""
        status, body, result = self._result_document(request_id)
        if result is None:
            return status, body
        rest = json.dumps(body, sort_keys=True).encode()
        return status, b'{"answers": ' + result.answers_json + b", " + rest[1:]

    def trace(self, request_id: str) -> tuple[int, dict]:
        record = self._requests.get(request_id)
        if record is None:
            return 404, {"error": "not-found", "request_id": request_id}
        if record.observation is None:
            return 404, {
                "error": "no-trace",
                "request_id": request_id,
                "detail": "run not observed (start the service with observe "
                "on) or not finished",
            }
        from ..obs import to_chrome_trace

        ticket = record.ticket
        label = f"{request_id} tenant={ticket.tenant}"
        return 200, to_chrome_trace([(label, record.observation)])

    def stats(self) -> tuple[int, dict]:
        caches = {
            name: stats.as_dict() for name, stats in self.pool.cache_stats().items()
        }
        result_stats = self._result_cache.stats()
        result_cache = {
            "capacity": self.config.result_cache_size,
            "entries": result_stats.size,
            "hits": result_stats.hits,
            "misses": result_stats.misses,
            "evictions": result_stats.evictions,
        }
        cache_stats = dict(caches)
        cache_stats["result"] = result_cache
        return 200, {
            "stats_version": STATS_VERSION,
            "admission": self.admission.snapshot(),
            "caches": caches,
            "pool": {"engines": len(self.pool)},
            "requests": len(self._requests),
            "result_cache": result_cache,
            "slo": self.slo.snapshot(cache_stats=cache_stats),
        }

    def metrics_text(self) -> str:
        """The ``/stats`` document rendered as Prometheus exposition text."""
        __, stats = self.stats()
        return render_exposition(stats)

    async def drain(self) -> None:
        """Wait for every in-flight lifecycle to finish (tests/shutdown)."""
        while self._lifecycles:
            await asyncio.gather(*list(self._lifecycles), return_exceptions=True)

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        if self._journal_sink is not None:
            self._journal_sink.close()
            self._journal_sink = None

    # -- lifecycle -----------------------------------------------------------
    #
    # Loop thread: admission transitions, the result-cache lookup and the
    # completion of a hit.  Executor thread: a miss — the engine run, the
    # one encoding of its answers, the cache fill.

    def _spawn(self, coroutine) -> None:
        """Run *coroutine* as a task that :meth:`drain` waits for."""
        task = asyncio.get_running_loop().create_task(coroutine)
        self._lifecycles.add(task)
        task.add_done_callback(self._lifecycles.discard)

    def _pump(self) -> None:
        """Start every startable queued request.

        A hit is completed inside :meth:`_start`, which frees its slot
        again — hence the loop.  Tickets the controller expires while
        pumping answer ``504`` from their state alone.
        """
        while started := self.admission.start_ready(self._now()):
            for ticket in started:
                self._start(self._requests[ticket.request_id])

    def _start(self, record: _Request) -> None:
        """A request just got its slot: the one result-cache lookup.

        Looked up now and not at submit — while the request queued, the
        cache may have been filled or the catalog version moved.  A hit is
        complete right here: it passed admission like any request (limits,
        fair share, SLO histograms and the journal see submit → start →
        done) but costs no task, no executor hand-off and no thread
        wake-up.  A miss goes to the executor with the key it was looked up
        under; so does every request when the cache is disabled, which is
        then never looked up (its miss counter stays 0).
        """
        record.started.set()
        key = None
        if self._result_cache.enabled:
            key = self._result_cache_key(record)
            cached = self._result_cache.get(key)
            if cached is not None:
                record.result = cached._replace(
                    stats=dict(cached.stats, result_cache="hit")
                )
                self.admission.complete(record.ticket, self._now())
                return
        self._spawn(self._running(record, key))

    async def _queued_deadline(self, record: _Request) -> None:
        """Queued phase of a request that found no free slot: :meth:`_pump`
        starts it when one frees; this only enforces its deadline."""
        ticket = record.ticket
        if ticket.state != QUEUED:  # started or expired before this task ran
            return
        remaining = max(0.0, ticket.deadline - self._now())
        try:
            await asyncio.wait_for(record.started.wait(), timeout=remaining)
        except asyncio.TimeoutError:
            # A no-op when the ticket was started concurrently.
            self.admission.expire_queued(max(self._now(), ticket.deadline))

    async def _running(self, record: _Request, key: tuple | None) -> None:
        """Running phase of a miss, bounded by the deadline."""
        ticket = record.ticket
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, self._execute, record, key)
        remaining = None
        if ticket.deadline is not None:
            remaining = max(0.0, ticket.deadline - self._now())
        timed_out = False
        try:
            outcome = await asyncio.wait_for(asyncio.shield(future), timeout=remaining)
        except asyncio.TimeoutError:
            # The client reads the timeout refusal from now on; the slot is
            # released when the worker thread actually finishes.
            timed_out = True
            outcome = await asyncio.gather(future, return_exceptions=True)
            outcome = outcome[0]
        except Exception as error:  # execution failed; surface as 500
            outcome = error
        if isinstance(outcome, BaseException):
            record.error = f"{type(outcome).__name__}: {outcome}"
        else:
            # Stored even after a timeout: the work is done anyway, and a
            # late poll of a timed-out request can still see its trace.
            record.result, record.observation = outcome
        now = self._now()
        if timed_out and ticket.deadline is not None:
            now = max(now, ticket.deadline)
        self.admission.complete(ticket, now)
        if record.error is not None:
            self.slo.note_error(ticket.tenant)
            self.journal.append(
                "error",
                now,
                request_id=ticket.request_id,
                tenant=ticket.tenant,
                detail=record.error,
            )
        self._pump()

    def _result_cache_key(self, record: _Request) -> tuple:
        """Cache identity of one execution: canonical query text (the plan
        cache's ``canonicalize_query``), the lake's catalog version, and
        every knob that can change the answer stream (seed, runtime, exec
        mode)."""
        return (
            canonicalize_query(record.query),
            self._lake.catalog_version(),
            record.seed,
            record.runtime or self.config.runtime,
            record.exec or self.config.exec,
        )

    def _execute(self, record: _Request, key: tuple | None):
        """Executor-thread body of a miss: run, encode the answers once,
        publish under *key* (``None``: the cache is disabled)."""
        answers, stats, observation = self._run_query(record)
        result = _Result(answers, json.dumps(answers, sort_keys=True).encode(), stats)
        if key is not None:
            evicted = self._result_cache.put(key, result)
            if evicted:
                # Journaled from the executor thread (append is locked).
                self.journal.append(
                    "result-cache-evict",
                    self._now(),
                    cache="result",
                    evicted=evicted,
                    request_id=record.ticket.request_id,
                )
            result = result._replace(stats=dict(stats, result_cache="miss"))
        return result, observation

    def _run_query(self, record: _Request):
        """Borrow an engine, run, serialize (tests swap this for a fake)."""
        engine = self.pool.checkout()
        try:
            stream = engine.execute(
                record.query,
                seed=record.seed,
                runtime=record.runtime,
                exec=record.exec,
                observe=self.config.observe,
            )
            answers = stream.collect()
            stats = stream.stats
            observation = stream.observation
            if observation is not None:
                observation.request_id = record.ticket.request_id
            stats_doc = {
                "answers": stats.answers,
                "execution_time": stats.execution_time,
                "time_to_first_answer": stats.time_to_first_answer,
                "messages": stats.messages,
                "cache": stats.cache_summary(),
            }
            # Fresh executions (never cache replays) feed the service-wide
            # blame histograms and leave an audit event in the journal.
            components = stats.blame_components()
            ticket = record.ticket
            self.slo.note_execution_profile(
                ticket.tenant,
                components["engine_work"],
                components["network_delay"],
                components["cache_miss_penalty"],
                {
                    source: parts["network_delay"]
                    for source, parts in components["sources"].items()
                },
            )
            self.journal.append(
                "exec-profile",
                self._now(),
                request_id=ticket.request_id,
                tenant=ticket.tenant,
                engine=components["engine_work"],
                network=components["network_delay"],
                cache=components["cache_miss_penalty"],
                total=components["total"],
                sources={
                    source: parts["network_delay"]
                    for source, parts in components["sources"].items()
                },
            )
            if observation is not None:
                from ..obs.critpath import attribute_run

                queue_wait = 0.0
                if ticket.started_at is not None:
                    queue_wait = max(0.0, ticket.started_at - ticket.submitted_at)
                report = attribute_run(observation, stats, queue_wait=queue_wait)
                stats_doc["critical_path"] = report.summary()
            return serialize_answers(answers), stats_doc, observation
        finally:
            self.pool.checkin(engine)


# ---------------------------------------------------------------------------
# HTTP layer
# ---------------------------------------------------------------------------


class ServiceServer:
    """The asyncio HTTP front of a :class:`QueryService`."""

    def __init__(self, service: QueryService):
        self.service = service
        self._server: asyncio.AbstractServer | None = None

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        config = self.service.config
        self._server = await asyncio.start_server(
            self._handle_connection, config.host, config.port
        )

    async def serve_forever(self) -> None:
        assert self._server is not None, "server not started"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.service.drain()
        self.service.close()

    # -- request handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            status, body = await self._handle_one(reader)
        except Exception as error:  # defensive: never kill the accept loop
            status, body = 500, {"error": "internal", "detail": str(error)}
        try:
            # A str body is pre-rendered plain text (the /metrics
            # exposition), bytes are an already encoded JSON document (a
            # finished result); anything else is a JSON document to encode.
            content_type = "application/json"
            if isinstance(body, str):
                payload = body.encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif isinstance(body, bytes):
                payload = body
            else:
                payload = json.dumps(body, sort_keys=True).encode()
            reason = _REASONS.get(status, "Unknown")
            head = (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                + ("Retry-After: 1\r\n" if status == 429 else "")
                + "Connection: close\r\n\r\n"
            )
            writer.write(head.encode() + payload)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):  # client went away
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_one(
        self, reader: asyncio.StreamReader
    ) -> tuple[int, dict | str | bytes]:
        # The whole head in one read, bounded by the stream limit.
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            return 431, {"error": "too-large", "detail": "request head too large"}
        except asyncio.IncompleteReadError:
            return 400, {"error": "bad-request", "detail": "truncated request head"}
        request_line, *header_lines = head[:-4].decode("latin-1").split("\r\n")
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "bad-request", "detail": "malformed request line"}
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        for line in header_lines:
            name, __, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                size = int(length)
            except ValueError:
                size = -1  # refused like a negative length
            if size < 0:
                return 400, {"error": "bad-request", "detail": "bad Content-Length"}
            if size > MAX_BODY_BYTES:
                return 413, {
                    "error": "too-large",
                    "detail": f"body exceeds {MAX_BODY_BYTES} bytes",
                }
            try:
                body = await reader.readexactly(size)
            except asyncio.IncompleteReadError:
                return 400, {"error": "bad-request", "detail": "truncated body"}
        return await self._route(method, path, body)

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> tuple[int, dict | str | bytes]:
        service = self.service
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "method-not-allowed"}
            return 200, {"status": "ok", "engines": len(service.pool)}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "method-not-allowed"}
            return service.stats()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "method-not-allowed"}
            return 200, service.metrics_text()
        if path == "/queries":
            if method != "POST":
                return 405, {"error": "method-not-allowed"}
            try:
                payload = json.loads(body.decode() or "null")
            except (json.JSONDecodeError, UnicodeDecodeError) as error:
                return 400, {"error": "bad-request", "detail": f"invalid JSON: {error}"}
            return await service.submit(payload)
        if path.startswith("/queries/"):
            if method != "GET":
                return 405, {"error": "method-not-allowed"}
            rest = path[len("/queries/"):]
            if rest.endswith("/result"):
                return service.result_json(rest[: -len("/result")])
            if rest.endswith("/trace"):
                return service.trace(rest[: -len("/trace")])
            if "/" not in rest:
                return service.status(rest)
        return 404, {"error": "not-found", "path": path}


async def start_service(lake, config: ServiceConfig) -> ServiceServer:
    """Build and start the HTTP service; returns the running server."""
    server = ServiceServer(QueryService(lake, config))
    await server.start()
    return server
