"""The program under test, set up and driven through its public surface.

Two drivers share one interface (``execute(op) -> OpResult``):

* :class:`InProcessSystem` — a lake plus one ``FederatedEngine`` per tenant,
  pinned to ``exec="batch"``, ``runtime="sequential"`` and the
  ``ServiceConfig`` default cache sizes;
* :class:`SocketSystem` — a ``python -m repro serve`` **child process**
  reached over real TCP by a minimal one-connection-per-request client (the
  server answers ``Connection: close``).

Every timing here brackets exactly one op; answer digests and reference
look-ups happen outside the bracket.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import islice

from . import ops as opkinds
from .ops import Op

LAKE_SCALE = 0.5
SMOKE_SCALE = 0.1
LAKE_SEED = 42

#: ``repro serve`` flags of the socket workload (R3/R4).
SERVE_FLAGS = (
    "--exec", "batch",
    "--network", "gamma2",
    "--workers", "2",
    "--global-concurrency", "2",
)
POLL_INTERVAL_S = 0.001
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0


@dataclass
class OpResult:
    ok: bool
    wall_ns: int
    #: execute() -> first answer (socket: POST -> first byte of the 200
    #: result); None for writes and failed ops.
    first_ns: int | None = None
    #: CPU of this process around the op.
    cpu_ns: int = 0
    virtual_s: float | None = None
    #: The answers as the driver received them (terms in-process, N3
    #: strings over the socket); None for writes.
    answers: list | None = None
    detail: str = ""
    #: In-process: the run's ``ExecutionStats``; socket: client phase
    #: timings, poll count, payload size and the result-cache verdict.
    extra: dict | None = None


def digest_answers(serialized: list[dict[str, str]], ordered: bool = True) -> str:
    """SHA-256 over ``serialize_answers`` output, in stream order — or, for
    runtimes that may interleave sources differently, as a multiset."""
    if not ordered:
        serialized = sorted(serialized, key=lambda answer: sorted(answer.items()))
    blob = json.dumps(serialized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def lake_scale(smoke: bool) -> float:
    return SMOKE_SCALE if smoke else LAKE_SCALE


def make_engine(lake, tenant: str, **overrides):
    """The engine of a ``policy/network`` tenant under the R4 pins: batch
    data plane, sequential runtime, ``ServiceConfig`` default cache sizes."""
    from repro import FederatedEngine
    from repro.benchmark.baseline import NETWORK_CHOICES, POLICY_CHOICES
    from repro.service import ServiceConfig

    policy, network = tenant.split("/")
    defaults = ServiceConfig()
    settings = {
        "exec": "batch",
        "runtime": "sequential",
        "plan_cache_size": defaults.plan_cache_size,
        "subresult_cache_size": defaults.subresult_cache_size,
        **overrides,
    }
    return FederatedEngine(
        lake,
        policy=POLICY_CHOICES[policy](),
        network=NETWORK_CHOICES[network](),
        **settings,
    )


def reference_engine(lake, tenant: str):
    """Cache-free row/sequential engine whose answers are the truth."""
    return make_engine(
        lake,
        tenant,
        exec="row",
        enable_plan_cache=False,
        enable_subresult_cache=False,
    )


def apply_write(lake, op: Op) -> bool:
    """Run one write/DDL op against the lake; True when it took effect."""
    from repro.rdf.terms import IRI, Literal, Triple

    if op.kind == opkinds.SQL:
        return lake.source(op.tenant).database.execute(op.text) == 1
    if op.kind in (opkinds.RDF_ADD, opkinds.RDF_REMOVE):
        subject, predicate, value = op.args
        triple = Triple(IRI(subject), IRI(predicate), Literal(value))
        graph = lake.source(op.tenant).graph
        return graph.add(triple) if op.kind == opkinds.RDF_ADD else graph.remove(triple)
    if op.kind == opkinds.DROP_INDEX:
        lake.drop_index(op.tenant, *op.args)
        return True
    if op.kind == opkinds.CREATE_INDEX:
        table, column = op.args
        lake.create_index(op.tenant, table, [column])
        return True
    raise ValueError(f"unknown op kind {op.kind!r}")


class InProcessSystem:
    """Lake + engines in this process."""

    #: No child process to account for.
    pid = None

    def __init__(self, tenants: tuple, scale: float):
        from repro.datasets import build_lslod_lake

        started = time.perf_counter()
        self.lake = build_lslod_lake(scale=scale, seed=LAKE_SEED)
        self.build_lake_s = time.perf_counter() - started
        started = time.perf_counter()
        self.engines = {
            tenant: make_engine(self.lake, tenant) for tenant in tenants
        }
        self.engine_construct_ms = (
            (time.perf_counter() - started) * 1000.0 / len(self.engines)
        )
        from repro.service.server import serialize_answers

        self._serialize = serialize_answers

    def execute(self, op: Op, **execute_args) -> OpResult:
        if op.kind != opkinds.READ:
            cpu0 = time.process_time_ns()
            t0 = time.perf_counter_ns()
            ok = apply_write(self.lake, op)
            wall = time.perf_counter_ns() - t0
            return OpResult(ok, wall, cpu_ns=time.process_time_ns() - cpu0)
        engine = self.engines[op.tenant]
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        stream = engine.execute(op.text, seed=op.seed, **execute_args)
        iterator = iter(stream)
        answers = list(islice(iterator, 1))
        first_ns = time.perf_counter_ns() - t0
        answers.extend(iterator)
        wall = time.perf_counter_ns() - t0
        cpu = time.process_time_ns() - cpu0
        return OpResult(
            True,
            wall,
            first_ns,
            cpu,
            stream.stats.execution_time,
            answers,
            extra={"stats": stream.stats},
        )

    def serialized(self, result: OpResult) -> list[dict[str, str]]:
        return self._serialize(result.answers)

    def cache_stats(self) -> dict:
        """Summed plan / sub-result counters over every engine."""
        totals: dict = {}
        for engine in self.engines.values():
            for name, stats in engine.cache_stats().items():
                bucket = totals.setdefault(name, {"hits": 0, "misses": 0, "evictions": 0})
                bucket["hits"] += stats.hits
                bucket["misses"] += stats.misses
                bucket["evictions"] += stats.evictions
        return totals

    def close(self) -> None:
        pass


# -- the socket driver ---------------------------------------------------------


def connect(port: int) -> socket.socket:
    conn = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
    conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn


def http_request(port: int, method: str, path: str, body: bytes = b""):
    """One HTTP/1.1 exchange on a fresh connection.

    Returns (status, payload bytes, ``perf_counter_ns`` at the first
    response byte).
    """
    with connect(port) as conn:
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        if body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        conn.sendall(head.encode() + b"\r\n" + body)
        chunks = [conn.recv(65536)]
        first_byte_at = time.perf_counter_ns()
        while chunks[-1]:
            chunks.append(conn.recv(65536))
    raw = b"".join(chunks)
    header, __, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(None, 2)[1])
    return status, payload, first_byte_at


def spawn_server(scale: float) -> tuple[subprocess.Popen, int]:
    """Start ``repro serve`` on an ephemeral port; returns (child, port)
    once ``/healthz`` answers."""
    command = [
        sys.executable, "-u", "-m", "repro", "serve",
        "--port", "0",
        "--scale", str(scale),
        "--seed", str(LAKE_SEED),
        *SERVE_FLAGS,
    ]
    child = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=os.environ,
    )
    try:
        line = child.stdout.readline()
        if "listening on" not in line:
            raise RuntimeError(
                f"repro serve did not start: {line!r} {child.stderr.read()!r}"
            )
        port = int(line.rsplit(":", 1)[1])
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while http_request(port, "GET", "/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)
    except BaseException:
        stop_server(child)
        raise
    return child, port


def stop_server(child: subprocess.Popen) -> None:
    child.terminate()
    try:
        child.wait(timeout=10)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
    child.stdout.close()
    child.stderr.close()


class SocketClient:
    """The closed-loop client: POST, then poll the result while ``409``."""

    #: The server's process when it is a child of this one.
    pid = None

    def __init__(self, port: int):
        self.port = port

    def get_json(self, path: str):
        status, payload, __ = http_request(self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(payload)

    def execute(self, op: Op) -> OpResult:
        body = json.dumps(
            {"tenant": op.tenant, "query": op.text, "seed": op.seed}
        ).encode()
        cpu0 = time.process_time_ns()
        t0 = time.perf_counter_ns()
        status, payload, __ = http_request(self.port, "POST", "/queries", body)
        ack_ns = time.perf_counter_ns() - t0
        if status != 202:
            return OpResult(
                False, time.perf_counter_ns() - t0, detail=f"POST /queries -> {status}"
            )
        path = f"/queries/{json.loads(payload)['request_id']}/result"
        polls = 0
        deadline = t0 + int(REQUEST_TIMEOUT_S * 1e9)
        while True:
            polls += 1
            fetch0 = time.perf_counter_ns()
            status, payload, first_byte_at = http_request(self.port, "GET", path)
            done = time.perf_counter_ns()
            if status != 409:
                break
            if done > deadline:
                return OpResult(False, done - t0, detail="client timeout")
            time.sleep(POLL_INTERVAL_S)
        wall = done - t0
        cpu = time.process_time_ns() - cpu0
        if status != 200:
            return OpResult(False, wall, detail=f"GET {path} -> {status}")
        document = json.loads(payload)
        stats = document["stats"]
        return OpResult(
            True,
            wall,
            first_byte_at - t0,
            cpu,
            stats["execution_time"],
            document["answers"],
            extra={
                "ack_ns": ack_ns,
                "polls": polls,
                "fetch_ns": done - fetch0,
                "bytes": len(payload),
                "result_cache": stats.get("result_cache"),
            },
        )

    def serialized(self, result: OpResult) -> list[dict[str, str]]:
        return result.answers


class SocketSystem(SocketClient):
    """A ``repro serve`` child process and the client that drives it."""

    def __init__(self, scale: float):
        started = time.perf_counter()
        self.child, port = spawn_server(scale)
        self.boot_s = time.perf_counter() - started
        super().__init__(port)

    @property
    def pid(self) -> int:
        return self.child.pid

    def close(self) -> None:
        stop_server(self.child)
