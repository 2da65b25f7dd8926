"""The result-cache hit path and the HTTP head parser, over real sockets.

A hit is answered on the event loop: looked up once when its ticket starts,
completed before the ``202`` is written (or, when it had to queue, the moment
a slot frees), never handed to the executor — and every ``GET …/result``
splices answers bytes that the creating miss encoded once.
"""

import asyncio
import json
import time

import pytest

from repro.datasets import BENCHMARK_QUERIES
from repro.service import ServiceConfig
from tests.service.test_server import ServiceHarness, http, poll_until_terminal, run

RUN_SEED = 7

EMPTY_QUERY = BENCHMARK_QUERIES["Q2"].text.replace('"cancer"', '"no-such-class"')


async def exchange(port, request: bytes, half_close=False):
    """Send raw bytes, read to EOF; returns (status, body bytes)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(request)
    await writer.drain()
    if half_close:
        writer.write_eof()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    head, __, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), body


def get(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()


def post(body: bytes, length=None) -> bytes:
    length = len(body) if length is None else length
    return (
        f"POST /queries HTTP/1.1\r\nHost: localhost\r\nContent-Length: {length}\r\n\r\n"
    ).encode() + body


class CountingRunQuery:
    """A ``_run_query`` stand-in that records the seeds the executor saw;
    ``slow_seed`` holds its slot for *duration* wall-clock seconds."""

    def __init__(self, slow_seed=None, duration=0.0):
        self.seeds = []
        self.slow_seed = slow_seed
        self.duration = duration

    def __call__(self, record):
        self.seeds.append(record.seed)
        if record.seed == self.slow_seed:
            time.sleep(self.duration)
        answers = [{"seed": f'"{record.seed}"'}]
        return answers, {"answers": 1, "execution_time": 0.5}, None


# -- (a) no hand-off for a hit --------------------------------------------------


def test_hit_is_ready_on_first_fetch_without_an_executor_task(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1)
    executor = CountingRunQuery()

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config, run_query=executor) as harness:
            payload = {"query": "Q1", "tenant": "acme", "seed": RUN_SEED}
            __s, __h, first = await http(harness.port, "POST", "/queries", payload)
            await poll_until_terminal(harness.port, first["request_id"])
            status, __h, second = await http(harness.port, "POST", "/queries", payload)
            assert status == 202
            # Finished before the 202 was written: no poll can lose a race.
            assert second["state"] == "done"
            status, __h, result = await http(
                harness.port, "GET", f"/queries/{second['request_id']}/result"
            )
            assert status == 200
            return result

    result = run(scenario())
    assert result["stats"]["result_cache"] == "hit"
    assert result["answers"] == [{"seed": '"7"'}]
    assert executor.seeds == [RUN_SEED]


def test_queued_hit_is_looked_up_when_it_starts(small_lslod_lake):
    # One slot: the repeat of seed 7 queues behind a slow request and is
    # completed by the pump that follows the slow one, not by the executor.
    config = ServiceConfig(port=0, workers=1, global_concurrency=1)
    executor = CountingRunQuery(slow_seed=99, duration=0.3)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config, run_query=executor) as harness:
            port = harness.port
            hot = {"query": "Q1", "seed": RUN_SEED}
            __s, __h, first = await http(port, "POST", "/queries", hot)
            await poll_until_terminal(port, first["request_id"])
            __s, __h, slow = await http(port, "POST", "/queries", {"query": "Q1", "seed": 99})
            __s, __h, queued = await http(port, "POST", "/queries", hot)
            assert (slow["state"], queued["state"]) == ("running", "queued")
            status, __h, __b = await http(
                port, "GET", f"/queries/{queued['request_id']}/result"
            )
            assert status == 409
            await poll_until_terminal(port, slow["request_id"])
            # The slow request's completion pumped the queue on the loop:
            # the hit is done by the time anything else can be answered.
            status, __h, result = await http(
                port, "GET", f"/queries/{queued['request_id']}/result"
            )
            assert status == 200
            __s, __h, stats = await http(port, "GET", "/stats")
            return result, stats

    result, stats = run(scenario())
    assert result["stats"]["result_cache"] == "hit"
    assert executor.seeds == [RUN_SEED, 99]
    assert stats["result_cache"]["hits"] == 1
    assert stats["result_cache"]["misses"] == 2
    assert stats["admission"]["metrics"]["started"] == 3


def test_queued_request_sees_a_cache_filled_while_it_waited(small_lslod_lake):
    # Both submissions of seed 7 precede any result: the second queues, and
    # is a hit only because the lookup happens at start, not at submit.
    config = ServiceConfig(port=0, workers=1, global_concurrency=1)
    executor = CountingRunQuery(slow_seed=RUN_SEED, duration=0.2)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config, run_query=executor) as harness:
            payload = {"query": "Q1", "seed": RUN_SEED}
            __s, __h, first = await http(harness.port, "POST", "/queries", payload)
            __s, __h, second = await http(harness.port, "POST", "/queries", payload)
            assert second["state"] == "queued"
            await poll_until_terminal(harness.port, first["request_id"])
            return await http(
                harness.port, "GET", f"/queries/{second['request_id']}/result"
            )

    status, __h, result = run(scenario())
    assert status == 200
    assert result["stats"]["result_cache"] == "hit"
    assert executor.seeds == [RUN_SEED]


# -- (b) one artifact, encoded once -------------------------------------------


@pytest.mark.parametrize("query", ["Q1", "Q2", "Q3", "Q4", "Q5", EMPTY_QUERY])
def test_http_body_is_byte_equal_to_the_encoded_document(small_lslod_lake, query):
    config = ServiceConfig(port=0, workers=1, exec="batch")

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            bodies = []
            for __ in range(2):
                __s, __h, ack = await http(
                    harness.port, "POST", "/queries", {"query": query, "seed": RUN_SEED}
                )
                request_id = ack["request_id"]
                await poll_until_terminal(harness.port, request_id)
                status, body = await exchange(
                    harness.port, get(f"/queries/{request_id}/result")
                )
                assert status == 200
                document = harness.server.service.result(request_id)[1]
                bodies.append((body, document))
            return bodies

    (miss_body, miss), (hit_body, hit) = run(scenario())
    assert (miss["stats"]["result_cache"], hit["stats"]["result_cache"]) == ("miss", "hit")
    assert miss_body == json.dumps(miss, sort_keys=True).encode()
    assert hit_body == json.dumps(hit, sort_keys=True).encode()
    assert hit["answers"] == miss["answers"]
    assert (miss["answers"] == []) == (query is EMPTY_QUERY)


# -- (c) one lookup per admitted request --------------------------------------


MIXED = [("Q1", 7), ("Q2", 7), ("Q1", 7), ("Q1", 8), ("Q2", 7), ("Q1", 7), ("Q3", 7)]


@pytest.mark.parametrize(
    "config, hits",
    [
        (ServiceConfig(port=0, workers=2, global_concurrency=2), 3),
        (ServiceConfig(port=0, workers=2, result_cache_size=0), None),
        (ServiceConfig(port=0, workers=2, observe=True), None),
    ],
    ids=["enabled", "size-zero", "observe"],
)
def test_one_lookup_per_admitted_request(small_lslod_lake, config, hits):
    executor = CountingRunQuery()

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config, run_query=executor) as harness:
            for query, seed in MIXED:
                status, __h, ack = await http(
                    harness.port, "POST", "/queries", {"query": query, "seed": seed}
                )
                assert status == 202
                await poll_until_terminal(harness.port, ack["request_id"])
            return (await http(harness.port, "GET", "/stats"))[2]

    stats = run(scenario())
    cache = stats["result_cache"]
    assert stats["admission"]["metrics"]["started"] == len(MIXED)
    if hits is None:
        # A disabled cache is never looked up; every request is executed.
        assert (cache["hits"], cache["misses"]) == (0, 0)
        assert len(executor.seeds) == len(MIXED)
    else:
        assert cache["hits"] + cache["misses"] == len(MIXED)
        assert cache["hits"] == hits
        assert len(executor.seeds) == cache["misses"]


# -- (d) the journal of a hit --------------------------------------------------


def test_hit_passes_admission_like_any_request(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            payload = {"query": "Q2", "tenant": "acme", "seed": RUN_SEED}
            for __ in range(2):
                __s, __h, ack = await http(harness.port, "POST", "/queries", payload)
                await poll_until_terminal(harness.port, ack["request_id"])
            service = harness.server.service
            return list(service.journal.events), service.slo.snapshot()

    events, slo = run(scenario())
    kinds = [event["kind"] for event in events]
    assert kinds == [
        "submit", "start", "exec-profile", "done", "tenant-idle",  # the miss
        "submit", "start", "done", "tenant-idle",  # the hit
    ]
    assert [event.get("request_id") for event in events[5:8]] == ["r-000002"] * 3
    acme = slo["tenants"]["acme"]
    assert (acme["submitted"], acme["completed"]) == (2, 2)


# -- (e) malformed requests ---------------------------------------------------


MALFORMED = {
    # Heads just over the 64 KiB stream limit — thousands of header lines, one
    # over-long line — so the server has consumed every byte when it answers
    # (closing on unread input would reset the connection under the 431).
    "many-headers": (
        b"GET /healthz HTTP/1.1\r\n" + b"X-Pad: y\r\n" * 6600 + b"\r\n", False, 431, None
    ),
    "long-header-line": (
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"y" * 66000 + b"\r\n\r\n", False, 431, None
    ),
    "truncated-head": (
        b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n", True, 400, "truncated request head"
    ),
    "empty-request-line": (b"\r\n\r\n", False, 400, "malformed request line"),
    "negative-length": (post(b"{}", length=-5), False, 400, "bad Content-Length"),
    "non-numeric-length": (post(b"{}", length="two"), False, 400, "bad Content-Length"),
    "body-over-1MiB": (post(b"{}", length=(1 << 20) + 1), False, 413, "body exceeds"),
    "truncated-body": (post(b'{"query": "Q1"', length=40), True, 400, "truncated body"),
    "bad-json": (post(b'{"query": '), False, 400, "invalid JSON"),
    "bad-utf8": (post(b"\xff\xfe"), False, 400, "invalid JSON"),
    "boolean-seed": (
        post(b'{"query": "Q1", "seed": true}'), False, 400, "field 'seed' must be an integer"
    ),
    "unknown-path": (get("/no/such/path"), False, 404, None),
}


@pytest.mark.parametrize(
    "request_bytes, half_close, status, detail", MALFORMED.values(), ids=MALFORMED.keys()
)
def test_malformed_requests_are_client_errors(
    small_lslod_lake, request_bytes, half_close, status, detail
):
    config = ServiceConfig(port=0, workers=1)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            answer = await exchange(harness.port, request_bytes, half_close)
            # The accept loop is unharmed.
            health = await http(harness.port, "GET", "/healthz")
            return answer, health

    (got, body), (health_status, __h, health) = run(scenario())
    assert got == status, body
    if detail is not None:
        assert detail in json.loads(body)["detail"]
    assert (health_status, health["status"]) == (200, "ok")
