"""HTTP service tests over real sockets (submit -> poll -> fetch).

Each test spins up the asyncio server on an ephemeral localhost port and
talks stdlib HTTP/1.1 to it.  Slow/queued/timeout behaviour is made
deterministic by swapping the service's ``_run_query`` for a controlled
stand-in — admission control itself is exercised unmodified.
"""

import asyncio
import json
import time

import pytest

from repro.benchmark.baseline import NETWORK_CHOICES, POLICY_CHOICES
from repro.core.engine import FederatedEngine
from repro.datasets import BENCHMARK_QUERIES
from repro.obs import validate_chrome_trace
from repro.service import QueryService, ServiceConfig, ServiceServer, TenantConfig
from repro.service.server import serialize_answers

RUN_SEED = 7


async def http(port, method, path, body=None):
    """One HTTP/1.1 exchange; returns (status, headers-bytes, json-body)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Length: {len(payload)}\r\nContent-Type: application/json\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except ConnectionError:
        pass
    header_blob, __, data = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ")[1])
    return status, header_blob, json.loads(data) if data else None


async def poll_until_terminal(port, request_id, attempts=400):
    for __ in range(attempts):
        status, __h, body = await http(port, "GET", f"/queries/{request_id}")
        assert status == 200
        if body["state"] in ("done", "timeout", "shed", "error"):
            return body
        await asyncio.sleep(0.02)
    raise AssertionError(f"request {request_id} never reached a terminal state")


class ServiceHarness:
    """Async context manager: a running service on an ephemeral port."""

    def __init__(self, lake, config, run_query=None):
        self.lake = lake
        self.config = config
        self.run_query = run_query
        self.server = None

    async def __aenter__(self):
        service = QueryService(self.lake, self.config)
        if self.run_query is not None:
            service._run_query = self.run_query
        self.server = ServiceServer(service)
        await self.server.start()
        return self

    async def __aexit__(self, *exc_info):
        await self.server.close()

    @property
    def port(self):
        return self.server.port


def run(coroutine):
    return asyncio.run(coroutine)


def fake_run_query(duration=0.0, answers=()):
    """A `_run_query` stand-in with a controlled wall-clock duration."""

    def _run(record):
        if duration:
            time.sleep(duration)
        return list(answers), {"answers": len(answers)}, None

    return _run


# -- happy path ---------------------------------------------------------------


def test_submit_poll_fetch_matches_direct_engine(small_lslod_lake):
    config = ServiceConfig(port=0, workers=2, global_concurrency=2, exec="batch")
    direct, __ = FederatedEngine(
        small_lslod_lake,
        policy=POLICY_CHOICES["aware"](),
        network=NETWORK_CHOICES["nodelay"](),
        exec="batch",
    ).run(BENCHMARK_QUERIES["Q1"].text, seed=RUN_SEED)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            status, __h, body = await http(
                harness.port,
                "POST",
                "/queries",
                {"query": "Q1", "tenant": "acme", "seed": RUN_SEED},
            )
            assert status == 202
            assert body["request_id"] == "r-000001"
            assert body["status_url"] == "/queries/r-000001"
            terminal = await poll_until_terminal(harness.port, body["request_id"])
            assert terminal["state"] == "done"
            assert terminal["answers"] == len(direct)
            status, __h, result = await http(
                harness.port, "GET", f"/queries/{body['request_id']}/result"
            )
            assert status == 200
            return result

    result = run(scenario())
    assert result["answers"] == serialize_answers(direct)
    assert result["stats"]["answers"] == len(direct)
    assert result["stats"]["execution_time"] > 0


def test_healthz_and_stats(small_lslod_lake):
    config = ServiceConfig(port=0, workers=2)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            status, __h, health = await http(harness.port, "GET", "/healthz")
            assert (status, health) == (200, {"status": "ok", "engines": 2})
            status, __h, stats = await http(harness.port, "GET", "/stats")
            assert status == 200
            assert stats["pool"] == {"engines": 2}
            assert set(stats["caches"]) == {"plans", "subresults"}
            assert stats["admission"]["global_concurrency"] == 8

    run(scenario())


def test_trace_endpoint_carries_request_id(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1, observe=True)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            __s, __h, body = await http(
                harness.port,
                "POST",
                "/queries",
                {"query": "Q1", "seed": RUN_SEED},
            )
            request_id = body["request_id"]
            await poll_until_terminal(harness.port, request_id)
            status, __h, trace = await http(
                harness.port, "GET", f"/queries/{request_id}/trace"
            )
            assert status == 200
            return request_id, trace

    request_id, trace = run(scenario())
    assert validate_chrome_trace(trace) == []
    names = [
        event["args"].get("name", "")
        for event in trace["traceEvents"]
        if event.get("name") == "process_name"
    ]
    assert any(request_id in name for name in names)


def test_trace_404_when_not_observed(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1)  # observe off

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            __s, __h, body = await http(
                harness.port, "POST", "/queries", {"query": "Q1"}
            )
            await poll_until_terminal(harness.port, body["request_id"])
            status, __h, trace = await http(
                harness.port, "GET", f"/queries/{body['request_id']}/trace"
            )
            assert status == 404
            assert trace["error"] == "no-trace"

    run(scenario())


# -- request validation -------------------------------------------------------


@pytest.mark.parametrize(
    "payload, detail",
    [
        (None, "body must be a JSON object"),
        ({}, "field 'query' must be a non-empty string"),
        ({"query": "  "}, "field 'query' must be a non-empty string"),
        ({"query": "Q1", "tenant": 7}, "field 'tenant' must be a non-empty string"),
        ({"query": "Q1", "seed": "seven"}, "field 'seed' must be an integer"),
        ({"query": "Q1", "runtime": "bogus"}, "unknown runtime 'bogus'"),
        ({"query": "Q1", "exec": "columnar"}, "unknown exec mode 'columnar'"),
    ],
)
def test_submit_validation(small_lslod_lake, payload, detail):
    config = ServiceConfig(port=0, workers=1)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            status, __h, body = await http(harness.port, "POST", "/queries", payload)
            assert status == 400
            assert body["error"] == "bad-request"
            assert detail in body["detail"]

    run(scenario())


def test_invalid_sparql_reports_execution_error(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            __s, __h, body = await http(
                harness.port, "POST", "/queries", {"query": "SELECT nonsense"}
            )
            terminal = await poll_until_terminal(harness.port, body["request_id"])
            assert terminal["state"] == "error"
            status, __h, result = await http(
                harness.port, "GET", f"/queries/{body['request_id']}/result"
            )
            assert status == 500
            assert result["error"] == "execution-failed"

    run(scenario())


def test_routing_errors(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            status, __h, body = await http(harness.port, "GET", "/nope")
            assert (status, body["error"]) == (404, "not-found")
            status, __h, body = await http(harness.port, "GET", "/queries/r-999999")
            assert (status, body["error"]) == (404, "not-found")
            status, __h, body = await http(harness.port, "DELETE", "/queries")
            assert (status, body["error"]) == (405, "method-not-allowed")
            status, __h, body = await http(harness.port, "POST", "/healthz")
            assert (status, body["error"]) == (405, "method-not-allowed")

    run(scenario())


# -- admission behaviour over HTTP -------------------------------------------


def test_shed_returns_429_with_retry_after(small_lslod_lake):
    config = ServiceConfig(
        port=0,
        workers=1,
        global_concurrency=1,
        default_tenant=TenantConfig(name="default", max_concurrency=1, queue_depth=1),
    )

    async def scenario():
        harness = ServiceHarness(
            small_lslod_lake, config, run_query=fake_run_query(duration=0.5)
        )
        async with harness:
            first = await http(harness.port, "POST", "/queries", {"query": "Q1"})
            second = await http(harness.port, "POST", "/queries", {"query": "Q1"})
            third = await http(harness.port, "POST", "/queries", {"query": "Q1"})
            assert first[0] == 202 and second[0] == 202
            status, headers, body = third
            assert status == 429
            assert b"Retry-After: 1" in headers
            assert body["error"] == "shed"
            assert body["reason"] == "tenant-queue-full"
            # The shed request stays queryable, as a terminal refusal.
            status, __h, result = await http(
                harness.port, "GET", f"/queries/{body['request_id']}/result"
            )
            assert status == 429
            assert result["reason"] == "tenant-queue-full"

    run(scenario())


def test_strict_tenant_shed(small_lslod_lake):
    config = ServiceConfig(
        port=0,
        workers=1,
        strict_tenants=True,
        tenants={"acme": TenantConfig(name="acme")},
    )

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            status, __h, body = await http(
                harness.port, "POST", "/queries", {"query": "Q1", "tenant": "evil"}
            )
            assert status == 429
            assert body["reason"] == "unknown-tenant"

    run(scenario())


def test_running_timeout_maps_to_504(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1, timeout=0.1)

    async def scenario():
        harness = ServiceHarness(
            small_lslod_lake, config, run_query=fake_run_query(duration=0.4)
        )
        async with harness:
            __s, __h, body = await http(harness.port, "POST", "/queries", {"query": "Q1"})
            terminal = await poll_until_terminal(harness.port, body["request_id"])
            assert terminal["state"] == "timeout"
            assert terminal["reason"] == "running-timeout"
            status, __h, result = await http(
                harness.port, "GET", f"/queries/{body['request_id']}/result"
            )
            assert status == 504
            assert result["error"] == "timeout"

    run(scenario())


def test_queued_timeout_when_no_slot_frees(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1, global_concurrency=1, timeout=0.15)

    async def scenario():
        harness = ServiceHarness(
            small_lslod_lake, config, run_query=fake_run_query(duration=0.5)
        )
        async with harness:
            first = await http(harness.port, "POST", "/queries", {"query": "Q1"})
            second = await http(harness.port, "POST", "/queries", {"query": "Q1"})
            assert first[0] == 202 and second[0] == 202
            terminal = await poll_until_terminal(harness.port, second[2]["request_id"])
            assert terminal["state"] == "timeout"
            assert terminal["reason"] == "queued-timeout"
            # The queued request never consumed a concurrency slot.
            assert terminal["started_at"] is None

    run(scenario())


def test_not_ready_result_is_409(small_lslod_lake):
    config = ServiceConfig(port=0, workers=1)

    async def scenario():
        harness = ServiceHarness(
            small_lslod_lake, config, run_query=fake_run_query(duration=0.3)
        )
        async with harness:
            __s, __h, body = await http(harness.port, "POST", "/queries", {"query": "Q1"})
            status, __h, result = await http(
                harness.port, "GET", f"/queries/{body['request_id']}/result"
            )
            assert status == 409
            assert result["error"] == "not-ready"
            await poll_until_terminal(harness.port, body["request_id"])

    run(scenario())


def test_concurrent_http_submissions_all_answered(small_lslod_lake):
    """A burst of real queries through the full stack, all bit-checked."""
    config = ServiceConfig(port=0, workers=3, global_concurrency=3, exec="batch")
    expected = {
        name: serialize_answers(
            FederatedEngine(
                small_lslod_lake,
                policy=POLICY_CHOICES["aware"](),
                network=NETWORK_CHOICES["nodelay"](),
                exec="batch",
            ).run(BENCHMARK_QUERIES[name].text, seed=RUN_SEED)[0]
        )
        for name in ("Q1", "Q2", "Q3")
    }

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            names = [("Q1", "acme"), ("Q2", "globex"), ("Q3", "acme")] * 3
            submissions = await asyncio.gather(
                *(
                    http(
                        harness.port,
                        "POST",
                        "/queries",
                        {"query": name, "tenant": tenant, "seed": RUN_SEED},
                    )
                    for name, tenant in names
                )
            )
            outcomes = []
            for (name, __t), (status, __h, body) in zip(names, submissions):
                assert status == 202, body
                terminal = await poll_until_terminal(harness.port, body["request_id"])
                assert terminal["state"] == "done"
                __s, __h, result = await http(
                    harness.port, "GET", f"/queries/{body['request_id']}/result"
                )
                outcomes.append((name, result["answers"]))
            return outcomes

    for name, answers in run(scenario()):
        assert answers == expected[name], name


# -- cross-request result cache -----------------------------------------------


async def submit_and_fetch(port, payload):
    status, __h, body = await http(port, "POST", "/queries", payload)
    assert status == 202
    await poll_until_terminal(port, body["request_id"])
    status, __h, result = await http(
        port, "GET", f"/queries/{body['request_id']}/result"
    )
    assert status == 200
    return result


def test_result_cache_hit_serves_identical_answers(small_lslod_lake):
    config = ServiceConfig(port=0, workers=2, global_concurrency=2)

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            payload = {"query": "Q1", "tenant": "acme", "seed": RUN_SEED}
            first = await submit_and_fetch(harness.port, payload)
            second = await submit_and_fetch(harness.port, payload)
            __s, __h, stats = await http(harness.port, "GET", "/stats")
            return first, second, stats

    first, second, stats = run(scenario())
    assert first["stats"]["result_cache"] == "miss"
    assert second["stats"]["result_cache"] == "hit"
    assert second["answers"] == first["answers"]
    # The hit's stats are the measured execution's numbers, replayed.
    assert second["stats"]["execution_time"] == first["stats"]["execution_time"]
    assert stats["result_cache"]["hits"] == 1
    assert stats["result_cache"]["misses"] == 1
    assert stats["result_cache"]["entries"] == 1
    assert stats["result_cache"]["capacity"] == config.result_cache_size


def test_result_cache_keys_on_seed_and_canonical_text(small_lslod_lake):
    config = ServiceConfig(port=0, workers=2, global_concurrency=2)
    spaced = "  " + "\n".join(BENCHMARK_QUERIES["Q1"].text.split()) + "  "

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config) as harness:
            await submit_and_fetch(
                harness.port, {"query": "Q1", "tenant": "acme", "seed": RUN_SEED}
            )
            # Same query modulo whitespace: a hit.
            reformatted = await submit_and_fetch(
                harness.port, {"query": spaced, "tenant": "acme", "seed": RUN_SEED}
            )
            # Different seed: its own entry.
            reseeded = await submit_and_fetch(
                harness.port, {"query": "Q1", "tenant": "acme", "seed": RUN_SEED + 1}
            )
            return reformatted, reseeded

    reformatted, reseeded = run(scenario())
    assert reformatted["stats"]["result_cache"] == "hit"
    assert reseeded["stats"]["result_cache"] == "miss"


def test_result_cache_key_keeps_string_literals_verbatim(small_lslod_lake):
    # Regression: the key folded whitespace with `" ".join(text.split())`,
    # inside literals too, so `"a  b"` was answered from `"a b"`'s entry.
    config = ServiceConfig(port=0, workers=1)
    template = 'SELECT ?d WHERE { ?d <http://ex/v#name> ?n . FILTER(?n = "%s") }'
    executed = []

    def run_query(record):
        executed.append(record.query)
        return [{"d": f'"{len(executed)}"'}], {"answers": 1}, None

    async def scenario():
        async with ServiceHarness(small_lslod_lake, config, run_query=run_query) as harness:
            results = []
            for text in (
                template % "a  b",
                template % "a b",
                # Reformatted outside the literal (and commented): the first entry.
                "  " + (template % "a  b").replace(" . ", "\n.  # note\n\t"),
            ):
                results.append(
                    await submit_and_fetch(
                        harness.port, {"query": text, "tenant": "acme", "seed": RUN_SEED}
                    )
                )
            return results

    wide, narrow, reformatted = run(scenario())
    assert [r["stats"]["result_cache"] for r in (wide, narrow, reformatted)] == [
        "miss",
        "miss",
        "hit",
    ]
    assert executed == [template % "a  b", template % "a b"]
    assert reformatted["answers"] == wide["answers"] != narrow["answers"]


def test_result_cache_disabled_by_size_zero_and_observe(small_lslod_lake):
    async def scenario(config):
        async with ServiceHarness(small_lslod_lake, config) as harness:
            payload = {"query": "Q1", "tenant": "acme", "seed": RUN_SEED}
            await submit_and_fetch(harness.port, payload)
            second = await submit_and_fetch(harness.port, payload)
            __s, __h, stats = await http(harness.port, "GET", "/stats")
            return second, stats

    second, stats = run(scenario(ServiceConfig(port=0, result_cache_size=0)))
    assert "result_cache" not in second["stats"]
    assert stats["result_cache"] == {
        "capacity": 0, "entries": 0, "hits": 0, "misses": 0, "evictions": 0,
    }
    # Observed runs always execute for real — every request needs a trace.
    second, stats = run(scenario(ServiceConfig(port=0, observe=True)))
    assert "result_cache" not in second["stats"]
    assert stats["result_cache"]["hits"] == 0
