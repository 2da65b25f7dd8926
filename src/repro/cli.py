"""Command-line interface.

Usage (see ``python -m repro --help``)::

    python -m repro describe                      # lake + physical design
    python -m repro query Q2 --policy aware --network gamma2 --explain
    python -m repro query "PREFIX ..." --policy unaware
    python -m repro grid --queries Q1,Q2,Q3 --format csv
    python -m repro trace Q3 --policies aware,unaware --networks gamma3

Queries may be given as benchmark names (Q1-Q5, Fig1), inline SPARQL text,
or ``@path/to/query.rq``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .benchmark import (
    Configuration,
    TracePlot,
    grid_table,
    network_impact_table,
    run_grid,
    speedup_table,
    to_csv,
    to_json,
)
from .benchmark.baseline import (
    DEFAULT_NETWORKS,
    DEFAULT_POLICIES,
    DEFAULT_QUERIES,
    DEFAULT_RUNTIMES,
    NETWORK_CHOICES,
    POLICY_CHOICES,
)
from .core.engine import FederatedEngine
from .core.policy import JoinStrategy, PlanPolicy
from .datasets import BENCHMARK_QUERIES, GRID_QUERIES, build_lslod_lake
from .federation.answers import EXEC_MODES
from .network.delays import NetworkSetting

# The canonical axis registries live with the baseline (the committed
# BENCH file records their short names); the CLI shares them.
POLICIES = POLICY_CHOICES
NETWORKS = NETWORK_CHOICES

RUNTIMES = DEFAULT_RUNTIMES

#: The five heuristic base policies of the differential/scorecard matrices
#: (the cost policy is opt-in via ``--policies cost,...`` or ``+cost``).
BASE_POLICY_NAMES = ("aware", "unaware", "heuristic2", "source", "dependent")


def _parse_policy_names(spec: str | None, default: Sequence[str]) -> list[str]:
    """Resolve a ``--policies`` value: a comma list of short names, or a
    leading ``+`` to append to *default* (``+cost`` = the default matrix
    plus the cost-based policy)."""
    if not spec:
        return list(default)
    text = spec.strip()
    if text.startswith("+"):
        names = list(default)
        for name in text[1:].split(","):
            name = name.strip()
            if name and name not in names:
                names.append(name)
        return names
    return [name.strip() for name in text.split(",") if name.strip()]


def _resolve_query(text: str) -> str:
    if text in BENCHMARK_QUERIES:
        return BENCHMARK_QUERIES[text].text
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as handle:
            return handle.read()
    return text


def _build_lake(args: argparse.Namespace):
    return build_lslod_lake(scale=args.scale, seed=args.seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.1, help="data-set scale factor")
    parser.add_argument("--seed", type=int, default=42, help="data generation seed")
    parser.add_argument(
        "--run-seed", type=int, default=7, help="delay-sampling seed for executions"
    )
    parser.add_argument(
        "--runtime",
        choices=RUNTIMES,
        default="sequential",
        help=(
            "execution runtime: sequential iterator chain, discrete-event "
            "scheduler (overlapping source delays), or event + wrapper threads"
        ),
    )
    parser.add_argument(
        "--exec",
        choices=EXEC_MODES,
        default="batch",
        help=(
            "data plane: columnar solution batches (default) or the "
            "row-at-a-time reference, one dict per answer through every "
            "operator; both fetch and charge sources identically, so "
            "virtual times are bit-identical and only wall-clock differs"
        ),
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help=(
            "rows per columnar chunk in batch mode (default: the engine default)"
        ),
    )


def cmd_describe(args: argparse.Namespace) -> int:
    lake = _build_lake(args)
    print(lake.describe())
    print()
    print("Physical design:")
    print(lake.physical_catalog.describe())
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    lake = _build_lake(args)
    policy = POLICIES[args.policy]()
    network = NETWORKS[args.network]()
    engine = FederatedEngine(
        lake,
        policy=policy,
        network=network,
        runtime=args.runtime,
        exec=args.exec,
        batch_size=args.batch_size,
    )
    query_text = _resolve_query(args.query)
    if args.explain:
        print(engine.explain(query_text))
        print()
    if args.profile:
        answers, stats, report = engine.profile(
            query_text, seed=args.run_seed, runtime=args.runtime
        )
        print(report.render())
        print()
    else:
        answers, stats = engine.run(query_text, seed=args.run_seed)
    shown = answers[: args.limit] if args.limit is not None else answers
    for answer in shown:
        rendered = ", ".join(f"?{name}={term.n3()}" for name, term in sorted(answer.items()))
        print(rendered)
    if args.limit is not None and len(answers) > args.limit:
        print(f"... ({len(answers) - args.limit} more)")
    ttfa = f"{stats.time_to_first_answer:.4f}s" if stats.time_to_first_answer else "-"
    print(
        f"\n{len(answers)} answers | {stats.execution_time:.4f} virtual s | "
        f"first at {ttfa} | {stats.messages} messages"
    )
    return 0


def cmd_grid(args: argparse.Namespace) -> int:
    lake = _build_lake(args)
    names = args.queries.split(",") if args.queries else list(GRID_QUERIES)
    unknown = [name for name in names if name not in BENCHMARK_QUERIES]
    if unknown:
        print(f"unknown queries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    queries = [BENCHMARK_QUERIES[name] for name in names]
    grid = run_grid(
        lake, queries, seed=args.run_seed, runtime=args.runtime, exec=args.exec
    )
    if args.format == "csv":
        print(to_csv(grid))
    elif args.format == "json":
        print(to_json(grid))
    else:
        print("Execution time (virtual seconds):")
        print(grid_table(grid))
        print()
        print("Speedup of aware over unaware:")
        print(speedup_table(grid, "Physical-Design-Unaware", "Physical-Design-Aware"))
        print()
        print("Network impact (slowdown vs No Delay):")
        print(network_impact_table(grid))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    # Imported here so the oracle subsystem stays off the hot CLI paths.
    from .oracle import run_fuzz

    regressions_dir = None if args.no_write else args.regressions_dir
    runtimes = tuple(name.strip() for name in args.runtimes.split(",") if name.strip())
    unknown = [name for name in runtimes if name not in RUNTIMES]
    if unknown:
        print(f"unknown runtimes: {', '.join(unknown)}", file=sys.stderr)
        return 2
    execs = tuple(name.strip() for name in args.execs.split(",") if name.strip())
    unknown = [name for name in execs if name not in EXEC_MODES]
    if unknown:
        print(f"unknown exec modes: {', '.join(unknown)}", file=sys.stderr)
        return 2
    policy_names = _parse_policy_names(args.policies, BASE_POLICY_NAMES)
    unknown = [name for name in policy_names if name not in POLICIES]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)}", file=sys.stderr)
        return 2

    def on_case(index, case, mismatches):
        if args.verbose:
            status = "FAIL" if mismatches else "ok"
            print(f"[{index + 1}/{args.iters}] {case.name}: {status}", file=sys.stderr)

    report = run_fuzz(
        args.seed,
        args.iters,
        regressions_dir=regressions_dir,
        runtimes=runtimes,
        execs=execs,
        policies=[POLICIES[name]() for name in policy_names],
        check_invariants=not args.no_invariants,
        shrink=not args.no_shrink,
        on_case=on_case,
        trace_dir=args.trace_dir,
    )
    print(report.summary())
    return 0 if report.ok else 1


def cmd_explain(args: argparse.Namespace) -> int:
    """Planner explain: every H1/H2 decision with its reason.

    With ``--analyze`` the query is also executed (observed, under the
    selected runtime) and the report gains per-operator actual cardinalities,
    q-errors, and the heuristic decisions sitting on the worst-estimated
    operators.  JSON output is validated against the published schema
    before printing, so downstream tooling can rely on its shape.
    """
    import json

    from .obs import ANALYZE_SCHEMA, EXPLAIN_SCHEMA, explain_plan
    from .obs.schema import validate_json_schema

    lake = _build_lake(args)
    query_text = _resolve_query(args.query)
    engine = FederatedEngine(
        lake,
        policy=POLICIES[args.policy](),
        network=NETWORKS[args.network](),
        runtime=args.runtime,
        exec=args.exec,
        batch_size=args.batch_size,
    )
    if args.analyze:
        __, __, report = engine.analyze(
            query_text, seed=args.run_seed, runtime=args.runtime
        )
        schema = ANALYZE_SCHEMA
    else:
        report = explain_plan(engine.plan(query_text))
        schema = EXPLAIN_SCHEMA
    if args.format == "json":
        payload = report.to_dict()
        errors = validate_json_schema(payload, schema)
        if errors:
            for error in errors:
                print(f"schema violation: {error}", file=sys.stderr)
            return 1
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def cmd_scorecard(args: argparse.Namespace) -> int:
    """Heuristic scorecard over a workload sweep (see benchmark.scorecard)."""
    import json

    from .benchmark import run_scorecard

    lake = _build_lake(args)
    names = args.queries.split(",") if args.queries else list(DEFAULT_QUERIES)
    unknown = [name for name in names if name not in BENCHMARK_QUERIES]
    if unknown:
        print(f"unknown queries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    network_names = args.networks.split(",") if args.networks else list(DEFAULT_NETWORKS)
    unknown = [name for name in network_names if name not in NETWORKS]
    if unknown:
        print(f"unknown networks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    policy_names = _parse_policy_names(args.policies, BASE_POLICY_NAMES)
    unknown = [name for name in policy_names if name not in POLICIES]
    if unknown:
        print(f"unknown policies: {', '.join(unknown)}", file=sys.stderr)
        return 2
    card = run_scorecard(
        lake,
        [BENCHMARK_QUERIES[name] for name in names],
        policies=[POLICIES[name]() for name in policy_names],
        networks=[NETWORKS[name]() for name in network_names],
        runtime=args.runtime,
        seed=args.run_seed,
    )
    if args.format == "json":
        print(json.dumps(card.to_dict(), indent=2, sort_keys=True))
    else:
        print(card.render(per_decision=not args.summary))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Optimizer statistics: collect a snapshot, or inspect a stored one.

    ``collect`` snapshots the lake's catalog statistics, runs the selected
    benchmark queries observed to seed the observed-cardinality store, and
    writes both to one JSON document stamped with the lake's catalog
    version.  ``show`` renders a stored document and — unless
    ``--no-verify`` — rebuilds the lake to confirm the stored catalog
    version still matches (stale files fail loudly instead of silently
    feeding the planner outdated cardinalities).
    """
    import json

    from .optimizer import (
        STATS_FORMAT_VERSION,
        CatalogStatistics,
        StaleStatisticsError,
        ObservedStatistics,
    )

    if args.stats_command == "collect":
        names = args.queries.split(",") if args.queries else list(DEFAULT_QUERIES)
        unknown = [name for name in names if name not in BENCHMARK_QUERIES]
        if unknown:
            print(f"unknown queries: {', '.join(unknown)}", file=sys.stderr)
            return 2
        lake = _build_lake(args)
        catalog = CatalogStatistics.collect(lake)
        engine = FederatedEngine(
            lake,
            policy=POLICIES[args.policy](),
            network=NETWORKS[args.network](),
            runtime=args.runtime,
            exec=args.exec,
        )
        ingested = 0
        for name in names:
            __, __, observation = engine.observe(
                BENCHMARK_QUERIES[name].text, seed=args.run_seed
            )
            ingested += engine.ingest_observation(observation)
        payload = {
            "kind": "repro-stats",
            "version": STATS_FORMAT_VERSION,
            "catalog": catalog.to_payload(),
            "observed": engine.observed_stats.to_payload(catalog.catalog_version),
        }
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, indent=2, sort_keys=True))
            handle.write("\n")
        print(
            f"wrote {args.output}: {len(catalog.tables)} tables, "
            f"{len(catalog.molecules)} molecule classes, "
            f"{len(engine.observed_stats)} observed cardinalities "
            f"({ingested} ingests from {len(names)} queries)"
        )
        return 0

    # show
    with open(args.stats_file, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("kind") != "repro-stats":
        print(
            f"{args.stats_file}: not a repro statistics file "
            f"(kind={payload.get('kind')!r})",
            file=sys.stderr,
        )
        return 2
    catalog = CatalogStatistics.from_payload(payload["catalog"])
    expected_version = None
    if not args.no_verify:
        lake = _build_lake(args)
        expected_version = tuple(lake.catalog_version())
        if tuple(catalog.catalog_version) != expected_version:
            print(
                f"error: stale statistics: {args.stats_file} was collected at "
                f"catalog version {tuple(catalog.catalog_version)}, but the "
                f"lake is now at {expected_version}",
                file=sys.stderr,
            )
            return 1
    try:
        observed = ObservedStatistics.from_payload(
            payload["observed"], catalog_version=expected_version
        )
    except StaleStatisticsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    total_rows = sum(entry["rows"] for entry in catalog.tables.values())
    print(f"statistics file {args.stats_file} (format v{payload['version']})")
    verified = "verified against the live lake" if expected_version else "not verified"
    print(f"catalog version: {len(catalog.catalog_version)} entries, {verified}")
    print(
        f"catalog: {len(catalog.tables)} tables ({total_rows} rows), "
        f"{len(catalog.molecules)} molecule classes"
    )
    print(f"observed: {len(observed)} recorded cardinalities")
    records = payload["observed"].get("records", [])
    limit = args.limit if args.limit is not None and args.limit >= 0 else len(records)
    shown = records[:limit]
    for entry in shown:
        signature = entry["signature"]
        kind = signature[0] if isinstance(signature, list) and signature else "?"
        rendered = json.dumps(signature, separators=(",", ":"))
        if len(rendered) > 100:
            rendered = rendered[:97] + "..."
        print(f"  {entry['rows']:>10.1f} rows  x{entry['ingests']}  [{kind}] {rendered}")
    if len(records) > limit:
        print(f"  ... ({len(records) - limit} more)")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Plan-quality baseline: snapshot the grid, or check against it."""
    import json

    from .benchmark.baseline import (
        Thresholds,
        build_baseline,
        compare_baselines,
        load_baseline,
        write_baseline,
    )

    if args.bench_command == "snapshot":
        names = args.queries.split(",") if args.queries else list(DEFAULT_QUERIES)
        unknown = [name for name in names if name not in BENCHMARK_QUERIES]
        if unknown:
            print(f"unknown queries: {', '.join(unknown)}", file=sys.stderr)
            return 2
        from .benchmark.baseline import DEFAULT_POLICIES, POLICY_CHOICES

        policy_names = _parse_policy_names(args.policies, DEFAULT_POLICIES)
        unknown = [name for name in policy_names if name not in POLICY_CHOICES]
        if unknown:
            print(f"unknown policies: {', '.join(unknown)}", file=sys.stderr)
            return 2
        lake = _build_lake(args)
        payload = build_baseline(
            lake,
            {name: BENCHMARK_QUERIES[name].text for name in names},
            scale=args.scale,
            data_seed=args.seed,
            run_seed=args.run_seed,
            policies=policy_names,
            exec=args.exec,
        )
        write_baseline(payload, args.output)
        print(f"wrote {len(payload['cells'])} grid cells to {args.output}")
        return 0

    # check: the baseline file defines the lake and the grid; re-run and diff.
    baseline = load_baseline(args.baseline)
    lake = build_lslod_lake(scale=baseline["scale"], seed=baseline["data_seed"])
    fresh = build_baseline(
        lake,
        {name: BENCHMARK_QUERIES[name].text for name in baseline["queries"]},
        scale=baseline["scale"],
        data_seed=baseline["data_seed"],
        run_seed=baseline["run_seed"],
        policies=baseline["policies"],
        networks=baseline["networks"],
        runtimes=baseline["runtimes"],
        # Virtual times are exec-invariant, so checking a baseline under
        # the other plane is a legitimate (and gating) configuration; one
        # that records no plane re-runs under the engine default.
        exec=args.exec or baseline.get("exec", "batch"),
    )
    thresholds = Thresholds(
        rel_time=args.rel_time,
        abs_time=args.abs_time,
        rel_dief=args.rel_dief,
        abs_dief=args.abs_dief,
    )
    report = compare_baselines(baseline, fresh, thresholds)
    rendered = report.render()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.to_dict(), indent=2, sort_keys=True))
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(rendered)
    return 0 if report.ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    lake = _build_lake(args)
    query_text = _resolve_query(args.query)
    title = args.query if args.query in BENCHMARK_QUERIES else "query"
    chrome = args.format == "chrome"
    plot = TracePlot(f"Answer traces — {title}")
    observations: list[tuple[str, object]] = []
    for policy_name in args.policies.split(","):
        if policy_name not in POLICIES:
            print(f"unknown policy {policy_name!r}", file=sys.stderr)
            return 2
        for network_name in args.networks.split(","):
            if network_name not in NETWORKS:
                print(f"unknown network {network_name!r}", file=sys.stderr)
                return 2
            engine = FederatedEngine(
                lake,
                policy=POLICIES[policy_name](),
                network=NETWORKS[network_name](),
                runtime=args.runtime,
                exec=args.exec,
                batch_size=args.batch_size,
            )
            label = f"{policy_name}/{network_name}"
            if chrome:
                __, stats, observation = engine.observe(query_text, seed=args.run_seed)
                observations.append((f"{title} {label} [{args.runtime}]", observation))
            else:
                __, stats = engine.run(query_text, seed=args.run_seed)
            plot.add(label, stats.trace)
    if chrome:
        from .obs import chrome_trace_json, to_chrome_trace, validate_chrome_trace

        if args.validate:
            errors = validate_chrome_trace(to_chrome_trace(observations))
            if errors:
                for error in errors:
                    print(f"invalid trace: {error}", file=sys.stderr)
                return 1
        rendered = chrome_trace_json(observations, indent=2)
    elif args.format == "csv":
        rendered = plot.to_csv()
    else:
        rendered = plot.render_ascii(width=args.width, height=args.height)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"wrote {args.format} trace to {args.output}")
    else:
        print(rendered)
    return 0


def _service_config_from_args(args: argparse.Namespace):
    """Build (and strictly validate) a ServiceConfig from CLI arguments."""
    from .service import ServiceConfig, TenantConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        global_concurrency=args.global_concurrency,
        timeout=None if args.no_timeout else args.timeout,
        default_tenant=TenantConfig(
            name="default",
            max_concurrency=args.tenant_concurrency,
            queue_depth=args.tenant_queue_depth,
        ),
        strict_tenants=args.strict_tenants,
        observe=args.observe,
        policy=args.policy,
        network=args.network,
        runtime=args.runtime,
        exec=args.exec,
        batch_size=args.batch_size,
        journal_path=getattr(args, "journal_path", None),
    )
    if args.tenants:
        with open(args.tenants, encoding="utf-8") as handle:
            config = config.with_tenants_json(handle.read(), source=args.tenants)
    config.validate()
    return config


def _add_service_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=4, help="engine pool size")
    parser.add_argument(
        "--global-concurrency",
        type=int,
        default=8,
        help="max requests executing at once, across all tenants",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request deadline in seconds (queue wait + execution)",
    )
    parser.add_argument(
        "--no-timeout", action="store_true", help="disable request deadlines"
    )
    parser.add_argument(
        "--tenant-concurrency",
        type=int,
        default=2,
        help="default per-tenant concurrency limit",
    )
    parser.add_argument(
        "--tenant-queue-depth",
        type=int,
        default=16,
        help="default per-tenant queue depth (submissions beyond it are shed)",
    )
    parser.add_argument(
        "--tenants",
        help="JSON file mapping tenant names to limits (see DESIGN.md §13)",
    )
    parser.add_argument(
        "--strict-tenants",
        action="store_true",
        help="shed requests from tenants absent from the --tenants roster",
    )
    parser.add_argument("--policy", choices=sorted(POLICIES), default="aware")
    parser.add_argument("--network", choices=sorted(NETWORKS), default="nodelay")
    parser.add_argument(
        "--observe",
        action="store_true",
        help="record per-request traces (served at /queries/<id>/trace)",
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import ServiceConfigError, start_service

    try:
        config = _service_config_from_args(args)
    except (ServiceConfigError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.check:
        print(config.describe())
        return 0
    lake = _build_lake(args)

    async def _serve() -> None:
        server = await start_service(lake, config)
        print(f"repro service listening on http://{config.host}:{server.port}")
        print(config.describe())
        try:
            await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - Ctrl-C path
            pass
        finally:
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - Ctrl-C path
        print("shutting down")
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from .service import ServiceConfigError, WorkloadSpec, run_load

    try:
        config = _service_config_from_args(args)
        spec = WorkloadSpec(
            clients=args.clients,
            requests_per_client=args.requests_per_client,
            tenants=args.tenant_count,
            tenant_skew=args.tenant_skew,
            hot_fraction=args.hot_fraction,
            cold_variants=args.cold_variants,
            mean_interarrival=args.mean_interarrival,
            mean_think=args.mean_think,
        )
        spec.validate()
    except (ServiceConfigError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    lake = _build_lake(args)
    report = run_load(
        lake,
        config,
        spec,
        seed=args.load_seed,
        verify_answers=not args.no_verify,
        telemetry=not args.no_telemetry,
    )
    document = report.to_dict(include_requests=args.include_requests)
    summary = document["summary"]
    print(
        f"{summary['requests']} requests: {summary['completed']} done, "
        f"{summary['shed']} shed, {summary['timed_out']} timed out "
        f"({summary['executions']} executions, "
        f"{summary['wall_seconds']:.2f}s wall)"
    )
    print(
        f"virtual latency p50={summary['latency_p50']:.4f}s "
        f"p95={summary['latency_p95']:.4f}s p99={summary['latency_p99']:.4f}s; "
        f"throughput {summary['throughput_per_virtual_s']:.2f}/virtual-s"
    )
    plans = summary["cache"]["plans"]
    subresults = summary["cache"]["subresults"]
    print(
        f"shared caches: plans {plans['hits']}/{plans['hits'] + plans['misses']} hits, "
        f"sub-results {subresults['hits']}/{subresults['hits'] + subresults['misses']} hits"
    )
    print(f"fingerprint {document['fingerprint']}")
    if report.journal is not None:
        print(
            f"journal {len(report.journal)} events, "
            f"fingerprint {report.journal.fingerprint()}"
        )
    if args.journal:
        if report.journal is None:
            print(
                "error: --journal requires telemetry (drop --no-telemetry)",
                file=sys.stderr,
            )
            return 2
        report.journal.write_jsonl(args.journal, seal=True)
        print(
            f"wrote sealed event journal to {args.journal} "
            "(verify with 'repro journal verify')"
        )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.output}")
    if args.trace_output:
        with open(args.trace_output, "w", encoding="utf-8") as handle:
            json.dump(report.to_chrome_trace(), handle)
            handle.write("\n")
        print(f"wrote Chrome trace to {args.trace_output}")
    failures = report.mismatches + report.audit_violations
    if failures:
        for failure in failures[:10]:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_critpath(args: argparse.Namespace) -> int:
    """Critical-path attribution: per-query reports, the grid aggregate,
    and the ``BENCH_critpath.json`` snapshot/check regression gate."""
    import json

    from .benchmark.critpath import (
        DEFAULT_CRITPATH_NETWORKS,
        DEFAULT_CRITPATH_QUERIES,
        DEFAULT_CRITPATH_RUNTIMES,
        build_critpath_baseline,
        compare_critpath_baselines,
        load_critpath_baseline,
        measure_critpath_cell,
    )
    from .benchmark.baseline import baseline_json
    from .obs.critpath import (
        CriticalPathReport,
        aggregate_reports,
        render_aggregate,
        render_critpath,
    )

    if args.check:
        baseline = load_critpath_baseline(args.check)
        lake = build_lslod_lake(scale=baseline["scale"], seed=baseline["data_seed"])
        fresh = build_critpath_baseline(
            lake,
            {name: BENCHMARK_QUERIES[name].text for name in baseline["queries"]},
            scale=baseline["scale"],
            data_seed=baseline["data_seed"],
            run_seed=baseline["run_seed"],
            policy=baseline["policy"],
            networks=baseline["networks"],
            runtimes=baseline["runtimes"],
        )
        diffs = compare_critpath_baselines(baseline, fresh)
        if diffs:
            print(f"critpath baseline DRIFT: {len(diffs)} differences")
            for diff in diffs:
                print(f"  {diff}")
            return 1
        print(
            f"critpath baseline OK: {len(baseline['cells'])} cells match "
            "exactly (fraction-level)"
        )
        return 0

    names = args.queries.split(",") if args.queries else list(DEFAULT_CRITPATH_QUERIES)
    unknown = [name for name in names if name not in BENCHMARK_QUERIES]
    if unknown:
        print(f"unknown queries: {', '.join(unknown)}", file=sys.stderr)
        return 2
    network_names = (
        args.networks.split(",") if args.networks else list(DEFAULT_CRITPATH_NETWORKS)
    )
    unknown = [name for name in network_names if name not in NETWORKS]
    if unknown:
        print(f"unknown networks: {', '.join(unknown)}", file=sys.stderr)
        return 2
    runtime_names = (
        args.runtimes.split(",") if args.runtimes else list(DEFAULT_CRITPATH_RUNTIMES)
    )
    unknown = [name for name in runtime_names if name not in RUNTIMES]
    if unknown:
        print(f"unknown runtimes: {', '.join(unknown)}", file=sys.stderr)
        return 2
    lake = _build_lake(args)

    if args.snapshot:
        payload = build_critpath_baseline(
            lake,
            {name: BENCHMARK_QUERIES[name].text for name in names},
            scale=args.scale,
            data_seed=args.seed,
            run_seed=args.run_seed,
            policy=args.policy,
            networks=network_names,
            runtimes=runtime_names,
            delay_scale=args.delay_scale,
        )
        with open(args.snapshot, "w", encoding="utf-8") as handle:
            handle.write(baseline_json(payload))
        print(f"wrote {len(payload['cells'])} attribution cells to {args.snapshot}")
        return 0

    policy = POLICIES[args.policy]()
    cells: list[tuple[str, dict]] = []
    for name in names:
        text = BENCHMARK_QUERIES[name].text
        for network_name in network_names:
            network = NETWORKS[network_name]()
            for runtime in runtime_names:
                label = f"{name} {args.policy}/{network_name} [{runtime}]"
                if args.format == "chrome":
                    # The overlay needs the observation itself, not just the
                    # report dict — re-run through the engine method.
                    from .obs.critpath import attribute_run, chrome_overlay

                    engine = FederatedEngine(
                        lake,
                        policy=policy,
                        network=(
                            network.scaled(args.delay_scale)
                            if args.delay_scale != 1.0
                            else network
                        ),
                        runtime=runtime,
                    )
                    stream = engine.execute(
                        text, seed=args.run_seed, runtime=runtime, observe=True
                    )
                    stream.collect()
                    report = attribute_run(stream.observation, stream.stats)
                    document = chrome_overlay(stream.observation, report, label=label)
                    rendered = json.dumps(document, indent=2)
                    if args.output:
                        with open(args.output, "w", encoding="utf-8") as handle:
                            handle.write(rendered + "\n")
                        print(f"wrote Chrome trace overlay to {args.output}")
                    else:
                        print(rendered)
                    if len(names) * len(network_names) * len(runtime_names) > 1:
                        print(
                            "note: --format chrome renders only the first cell",
                            file=sys.stderr,
                        )
                    return 0
                cell = measure_critpath_cell(
                    lake,
                    text,
                    policy,
                    network,
                    runtime,
                    args.run_seed,
                    delay_scale=args.delay_scale,
                )
                cells.append((label, cell))
    if args.format == "json":
        print(
            json.dumps(
                {label: cell for label, cell in cells}, indent=2, sort_keys=True
            )
        )
        return 0
    reports = []
    for label, cell in cells:
        report = CriticalPathReport(
            runtime=cell["runtime"],
            total=cell["total"],
            exact=cell["exact"],
            classes=cell["classes"],
            exact_classes=cell["exact_classes"],
            sources=cell["sources"],
            slack=cell["slack"],
            segments=[],
            deliveries=cell["deliveries"],
            answers=cell["answers"],
            queue_wait=cell["queue_wait"],
            structural_fingerprint=cell["structural_fingerprint"],
        )
        reports.append(report)
        print(render_critpath(report, label=label))
        print()
    if len(reports) > 1:
        print(render_aggregate(aggregate_reports(reports)))
    return 0


def cmd_doctor(args: argparse.Namespace) -> int:
    """Evidence-linked regression attribution over the committed baselines."""
    import json
    import os

    from .obs.doctor import SEVERITIES, diagnose
    from .obs.journal import EventJournal

    def _json(path: str | None) -> dict | None:
        if not path or not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    from .benchmark.critpath import load_critpath_baseline

    critpath_baseline = None
    if args.critpath_baseline and os.path.exists(args.critpath_baseline):
        critpath_baseline = load_critpath_baseline(args.critpath_baseline)
    plan_quality = _json(args.plan_quality)
    telemetry = _json(args.telemetry)
    journal_events = None
    if args.journal:
        journal_events = EventJournal.read_jsonl(args.journal).events
    lake = None
    if critpath_baseline is not None:
        lake = build_lslod_lake(
            scale=critpath_baseline["scale"], seed=critpath_baseline["data_seed"]
        )
    if (
        critpath_baseline is None
        and plan_quality is None
        and telemetry is None
        and journal_events is None
    ):
        print(
            "error: nothing to diagnose — provide at least one of "
            "--critpath-baseline, --plan-quality, --telemetry, --journal",
            file=sys.stderr,
        )
        return 2
    report = diagnose(
        lake=lake,
        critpath_baseline=critpath_baseline,
        plan_quality=plan_quality,
        telemetry_baseline=telemetry,
        journal_events=journal_events,
        delay_scale=args.delay_scale,
        queries=args.queries.split(",") if args.queries else None,
        networks=args.networks.split(",") if args.networks else None,
        runtimes=args.runtimes.split(",") if args.runtimes else None,
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.fail_on not in SEVERITIES:
        return 0
    return report.exit_code(args.fail_on)


def cmd_journal(args: argparse.Namespace) -> int:
    """Journal tooling: integrity verification of a JSONL file on disk."""
    from .obs.journal import verify_journal_file

    ok, problems, info = verify_journal_file(
        args.journal_file, allow_unsealed=args.allow_unsealed
    )
    seal = info.get("seal")
    print(
        f"{args.journal_file}: {info['events']} events, "
        f"fingerprint {info['fingerprint']}"
    )
    counts = info.get("counts_by_kind", {})
    if counts:
        print("  " + ", ".join(f"{kind}={count}" for kind, count in counts.items()))
    if seal is not None:
        print(f"  seal: declares {seal.get('events')} events")
    if ok:
        print("OK: journal verifies" + (" (unsealed)" if seal is None else ""))
        return 0
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1


def cmd_slo_report(args: argparse.Namespace) -> int:
    import json

    from .obs import EventJournal, accountant_from_journal, render_slo_report

    if bool(args.journal) == bool(args.url):
        print(
            "error: provide exactly one of --journal or --url", file=sys.stderr
        )
        return 2
    source: dict
    if args.journal:
        try:
            journal = EventJournal.read_jsonl(args.journal)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot read journal: {error}", file=sys.stderr)
            return 2
        accountant, cache_stats = accountant_from_journal(journal.events)
        snapshot = accountant.snapshot(cache_stats=cache_stats)
        source = {
            "journal": args.journal,
            "events": len(journal),
            "journal_fingerprint": journal.fingerprint(),
        }
    else:
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/stats"
        try:
            with urlopen(url) as response:
                stats = json.load(response)
        except (URLError, OSError, json.JSONDecodeError) as error:
            print(f"error: cannot fetch {url}: {error}", file=sys.stderr)
            return 2
        version = stats.get("stats_version", 1)
        if version < 2 or "slo" not in stats:
            print(
                f"error: {url} reports stats_version {version}; SLO "
                "snapshots need stats_version >= 2 (upgrade the server)",
                file=sys.stderr,
            )
            return 2
        snapshot = stats["slo"]
        source = {"url": url}
    if args.format == "json":
        print(
            json.dumps({"source": source, "slo": snapshot}, indent=2, sort_keys=True)
        )
        return 0
    for key in sorted(source):
        print(f"{key}: {source[key]}")
    print()
    print(render_slo_report(snapshot, tenant=args.tenant))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Optimizing Federated Queries Based on the "
            "Physical Design of a Data Lake' (Rohde & Vidal, EDBT 2020)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser("describe", help="show the lake and its physical design")
    _add_common(describe)
    describe.set_defaults(func=cmd_describe)

    query = sub.add_parser("query", help="plan/execute a SPARQL query")
    _add_common(query)
    query.add_argument("query", help="benchmark name (Q1-Q5, Fig1), SPARQL text or @file")
    query.add_argument("--policy", choices=sorted(POLICIES), default="aware")
    query.add_argument("--network", choices=sorted(NETWORKS), default="nodelay")
    query.add_argument("--explain", action="store_true", help="print the plan first")
    query.add_argument(
        "--profile", action="store_true", help="per-operator EXPLAIN ANALYZE output"
    )
    query.add_argument("--limit", type=int, default=20, help="answers to print")
    query.set_defaults(func=cmd_query)

    grid = sub.add_parser("grid", help="run the 8-configuration experiment grid")
    _add_common(grid)
    grid.add_argument("--queries", help="comma-separated benchmark names (default Q1-Q5)")
    grid.add_argument("--format", choices=("table", "csv", "json"), default="table")
    grid.set_defaults(func=cmd_grid)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential-test random queries/layouts against the naive oracle",
    )
    fuzz.add_argument("--seed", type=int, default=42, help="campaign seed")
    fuzz.add_argument("--iters", type=int, default=50, help="number of random cases")
    fuzz.add_argument(
        "--regressions-dir",
        default="tests/oracle/regressions",
        help="where shrunk reproducers of failures are written",
    )
    fuzz.add_argument(
        "--no-write", action="store_true", help="do not write reproducer files"
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="report failures without minimizing"
    )
    fuzz.add_argument(
        "--no-invariants", action="store_true", help="skip the plan-invariant audit"
    )
    fuzz.add_argument(
        "--runtimes",
        default="sequential",
        help=(
            "comma-separated execution runtimes forming the matrix's "
            "scheduler axis (e.g. sequential,event,thread)"
        ),
    )
    fuzz.add_argument(
        "--execs",
        default="row",
        help=(
            "comma-separated data planes forming the matrix's exec axis "
            "(row,batch); with both, every cell is additionally checked "
            "for row-vs-batch bitwise identity of answers and stats"
        ),
    )
    fuzz.add_argument(
        "--trace-dir",
        default=None,
        help=(
            "dump Chrome traces of every mismatching configuration here "
            "(one file per failing config; upload as CI artifacts)"
        ),
    )
    fuzz.add_argument(
        "--policies",
        default=None,
        help=(
            "comma-separated policy short names forming the matrix's policy "
            "axis (default: the five heuristic base policies); a leading + "
            "appends to that default, e.g. +cost"
        ),
    )
    fuzz.add_argument("--verbose", action="store_true", help="per-case progress on stderr")
    fuzz.set_defaults(func=cmd_fuzz)

    explain = sub.add_parser(
        "explain", help="planner explain: every heuristic decision with its reason"
    )
    _add_common(explain)
    explain.add_argument("query", help="benchmark name (Q1-Q5, Fig1), SPARQL text or @file")
    explain.add_argument("--policy", choices=sorted(POLICIES), default="aware")
    explain.add_argument("--network", choices=sorted(NETWORKS), default="nodelay")
    explain.add_argument("--format", choices=("text", "json"), default="text")
    explain.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "EXPLAIN ANALYZE: execute the query observed and report each "
            "operator's estimated vs actual cardinality, its q-error, and "
            "the heuristic decisions behind the worst-estimated operators"
        ),
    )
    explain.set_defaults(func=cmd_explain)

    scorecard = sub.add_parser(
        "scorecard",
        help=(
            "heuristic win/loss report: sweep queries × networks × policies "
            "and score every H1/H2 decision taken vs declined"
        ),
    )
    _add_common(scorecard)
    scorecard.add_argument("--queries", help="comma-separated benchmark names (default Q1-Q5)")
    scorecard.add_argument(
        "--networks", help="comma-separated network names (default all four)"
    )
    scorecard.add_argument(
        "--policies",
        default=None,
        help=(
            "comma-separated policy short names to sweep (default: the five "
            "heuristic base policies); a leading + appends, e.g. +cost"
        ),
    )
    scorecard.add_argument("--format", choices=("text", "json"), default="text")
    scorecard.add_argument(
        "--summary",
        action="store_true",
        help="omit the per-decision lines, keep only the aggregates",
    )
    scorecard.set_defaults(func=cmd_scorecard)

    bench = sub.add_parser(
        "bench",
        help="plan-quality baseline: snapshot the experiment grid or check against it",
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    snapshot = bench_sub.add_parser(
        "snapshot", help="run the full grid and write the canonical baseline JSON"
    )
    _add_common(snapshot)
    snapshot.add_argument("--queries", help="comma-separated benchmark names (default Q1-Q5)")
    snapshot.add_argument(
        "--policies",
        default=None,
        help=(
            "comma-separated policy short names for the grid (default: the "
            "five heuristic base policies); a leading + appends, e.g. +cost"
        ),
    )
    snapshot.add_argument(
        "--output",
        default="BENCH_plan_quality.json",
        help="where to write the baseline document",
    )
    snapshot.set_defaults(func=cmd_bench)
    check = bench_sub.add_parser(
        "check",
        help=(
            "re-run the committed baseline's grid and exit nonzero on drift "
            "(the regression gate; the baseline file defines lake and axes)"
        ),
    )
    check.add_argument(
        "--baseline",
        default="BENCH_plan_quality.json",
        help="committed baseline document to check against",
    )
    check.add_argument(
        "--exec",
        choices=EXEC_MODES,
        default=None,
        help=(
            "re-run the grid under this data plane instead of the "
            "baseline's recorded one (virtual times must still match "
            "exactly — the batch-vs-row regression gate)"
        ),
    )
    check.add_argument("--rel-time", type=float, default=0.01, help="relative time tolerance")
    check.add_argument("--abs-time", type=float, default=1e-9, help="absolute time tolerance")
    check.add_argument("--rel-dief", type=float, default=0.01, help="relative dief tolerance")
    check.add_argument("--abs-dief", type=float, default=1e-9, help="absolute dief tolerance")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument(
        "--report", help="also write the full diff report (JSON) to this path"
    )
    check.set_defaults(func=cmd_bench)

    stats = sub.add_parser(
        "stats",
        help=(
            "optimizer statistics: snapshot catalog + observed cardinalities "
            "to JSON, or inspect a stored snapshot (catalog-version gated)"
        ),
    )
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)
    collect = stats_sub.add_parser(
        "collect",
        help=(
            "collect catalog statistics and seed the observed-cardinality "
            "store by running benchmark queries observed"
        ),
    )
    _add_common(collect)
    collect.add_argument(
        "--queries",
        help="comma-separated benchmark names to run observed (default Q1-Q5)",
    )
    collect.add_argument("--policy", choices=sorted(POLICIES), default="cost")
    collect.add_argument("--network", choices=sorted(NETWORKS), default="nodelay")
    collect.add_argument(
        "--output", default="STATS.json", help="where to write the statistics document"
    )
    collect.set_defaults(func=cmd_stats)
    show = stats_sub.add_parser(
        "show", help="render a stored statistics document (and verify freshness)"
    )
    _add_common(show)
    show.add_argument(
        "stats_file", nargs="?", default="STATS.json", help="statistics document to read"
    )
    show.add_argument(
        "--no-verify",
        action="store_true",
        help="skip rebuilding the lake to validate the stored catalog version",
    )
    show.add_argument(
        "--limit", type=int, default=10, help="observed records to print (-1 = all)"
    )
    show.set_defaults(func=cmd_stats)

    trace = sub.add_parser(
        "trace",
        help="answer traces (Figure 2 style) or Chrome trace-event export",
    )
    _add_common(trace)
    trace.add_argument("query", help="benchmark name, SPARQL text or @file")
    trace.add_argument("--policies", default="unaware,aware")
    trace.add_argument("--networks", default="gamma3")
    trace.add_argument("--width", type=int, default=72)
    trace.add_argument("--height", type=int, default=14)
    trace.add_argument(
        "--format",
        choices=("ascii", "chrome", "csv"),
        default="ascii",
        help=(
            "ascii answer-trace plot, Chrome trace-event JSON (open in "
            "Perfetto / chrome://tracing), or the plot's CSV series"
        ),
    )
    trace.add_argument("--output", help="write the rendering to a file instead of stdout")
    trace.add_argument(
        "--validate",
        action="store_true",
        help="validate the Chrome export against the trace-event schema first",
    )
    trace.set_defaults(func=cmd_trace)

    serve = sub.add_parser(
        "serve",
        help=(
            "run the multi-tenant query service (asyncio HTTP daemon over "
            "an engine pool with shared caches and admission control)"
        ),
    )
    _add_common(serve)
    _add_service_common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8089, help="TCP port (0 = ephemeral)"
    )
    serve.add_argument(
        "--check",
        action="store_true",
        help="validate the configuration and print it without binding",
    )
    serve.add_argument(
        "--journal",
        dest="journal_path",
        help="stream the structured event journal (canonical JSONL) to this path",
    )
    serve.set_defaults(func=cmd_serve)

    loadtest = sub.add_parser(
        "loadtest",
        help=(
            "seeded closed-loop load test of the service stack in virtual "
            "time (deterministic per --load-seed); writes BENCH_service.json"
        ),
    )
    _add_common(loadtest)
    _add_service_common(loadtest)
    # The driver never binds a socket; host/port only feed config validation.
    loadtest.add_argument("--host", default="127.0.0.1", help=argparse.SUPPRESS)
    loadtest.add_argument("--port", type=int, default=0, help=argparse.SUPPRESS)
    loadtest.add_argument("--clients", type=int, default=1000, help="simulated clients")
    loadtest.add_argument(
        "--requests-per-client", type=int, default=1, help="closed-loop rounds"
    )
    loadtest.add_argument(
        "--tenant-count", type=int, default=4, help="simulated tenants (t0..tN-1)"
    )
    loadtest.add_argument(
        "--tenant-skew", type=float, default=1.2, help="Zipf skew over tenants"
    )
    loadtest.add_argument(
        "--hot-fraction",
        type=float,
        default=0.8,
        help="probability a request draws from the hot query set",
    )
    loadtest.add_argument(
        "--cold-variants",
        type=int,
        default=20,
        help="distinct cold query texts (plan-cache misses)",
    )
    loadtest.add_argument(
        "--mean-interarrival",
        type=float,
        default=0.05,
        help="mean gap between client arrivals (virtual seconds)",
    )
    loadtest.add_argument(
        "--mean-think",
        type=float,
        default=2.0,
        help="mean client think time between requests (virtual seconds)",
    )
    loadtest.add_argument(
        "--load-seed", type=int, default=42, help="workload seed (determinism)"
    )
    loadtest.add_argument(
        "--no-verify",
        action="store_true",
        help="skip per-request answer verification against a reference engine",
    )
    loadtest.add_argument(
        "--include-requests",
        action="store_true",
        help="embed every per-request outcome in the report JSON",
    )
    loadtest.add_argument(
        "--output",
        default="BENCH_service.json",
        help="report path ('' to skip writing)",
    )
    loadtest.add_argument(
        "--trace-output", help="also write a Chrome trace of the schedule"
    )
    loadtest.add_argument(
        "--journal",
        help="write the run's event journal as canonical JSONL to this path",
    )
    loadtest.add_argument(
        "--no-telemetry",
        action="store_true",
        help=(
            "run without the SLO accountant and event journal (the report "
            "fingerprint is bit-identical either way)"
        ),
    )
    loadtest.set_defaults(func=cmd_loadtest)

    critpath = sub.add_parser(
        "critpath",
        help=(
            "exact critical-path attribution: blame every virtual second on "
            "engine work, cache-miss penalty or network delay — per query, "
            "grid-aggregated, with snapshot/check as the regression gate"
        ),
    )
    _add_common(critpath)
    critpath.add_argument(
        "--queries", help="comma-separated benchmark names (default Q1-Q5)"
    )
    critpath.add_argument(
        "--networks", help="comma-separated network names (default all four)"
    )
    critpath.add_argument(
        "--runtimes",
        help="comma-separated runtimes (default sequential,event,thread)",
    )
    critpath.add_argument("--policy", choices=sorted(POLICIES), default="aware")
    critpath.add_argument(
        "--delay-scale",
        type=float,
        default=1.0,
        help=(
            "multiply every network-delay sample by this factor (the "
            "doctor's regression-injection counterfactual)"
        ),
    )
    critpath.add_argument(
        "--format",
        choices=("text", "json", "chrome"),
        default="text",
        help=(
            "text tables, JSON report dicts, or a Chrome trace with the "
            "blame tiling overlaid as an extra track (first cell only)"
        ),
    )
    critpath.add_argument(
        "--output", help="write the rendering to a file instead of stdout"
    )
    critpath.add_argument(
        "--snapshot",
        help="run the grid and write the canonical baseline JSON to this path",
    )
    critpath.add_argument(
        "--check",
        help=(
            "re-run a committed baseline's grid (the file defines lake and "
            "axes) and exit nonzero on any fraction-level mismatch"
        ),
    )
    critpath.set_defaults(func=cmd_critpath)

    doctor = sub.add_parser(
        "doctor",
        help=(
            "regression-attribution doctor: rank evidence-linked findings "
            "from the committed baselines and a journal (SLO burn, cache "
            "hit-ratio drops, q-error hotspots, heuristic misfires, "
            "critical-path drift)"
        ),
    )
    doctor.add_argument(
        "--critpath-baseline",
        default="BENCH_critpath.json",
        help="committed attribution baseline (skipped when absent)",
    )
    doctor.add_argument(
        "--plan-quality",
        default="BENCH_plan_quality.json",
        help="committed plan-quality baseline (skipped when absent)",
    )
    doctor.add_argument(
        "--telemetry",
        default="BENCH_telemetry.json",
        help="committed telemetry baseline (skipped when absent)",
    )
    doctor.add_argument(
        "--journal",
        help="event journal JSONL to rebuild the live SLO snapshot from",
    )
    doctor.add_argument(
        "--delay-scale",
        type=float,
        default=1.0,
        help=(
            "re-measure the critpath grid with delays scaled by this factor "
            "— the doctor should attribute the injected drift to "
            "network_delay on the affected source"
        ),
    )
    doctor.add_argument(
        "--queries", help="restrict the critpath re-measure to these queries"
    )
    doctor.add_argument(
        "--networks", help="restrict the critpath re-measure to these networks"
    )
    doctor.add_argument(
        "--runtimes", help="restrict the critpath re-measure to these runtimes"
    )
    doctor.add_argument("--format", choices=("text", "json"), default="text")
    doctor.add_argument(
        "--fail-on",
        choices=("critical", "warning", "info", "never"),
        default="critical",
        help="exit nonzero when a finding at or above this severity exists",
    )
    doctor.set_defaults(func=cmd_doctor)

    journal = sub.add_parser(
        "journal", help="event-journal tooling (integrity verification)"
    )
    journal_sub = journal.add_subparsers(dest="journal_command", required=True)
    journal_verify = journal_sub.add_parser(
        "verify",
        help=(
            "re-check a journal file's SHA-256 seal fingerprint and per-line "
            "schema; exits nonzero on tamper or truncation"
        ),
    )
    journal_verify.add_argument("journal_file", help="journal JSONL path")
    journal_verify.add_argument(
        "--allow-unsealed",
        action="store_true",
        help="accept files without a seal line (schema checks still apply)",
    )
    journal_verify.set_defaults(func=cmd_journal)

    slo = sub.add_parser(
        "slo",
        help=(
            "per-tenant SLO reporting (latency percentiles, shed/timeout/"
            "error rates, fair-share utilization)"
        ),
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_report = slo_sub.add_parser(
        "report",
        help=(
            "render the SLO snapshot of an event journal (--journal) or a "
            "live server (--url)"
        ),
    )
    slo_report.add_argument(
        "--journal",
        help="event journal JSONL (from 'loadtest --journal' or 'serve --journal')",
    )
    slo_report.add_argument(
        "--url",
        help="base URL of a running service (e.g. http://127.0.0.1:8089)",
    )
    slo_report.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    slo_report.add_argument(
        "--tenant",
        help="show only this tenant's row (text mode; unknown tenants fail loudly)",
    )
    slo_report.set_defaults(func=cmd_slo_report)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
