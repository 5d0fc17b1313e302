"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``figures [name ...] [--scale S] [--seed N]`` — regenerate the paper's
  tables/figures (all of them by default) and print the series;
* ``explain "<SQL>" [--rows N]`` — show all candidate plans for a COUNT
  query against a freshly built synthetic database;
* ``diagnose "<SQL>" [--rows N] [--feedback PATH]`` — run the query with
  page-count monitoring, print the statistics-xml-style output and the
  estimate-vs-actual report, recommend a plan hint, and optionally
  persist the gathered feedback;
* ``inventory [--scale S]`` — print Table I's database inventory;
* ``serve [--host H] [--port P] ...`` — run the NDJSON-over-TCP query
  service over a synthetic database (Ctrl-C drains and stops);
* ``loadgen [--clients N] [--warm] [--connect HOST:PORT] ...`` — the
  closed-loop load generator, in-process by default or against a running
  ``serve``.

The synthetic database commands exist so the tool is usable out of the
box; programmatic users point the same APIs at their own ``Database``.
Unknown subcommands return exit code 2 (argparse's convention), also when
``main()`` is called programmatically.
"""

from __future__ import annotations

import argparse
import sys

from repro.exec.executor import DEFAULT_EXEC_MODE, EXEC_MODES


def _add_exec_mode(parser) -> None:
    parser.add_argument(
        "--exec-mode",
        choices=EXEC_MODES,
        default=DEFAULT_EXEC_MODE,
        help="execution drive: chunk-at-a-time batches (default), or the "
        "row-at-a-time reference oracle (results identical, much slower)",
    )


def _add_figures(subparsers) -> None:
    parser = subparsers.add_parser(
        "figures", help="regenerate the paper's tables/figures"
    )
    parser.add_argument("names", nargs="*", help="subset, e.g. fig6 fig10")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--rows", type=int, default=30_000)
    parser.add_argument("--seed", type=int, default=3)
    _add_exec_mode(parser)  # fig6/fig8; the other drivers are mode-agnostic
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="run fig6 over an N-shard scatter-gather deployment "
        "(same plan transitions, merged-makespan times)",
    )


def _add_query_command(subparsers, name: str, help_text: str) -> None:
    parser = subparsers.add_parser(name, help=help_text)
    parser.add_argument("sql", help="a COUNT query over the synthetic table t")
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=42)
    if name == "diagnose":
        parser.add_argument(
            "--feedback",
            default=None,
            help="path to persist the gathered feedback store (JSON)",
        )
        _add_exec_mode(parser)


def _cmd_figures(args) -> int:
    from repro.harness import (
        run_fig6_fig7,
        run_fig8,
        run_fig9,
        run_fig10,
        run_fig11,
        run_reopt_ab,
        run_table1,
    )

    drivers = {
        "table1": lambda: run_table1(scale=args.scale, seed=args.seed),
        "fig6": lambda: run_fig6_fig7(
            num_rows=args.rows,
            queries_per_column=6,
            seed=args.seed,
            exec_mode=args.exec_mode,
            shards=args.shards,
        ),
        "fig8": lambda: run_fig8(
            num_rows=args.rows,
            queries_per_column=4,
            seed=args.seed,
            exec_mode=args.exec_mode,
        ),
        "fig9": lambda: run_fig9(num_rows=args.rows, seed=args.seed),
        "fig10": lambda: run_fig10(
            scale=args.scale, probes_per_column=3, seed=args.seed
        ),
        "fig11": lambda: run_fig11(
            scale=args.scale, queries_per_column=3, seed=args.seed
        ),
        # Mid-query re-optimization A/B (ride the misestimated plan vs
        # switch at a checkpoint); always batch-driven — the page
        # boundaries are what make the trip/resume semantics exact.
        "reopt": lambda: run_reopt_ab(
            num_rows=args.rows, queries_per_column=3, seed=args.seed
        ),
    }
    names = args.names or list(drivers)
    unknown = [n for n in names if n not in drivers]
    if unknown:
        print(f"unknown figures {unknown}; choose from {list(drivers)}")
        return 2
    from repro.harness.timing import Stopwatch

    for name in names:
        watch = Stopwatch()
        result = drivers[name]()
        print("=" * 78)
        print(result.render())
        print(f"[{name} regenerated in {watch.elapsed_seconds:.1f}s]\n")
    return 0


def _build_synthetic(args):
    from repro.workloads import build_synthetic_database

    print(
        f"building synthetic database ({args.rows} rows, seed {args.seed})...",
        file=sys.stderr,
    )
    return build_synthetic_database(
        num_rows=args.rows, seed=args.seed, with_copy=True
    )


def _cmd_explain(args) -> int:
    from repro.lifecycle.plan import build_optimizer
    from repro.sql import parse_query

    database = _build_synthetic(args)
    query = parse_query(args.sql)
    print(build_optimizer(database).explain(query))
    return 0


def _cmd_diagnose(args) -> int:
    from repro.core.diagnostics import diagnose, recommend_hint
    from repro.harness.methodology import default_requests
    from repro.session import Session
    from repro.sql import parse_query

    database = _build_synthetic(args)
    query = parse_query(args.sql)
    session = Session(database)
    requests = default_requests(database, query)
    executed = session.run(query, requests=requests, exec_mode=args.exec_mode)
    print(executed.result.runstats.render())
    print()
    report = diagnose(
        query.describe(),
        executed.plan,
        executed.observations,
        optimizer=session.optimizer(),
        query=query,
        lint_findings=session.lint_findings,
    )
    print(report.render())
    hint = recommend_hint(database, query, executed.observations)
    if hint is None:
        print("\nno plan change recommended")
    else:
        print(f"\nrecommended hint: {hint}")
        hinted = session.run(query, hint=hint, exec_mode=args.exec_mode)
        speedup = (executed.elapsed_ms - hinted.elapsed_ms) / executed.elapsed_ms
        print(
            f"hinted run: {hinted.elapsed_ms:.2f}ms vs {executed.elapsed_ms:.2f}ms "
            f"(SpeedUp {speedup:.0%})"
        )
    if args.feedback:
        session.remember(executed)
        session.feedback.save(args.feedback)
        print(f"feedback persisted to {args.feedback}")
    return 0


def _cmd_inventory(args) -> int:
    from repro.harness import run_table1

    print(run_table1(scale=args.scale, seed=args.seed).render())
    return 0


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve", help="run the NDJSON-over-TCP query service"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7433, help="0 picks an ephemeral port"
    )
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-in-flight", type=int, default=8)
    parser.add_argument("--max-queue-depth", type=int, default=32)
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve from an N-shard scatter-gather deployment",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="execute on N worker processes (each rebuilds the seeded "
        "database; feedback stays centralized in the coordinator); "
        "0 = in-process execution",
    )
    parser.add_argument(
        "--reopt",
        action="store_true",
        help="run monitored in-process queries under the mid-query "
        "re-optimization watchdog by default (per-request 'reopt' "
        "still wins; ignored on the worker-process tier, refused with "
        "--shards)",
    )


def _check_scale_out(args) -> None:
    """Refuse flag combinations no tier implements, before building anything.

    ``--workers`` with ``--shards``: the worker tier harvests into one
    authoritative engine-owned feedback store, which the shard coordinator
    replaces with its own merge path.  ``--reopt`` with ``--shards``: the
    fan-out has no one place to decide a mid-query plan switch.
    """
    if args.shards > 1 and args.workers > 0:
        raise SystemExit(
            "--workers and --shards are mutually exclusive; pick one "
            "scaling axis"
        )
    if args.shards > 1 and args.reopt:
        raise SystemExit(
            "--reopt and --shards are mutually exclusive; the shard "
            "fan-out cannot re-optimize mid-query"
        )


def _build_engine(database, shards: int):
    """An Engine: a plain one, or a ShardCoordinator when sharded."""
    from repro.engine import Engine

    if shards > 1:
        from repro.shard import ShardCoordinator

        print(f"partitioning into {shards} range shards...", file=sys.stderr)
        return ShardCoordinator(database, num_shards=shards)
    return Engine(database)


def _build_worker_pool(args, engine):
    """A WorkerPool for ``--workers N``, or ``None`` when disabled.

    Workers rebuild the same synthetic database the coordinator holds
    (same factory, same kwargs), which is what keeps the equivalence
    diff at zero.
    """
    workers = args.workers
    if workers <= 0:
        return None
    from repro.service import WorkerPool, WorkerSpec

    print(f"spawning {workers} worker process(es)...", file=sys.stderr)
    return WorkerPool(
        WorkerSpec(
            "repro.workloads:build_synthetic_database",
            {"num_rows": args.rows, "seed": args.seed, "with_copy": True},
        ),
        num_workers=workers,
        engine=engine,
    )


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import QueryServer, QueryService

    _check_scale_out(args)
    database = _build_synthetic(args)
    engine = _build_engine(database, args.shards)
    service = QueryService(
        engine,
        max_in_flight=args.max_in_flight,
        max_queue_depth=args.max_queue_depth,
        reopt_by_default=args.reopt,
        worker_pool=_build_worker_pool(args, engine),
    )
    server = QueryServer(service, host=args.host, port=args.port)

    async def run() -> None:
        host, port = await server.start()
        print(
            f"serving on {host}:{port} — newline-delimited JSON; "
            'send {"kind":"stats"} for telemetry; Ctrl-C drains and stops'
        )
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    return 0


def _add_loadgen(subparsers) -> None:
    parser = subparsers.add_parser(
        "loadgen", help="closed-loop load generator for the query service"
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument(
        "--warm",
        action="store_true",
        help="pre-harvest feedback and optimize with it (in-process only)",
    )
    _add_exec_mode(parser)
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--max-in-flight", type=int, default=8)
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="target a running `serve` instead of an in-process service",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="drive an in-process N-shard deployment (serial diff then "
        "compares rows only; see diff_against_serial)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="execute on N worker processes behind the admission "
        "controller (in-process service only); 0 = single process",
    )
    parser.add_argument(
        "--reopt",
        action="store_true",
        help="mark every request for mid-query re-optimization (the "
        "serial equivalence diff then skips read-count comparison on "
        "tripped responses; rows must still match; refused with --shards)",
    )


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.harness.loadgen import (
        DEFAULT_WORKLOAD_SQL,
        LoadSpec,
        diff_against_serial,
        run_closed_loop,
        run_closed_loop_tcp,
        workload_items,
    )

    spec = LoadSpec(
        concurrency=args.clients,
        passes=args.passes,
        exec_mode=args.exec_mode,
        use_feedback=args.warm,
        reopt=args.reopt,
        deadline_ms=args.deadline_ms,
    )

    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--connect needs HOST:PORT, got {args.connect!r}")
            return 2
        report = asyncio.run(run_closed_loop_tcp(host, int(port_text), spec))
        print(report.render())
        return 1 if report.leaked else 0

    from repro.engine import WorkloadItem
    from repro.service import QueryService

    _check_scale_out(args)
    database = _build_synthetic(args)
    engine = _build_engine(database, args.shards)
    if args.warm:
        for item in workload_items(database, DEFAULT_WORKLOAD_SQL):
            engine.execute(
                WorkloadItem(
                    query=item.query, requests=item.requests, remember=True
                )
            )

    worker_pool = _build_worker_pool(args, engine)

    async def run():
        service = QueryService(
            engine,
            max_in_flight=args.max_in_flight,
            max_queue_depth=max(args.clients, args.max_in_flight),
            worker_pool=worker_pool,
        )
        report = await run_closed_loop(service, spec)
        stats = await service.stats()
        await service.shutdown()
        return report, stats

    report, stats = asyncio.run(run())
    print(report.render())
    if stats.get("workers") is not None:
        from repro.harness.reporting import format_worker_table

        print(format_worker_table(stats["workers"]))
    if not args.warm:
        diffs = diff_against_serial(
            database, report, rows_only=args.shards > 1
        )
        print(f"equivalence diffs vs serial replay: {len(diffs)}")
        for diff in diffs[:5]:
            print(f"  {diff}")
        if diffs:
            return 1
    if report.leaked:
        print(f"LEAK: {report.leaked}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Page-count execution-feedback reproduction (ICDE 2008)",
        epilog=(
            "tier-1 verify: PYTHONPATH=src python -m pytest -x -q "
            "(run from the repo root before shipping changes)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_figures(subparsers)
    _add_query_command(subparsers, "explain", "show all candidate plans")
    _add_query_command(
        subparsers, "diagnose", "monitor, report estimate-vs-actual, hint"
    )
    inventory = subparsers.add_parser("inventory", help="print Table I")
    inventory.add_argument("--scale", type=float, default=0.25)
    inventory.add_argument("--seed", type=int, default=3)
    _add_serve(subparsers)
    _add_loadgen(subparsers)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown subcommands/bad flags (0 for
        # --help); surface that as a return code so programmatic callers
        # of main() see the same convention as the shell.
        code = exc.code
        return code if isinstance(code, int) else 2

    handlers = {
        "figures": _cmd_figures,
        "explain": _cmd_explain,
        "diagnose": _cmd_diagnose,
        "inventory": _cmd_inventory,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
