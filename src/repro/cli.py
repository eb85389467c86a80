"""Command-line interface: the workflow for operators without Python.

Subcommands::

    python -m repro traces
        list the available trace generators

    python -m repro generate --trace pai --n-jobs 5000 --output pai.csv
        generate a synthetic trace and save it as CSV

    python -m repro analyze --trace supercloud --keyword "Failed" \
            [--n-jobs 5000 | --input trace.csv] [--min-support 0.05] \
            [--profile] …
        run the full workflow for one keyword and print the rule table
        plus an engine stats footer (per-stage timing and cardinality)

    python -m repro casestudy --trace philly --n-jobs 5000 [--profile]
        run every Sec. IV study for one trace, with a stats footer for
        each analysis pass it ran

    python -m repro mine-rulebook --trace pai --output pai.rulebook.jsonl
        run the analysis and persist the kept rules as a RuleBook

    python -m repro serve --rulebook pai.rulebook.jsonl --port 7317 \
            [--shards 4]
        serve the RuleBook online (newline-delimited JSON over TCP);
        --shards > 1 runs N worker processes behind a router that sends
        each match to the shard with the fewest requests in flight

    python -m repro serve --rulebook pai.rulebook.jsonl \
            --follow stream.ndjson [--follow-drift 0.05]
        follow mode: additionally tail an NDJSON transaction stream,
        maintain a sliding bitmap window, and hot-swap the fleet's
        rulebook whenever the drift gate triggers a remine

    python -m repro reload-rulebook --rulebook new.jsonl --port 7317
        zero-downtime hot-swap of a running service's rulebook

    python -m repro match --rulebook pai.rulebook.jsonl --trace pai --input jobs.csv
        offline batch matching of a job table through the serving index

All output is plain text (the paper-style tables); exit status is 0 on
success, 2 on argument errors and bad input files, and 3 when the system
refuses what the command needs (a ``--port`` already in use), each error
reported in one line on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from typing import TYPE_CHECKING, Sequence

from .traces.registry import TRACE_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core.config import MiningConfig
    from .dataframe import ColumnTable

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interpretable GPU-cluster trace analysis via association rules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("traces", help="list available trace generators")

    gen = sub.add_parser("generate", help="generate a synthetic trace CSV")
    gen.add_argument("--trace", required=True, choices=TRACE_NAMES)
    gen.add_argument("--n-jobs", type=int, default=10_000)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--output", required=True, help="destination CSV path")

    ana = sub.add_parser("analyze", help="mine keyword rules from a trace")
    ana.add_argument("--trace", required=True, choices=TRACE_NAMES)
    ana.add_argument("--keyword", required=True,
                     help='item text, e.g. "Failed" or "SM Util = 0%%"')
    source = ana.add_mutually_exclusive_group()
    source.add_argument("--n-jobs", type=int, default=None,
                        help="generate this many jobs (default preset)")
    source.add_argument("--input", default=None, help="analyse an existing trace CSV")
    _add_mining_flags(ana)
    ana.add_argument("--max-cause", type=int, default=6)
    ana.add_argument("--max-characteristic", type=int, default=3)
    _add_profile_flag(ana)

    book = sub.add_parser(
        "mine-rulebook", help="run the analysis and persist a servable RuleBook"
    )
    book.add_argument("--trace", required=True, choices=TRACE_NAMES)
    book.add_argument("--keyword", action="append", default=None,
                      help="keyword to study (repeatable; default: the "
                           "trace's case-study keywords)")
    book_source = book.add_mutually_exclusive_group()
    book_source.add_argument("--n-jobs", type=int, default=None)
    book_source.add_argument("--input", default=None,
                             help="mine an existing trace CSV")
    book.add_argument("--output", required=True,
                      help="destination RuleBook path (JSON lines)")
    _add_mining_flags(book)
    _add_profile_flag(book)

    srv = sub.add_parser(
        "serve", help="serve a RuleBook online (NDJSON over TCP)"
    )
    srv.add_argument("--rulebook", required=True, help="RuleBook path to load")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7317)
    srv.add_argument("--shards", type=int, default=1,
                     help="worker processes; >1 runs a sharded cluster")
    srv.add_argument("--request-timeout", type=float, default=30.0,
                     help="router-side per-request shard timeout, seconds")
    srv.add_argument("--max-queue", type=int, default=1024,
                     help="bounded request queue (backpressure beyond this)")
    srv.add_argument("--max-batch", type=int, default=64,
                     help="micro-batch size per scheduler wakeup")
    srv.add_argument("--follow", default=None, metavar="STREAM",
                     help="tail this NDJSON transaction stream and hot-swap "
                          "the fleet's rulebook as the window drifts")
    srv.add_argument("--follow-window", type=int, default=4096,
                     help="sliding window size in transactions "
                          "(rounded up to 64-transaction granules)")
    srv.add_argument("--follow-interval", type=float, default=2.0,
                     help="seconds between refresh ticks")
    srv.add_argument("--follow-min-events", type=int, default=64,
                     help="minimum new transactions before a tick runs")
    srv.add_argument("--follow-drift", type=float, default=0.05,
                     help="drift fraction that triggers a full remine "
                          "(0 remines every tick)")
    srv.add_argument("--follow-out", default="follow-books",
                     help="directory for versioned follow-mode rulebooks")
    srv.add_argument("--profile", action="store_true",
                     help="print per-tick kernel attribution in follow mode")

    rel = sub.add_parser(
        "reload-rulebook",
        help="hot-swap the rulebook of a running service/router/cluster",
    )
    rel.add_argument("--rulebook", required=True,
                     help="new RuleBook path (read by the serving processes)")
    rel.add_argument("--host", default="127.0.0.1")
    rel.add_argument("--port", type=int, required=True,
                     help="port of the service, or of the router (which "
                          "flips its shards one at a time)")
    rel.add_argument("--version", type=int, default=None,
                     help="explicit version number (default: current + 1)")
    rel.add_argument("--version-tag", default=None,
                     help="tag stamped on post-flip responses "
                          "(default: the new book's fingerprint)")

    mat = sub.add_parser(
        "match", help="batch-match a job table through the serving index"
    )
    mat.add_argument("--rulebook", required=True, help="RuleBook path to load")
    mat.add_argument("--trace", default=None, choices=TRACE_NAMES,
                     help="trace whose preprocessor encodes the jobs "
                          "(required unless --jobs is given)")
    mat_source = mat.add_mutually_exclusive_group()
    mat_source.add_argument("--n-jobs", type=int, default=None)
    mat_source.add_argument("--input", default=None, help="job table CSV")
    mat_source.add_argument("--jobs", default=None, metavar="NDJSON",
                            help="bulk-score pre-encoded transactions: one "
                                 "JSON array (or {\"transaction\": [...]}) "
                                 "per line, the --follow stream format")
    mat.add_argument("--explain", action="store_true",
                     help="also count near-miss rules (one item short)")
    mat.add_argument("--top", type=int, default=15,
                     help="show at most this many rules in the summary")
    mat.add_argument("--batch-size", type=int, default=1024,
                     help="jobs per batch-kernel call")

    case = sub.add_parser("casestudy", help="run all Sec. IV studies for a trace")
    case.add_argument("--trace", required=True, choices=TRACE_NAMES)
    case.add_argument("--n-jobs", type=int, default=None)
    _add_profile_flag(case)

    stats = sub.add_parser("stats", help="descriptive characterisation of a trace")
    stats.add_argument("--trace", required=True, choices=TRACE_NAMES)
    stats_source = stats.add_mutually_exclusive_group()
    stats_source.add_argument("--n-jobs", type=int, default=None)
    stats_source.add_argument("--input", default=None)

    ins = sub.add_parser(
        "insights", help="automated operational takeaways for a keyword"
    )
    ins.add_argument("--trace", required=True, choices=TRACE_NAMES)
    ins.add_argument("--keyword", required=True)
    ins_source = ins.add_mutually_exclusive_group()
    ins_source.add_argument("--n-jobs", type=int, default=None)
    ins_source.add_argument("--input", default=None)

    return parser


def _add_mining_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--min-support", type=float, default=0.05)
    sub.add_argument("--min-lift", type=float, default=1.5)
    sub.add_argument("--max-len", type=int, default=5)
    sub.add_argument("--c-lift", type=float, default=1.5)
    sub.add_argument("--c-supp", type=float, default=1.5)


def _add_profile_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--profile", action="store_true",
                     help="show per-stage kernel attribution in the stats footer")


def _config_from(args: argparse.Namespace) -> MiningConfig:
    from .core.config import MiningConfig

    return MiningConfig(
        min_support=args.min_support,
        max_len=args.max_len,
        min_lift=args.min_lift,
        c_lift=args.c_lift,
        c_supp=args.c_supp,
    )


def _load_or_generate(args: argparse.Namespace) -> ColumnTable:
    from .traces.loader import load_trace
    from .traces.registry import get_trace

    definition = get_trace(args.trace)
    if getattr(args, "input", None):
        return load_trace(args.input, trace=definition.name)
    return definition.generate_scaled(n_jobs=args.n_jobs)


def cmd_traces(_: argparse.Namespace) -> str:
    from .traces.registry import get_trace

    lines = []
    for name in TRACE_NAMES:
        d = get_trace(name)
        lines.append(
            f"{name:<12} {d.display_name} ({d.operator}) — paper scale: "
            f"{d.paper_jobs} jobs, {d.paper_users} users, {d.paper_gpus} GPUs, "
            f"{d.paper_duration}; keywords: {', '.join(sorted(d.keywords.values()))}"
        )
    return "\n".join(lines)


def cmd_generate(args: argparse.Namespace) -> str:
    from .traces.loader import save_trace
    from .traces.registry import get_trace

    definition = get_trace(args.trace)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    table = definition.generate_scaled(n_jobs=args.n_jobs, **overrides)
    save_trace(table, args.output)
    return (
        f"wrote {len(table)} {definition.display_name} jobs "
        f"({table.n_columns} columns) to {args.output}"
    )


def cmd_analyze(args: argparse.Namespace) -> str:
    from .analysis.report import format_rule_table
    from .analysis.workflow import InterpretableAnalysis
    from .traces.registry import get_trace

    definition = get_trace(args.trace)
    config = _config_from(args)
    table = _load_or_generate(args)
    workflow = InterpretableAnalysis(definition.make_preprocessor(), config)
    result = workflow.run(table, {"query": args.keyword})
    rules = result["query"]
    rule_table = format_rule_table(
        rules,
        title=(
            f"Rules for keyword {args.keyword!r} — "
            f"{definition.display_name} ({len(table)} jobs)"
        ),
        max_cause=args.max_cause,
        max_characteristic=args.max_characteristic,
    )
    footer = (
        f"\n{len(rules)} rules kept of {rules.n_rules_before_pruning} "
        f"generated ({rules.report})"
    )
    if result.stats is not None:
        footer += "\n\n" + result.stats.render(profile=args.profile)
    return str(rule_table) + footer


def cmd_mine_rulebook(args: argparse.Namespace) -> str:
    from .analysis.workflow import InterpretableAnalysis
    from .traces.registry import get_trace

    definition = get_trace(args.trace)
    config = _config_from(args)
    table = _load_or_generate(args)
    keywords = (
        {kw: kw for kw in args.keyword}
        if args.keyword
        else dict(definition.keywords)
    )
    workflow = InterpretableAnalysis(definition.make_preprocessor(), config)
    result = workflow.run(table, keywords)
    book = result.to_rulebook(trace=definition.name)
    book.save(args.output)
    lines = [f"wrote RuleBook to {args.output}", f"  {book.provenance()}"]
    if result.stats is not None:
        lines.append("")
        lines.append(result.stats.render(profile=args.profile))
    return "\n".join(lines)


def cmd_serve(args: argparse.Namespace) -> str:
    import asyncio

    from .serve.rulebook import RuleBook
    from .serve.service import RuleService

    if args.shards < 1:
        raise ValueError("--shards must be >= 1")
    book = RuleBook.load(args.rulebook)  # fail fast on a bad book
    if args.follow is not None:
        return _serve_follow(args, book)
    if args.shards > 1:
        from .serve.shard import ShardCluster, run_cluster

        cluster = ShardCluster(
            args.rulebook,
            args.shards,
            book=book,
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_batch=args.max_batch,
            request_timeout_s=args.request_timeout,
        )
        print(
            f"serving {book.provenance()}\n"
            f"{args.shards} shards behind a router — "
            f"SIGTERM/Ctrl-C drains and exits",
            flush=True,
        )
        asyncio.run(run_cluster(cluster))
        return "cluster drained and stopped"
    service = RuleService.from_rulebook(
        book, max_queue=args.max_queue, max_batch=args.max_batch
    )
    print(
        f"serving {book.provenance()}\n"
        f"listening on {args.host}:{args.port} "
        f"(queue={args.max_queue}, batch={args.max_batch}) — "
        f"SIGTERM/Ctrl-C drains and exits",
        flush=True,
    )
    asyncio.run(service.serve_forever(args.host, args.port))
    metrics = service.metrics
    return (
        f"drained and stopped after {metrics.uptime_s:.1f}s: "
        f"{metrics.n_matched} matches, {metrics.n_rejected} rejected, "
        f"p99 latency {metrics.latency.quantile(0.99) * 1e3:.2f}ms"
    )


def _serve_follow(args: argparse.Namespace, book) -> str:
    """Follow mode: serve + tail the stream + drift-gated hot refresh."""
    import asyncio
    import signal

    from .serve.service import RuleService
    from .streaming import RuleBookRefresher, StreamFollower, StreamingBitmapWindow

    window = StreamingBitmapWindow(args.follow_window)
    refresher = RuleBookRefresher(window, book, threshold=args.follow_drift)

    def print_tick(result, stats) -> None:
        line = f"FOLLOW_TICK {result}"
        if result.remined:
            line += f" saved={stats.last_book_path}"
        print(line, flush=True)
        if args.profile:
            print(result.stats.render(profile=True), flush=True)

    def make_follower(port: int) -> StreamFollower:
        return StreamFollower(
            refresher,
            args.follow,
            host=args.host,
            port=port,
            out_dir=args.follow_out,
            interval_s=args.follow_interval,
            min_events=args.follow_min_events,
            on_tick=print_tick,
        )

    async def run() -> "object":
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        if args.shards > 1:
            from .serve.shard import ShardCluster

            cluster = ShardCluster(
                args.rulebook,
                args.shards,
                book=book,
                host=args.host,
                port=args.port,
                max_queue=args.max_queue,
                max_batch=args.max_batch,
                request_timeout_s=args.request_timeout,
            )
            await cluster.start()
            print(cluster.describe(), flush=True)
            print(f"FOLLOW_READY stream={args.follow}", flush=True)
            try:
                return await make_follower(cluster.port).run(stop)
            finally:
                await cluster.shutdown()
        service = RuleService.from_rulebook(
            book, max_queue=args.max_queue, max_batch=args.max_batch
        )
        # start, not serve_forever: this function owns SIGTERM/SIGINT,
        # and serve_forever's own handlers would replace its stop.set
        await service.start(args.host, args.port)
        print(
            f"SERVICE_READY host={args.host} port={service.port}\n"
            f"FOLLOW_READY stream={args.follow}",
            flush=True,
        )
        try:
            return await make_follower(service.port).run(stop)
        finally:
            await service.shutdown()

    print(
        f"serving {book.provenance()}\n"
        f"follow mode: window={window.window_size} "
        f"interval={args.follow_interval}s drift>={args.follow_drift} — "
        f"SIGTERM/Ctrl-C drains and exits",
        flush=True,
    )
    stats = asyncio.run(run())
    return (
        f"{stats.render()}\n"
        f"final book v{refresher.version} ({len(refresher.book)} rules)"
    )


def cmd_reload_rulebook(args: argparse.Namespace) -> str:
    import asyncio

    from .serve.rulebook import RuleBook
    from .serve.shard import broadcast_reload

    book = RuleBook.load(args.rulebook)  # validate before telling the fleet
    result = asyncio.run(
        broadcast_reload(
            args.host,
            args.port,
            args.rulebook,
            version=args.version,
            version_tag=args.version_tag,
        )
    )
    lines = [
        f"reload {result['status']}: version={result['version']} "
        f"tag={result['version_tag'] or book.fingerprint} "
        f"n_rules={result['n_rules']}"
    ]
    if result["status"] == "ok":
        lines.append(f"  port {args.port}: ok")
    else:
        lines.append(f"  port {args.port}: FAILED ({result['error']})")
        raise ValueError("\n".join(lines))
    return "\n".join(lines)


def _iter_ndjson_transactions(path: str):
    """Yield transactions from an NDJSON file (the --follow stream format)."""
    import json

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: bad JSON ({exc})") from exc
            if isinstance(record, dict):
                record = record.get("transaction")
            if not isinstance(record, list) or not all(
                isinstance(i, str) for i in record
            ):
                raise ValueError(
                    f"{path}:{lineno}: expected a JSON array of item strings"
                )
            yield record


def cmd_match(args: argparse.Namespace) -> str:
    from .serve.index import RuleIndex
    from .serve.rulebook import RuleBook

    book = RuleBook.load(args.rulebook)
    index = RuleIndex.from_rulebook(book)
    if args.jobs is not None:
        transactions = _iter_ndjson_transactions(args.jobs)
    else:
        if args.trace is None:
            raise ValueError("match needs --trace (or --jobs NDJSON)")
        from .traces.registry import get_trace

        definition = get_trace(args.trace)
        table = _load_or_generate(args)
        db = definition.make_preprocessor().run(table).database
        transactions = db.iter_item_transactions()

    fired_counts: dict[int, int] = {}
    near_counts: dict[int, int] = {}
    n_jobs = n_covered = n_firings = 0
    if args.batch_size < 1:
        raise ValueError("--batch-size must be >= 1")
    # bulk scoring: one packed-bitmask kernel call per chunk
    transactions = iter(transactions)
    while True:
        chunk = list(itertools.islice(transactions, args.batch_size))
        if not chunk:
            break
        n_jobs += len(chunk)
        for wire in index.match_wire_batch(chunk):
            if wire:
                n_covered += 1
                n_firings += len(wire)
                for rule_id, _ in wire:
                    fired_counts[rule_id] = fired_counts.get(rule_id, 0) + 1
        if args.explain:
            for misses in index.explain_batch(chunk):
                for miss in misses:
                    near_counts[miss.rule_id] = (
                        near_counts.get(miss.rule_id, 0) + 1
                    )

    lines = [
        f"matched {n_jobs} jobs against {book.provenance()}",
        f"  {n_covered} jobs fired >= 1 rule "
        f"({n_covered / n_jobs:.1%} coverage), {n_firings} total firings"
        if n_jobs
        else "  (empty job table)",
    ]
    ranked = sorted(fired_counts.items(), key=lambda kv: (-kv[1], kv[0]))
    for rule_id, count in ranked[: args.top]:
        lines.append(f"  {count:>7}x  {index.rule_label(rule_id)}")
    if len(ranked) > args.top:
        lines.append(f"  ... and {len(ranked) - args.top} more rules")
    if args.explain and near_counts:
        lines.append("near misses (antecedent one item short):")
        near_ranked = sorted(near_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        for rule_id, count in near_ranked[: args.top]:
            lines.append(f"  {count:>7}x  {index.rule_label(rule_id)}")
    return "\n".join(lines)


def cmd_casestudy(args: argparse.Namespace) -> str:
    from .analysis.casestudies import full_case_study

    study = full_case_study(args.trace, n_jobs=args.n_jobs)
    footers = [result.stats.render(profile=args.profile) for result in study.passes]
    return "\n".join([study.render(), *footers])


def cmd_stats(args: argparse.Namespace) -> str:
    from .traces.registry import get_trace
    from .traces.stats import characterize

    definition = get_trace(args.trace)
    table = _load_or_generate(args)
    return (
        f"{definition.display_name} trace characterisation\n"
        + characterize(table).render()
    )


def cmd_insights(args: argparse.Namespace) -> str:
    from .analysis.insights import extract_insights
    from .core.mining import MiningConfig, mine_keyword_rules
    from .traces.registry import get_trace

    definition = get_trace(args.trace)
    table = _load_or_generate(args)
    db = definition.make_preprocessor().run(table).database
    result = mine_keyword_rules(db, args.keyword, MiningConfig())
    insights = extract_insights(result)
    if not insights:
        return f"no insights detected for keyword {args.keyword!r}"
    return "\n\n".join(insight.render() for insight in insights)


_COMMANDS = {
    "traces": cmd_traces,
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "mine-rulebook": cmd_mine_rulebook,
    "serve": cmd_serve,
    "reload-rulebook": cmd_reload_rulebook,
    "match": cmd_match,
    "casestudy": cmd_casestudy,
    "stats": cmd_stats,
    "insights": cmd_insights,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # honour the documented contract: argument errors *return* 2
        # (argparse has already printed the usage message); --help is 0
        return exc.code if isinstance(exc.code, int) else 2
    try:
        output = _COMMANDS[args.command](args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # e.g. serve's bind on a busy --port
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
