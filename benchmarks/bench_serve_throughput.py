"""Serving throughput — the online rule-matching subsystem under load.

Measures the two layers of the serving hot path against a 1,000-rule
RuleBook:

* **index** — raw :class:`RuleIndex.match` calls, the per-request
  compute floor;
* **service** — full round trips through the asyncio TCP service
  (NDJSON protocol, micro-batching, bounded queue) driven by the
  trace-replay load generator on concurrent connections.

The acceptance bar is >= 5,000 served match requests/s against the
1k-rule book; the index floor is typically two orders of magnitude
above that, which is the point of the inverted index — the service's
ceiling is the event loop, not the matcher.

Sharded saturation mode (``python benchmarks/bench_serve_throughput.py
--shards 4``) is the scale-out half: it spawns a real worker cluster
(the same machinery as ``repro serve --shards``), saturates it with the
multi-process load generator, compares against a single-worker baseline
on the same book, and appends a trajectory point to ``BENCH_serve.json``
so the speedup's history is tracked across PRs.  A single asyncio
process tops out near 8.5k req/s; N full-replica shards scale toward
the ROADMAP's 100k+ req/s target *on hardware with cores to spare* —
the speedup floor is therefore hardware-aware (``--min-speedup auto``):
3x for ``--shards 4`` when enough cores exist, waived (with a printed
warning) on starved CI boxes where worker processes time-slice one core.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.items import Item, ItemVocabulary
from repro.core.rules import AssociationRule
from repro.serve import (
    ReplayStats,
    RuleBook,
    RuleIndex,
    RuleService,
    replay_traffic,
)

from bench_util import write_artifact

N_RULES = 1000
N_ITEMS = 120
N_JOBS = 20_000
CONCURRENCY = 8
MIN_SERVED_RPS = 5000.0


def build_rulebook(rng: random.Random) -> RuleBook:
    """A 1k-rule book over a trace-sized vocabulary (~120 items)."""
    vocabulary = ItemVocabulary(
        Item(f"Feature{k % 24}", f"Bin{k // 24}") for k in range(N_ITEMS)
    )
    rules = []
    seen = set()
    while len(rules) < N_RULES:
        # antecedents of 2-4 items, like mined rules under a max_len
        # bound — single-item antecedents would fire ~half the book on
        # every job, which no real trace rule set does
        size = rng.randint(3, 5)
        ids = rng.sample(range(N_ITEMS), size)
        cut = rng.randint(2, size - 1)
        antecedent = frozenset(ids[:cut])
        consequent = frozenset(ids[cut:])
        if (antecedent, consequent) in seen:
            continue
        seen.add((antecedent, consequent))
        rules.append(
            AssociationRule(
                antecedent=vocabulary.items_of(antecedent),
                consequent=vocabulary.items_of(consequent),
                antecedent_ids=antecedent,
                consequent_ids=consequent,
                support=rng.uniform(0.05, 0.5),
                confidence=rng.uniform(0.3, 1.0),
                lift=rng.uniform(1.5, 8.0),
                leverage=rng.uniform(0.0, 0.2),
                conviction=rng.uniform(1.0, 5.0),
            )
        )
    return RuleBook(rules=rules, trace="synthetic-bench")


def build_jobs(rng: random.Random, n_jobs: int) -> list[list[str]]:
    """Jobs shaped like preprocessed trace transactions (~10-16 items)."""
    items = [
        str(Item(f"Feature{k % 24}", f"Bin{k // 24}")) for k in range(N_ITEMS)
    ]
    return [
        rng.sample(items, rng.randint(10, 16)) for _ in range(n_jobs)
    ]


@pytest.fixture(scope="module")
def serving_fixture():
    rng = random.Random(20240)
    book = build_rulebook(rng)
    jobs = build_jobs(rng, N_JOBS)
    return book, jobs


def test_index_match_floor(benchmark, serving_fixture):
    """Raw index matching: the compute cost per request, no I/O."""
    book, jobs = serving_fixture
    index = RuleIndex.from_rulebook(book)
    sample = jobs[:2000]

    def match_all():
        return sum(len(index.match(job)) for job in sample)

    fired = benchmark.pedantic(match_all, rounds=3, iterations=1)
    per_job_us = benchmark.stats.stats.mean / len(sample) * 1e6
    write_artifact(
        "serve_index_floor.txt",
        f"RuleIndex.match over {len(book)} rules "
        f"({index.n_postings} postings): {per_job_us:.1f}us/job, "
        f"{fired / len(sample):.1f} rules fired/job\n",
    )
    assert fired > 0


def test_service_throughput(benchmark, serving_fixture):
    """Full service round trips must sustain >= 5k match requests/s."""
    book, jobs = serving_fixture
    stats_box = {}

    def run_load():
        async def scenario():
            service = RuleService.from_rulebook(
                book, max_queue=4096, max_batch=128
            )
            await service.start(port=0)
            try:
                stats = await replay_traffic(
                    "127.0.0.1",
                    service.port,
                    jobs,
                    concurrency=CONCURRENCY,
                )
            finally:
                await service.shutdown()
            return stats, service.metrics

        stats, metrics = asyncio.run(scenario())
        stats_box["stats"] = stats
        stats_box["metrics"] = metrics
        return stats

    stats = benchmark.pedantic(run_load, rounds=1, iterations=1)
    metrics = stats_box["metrics"]
    latency = metrics.latency
    report = "\n".join(
        [
            f"rule-serving throughput — {N_RULES} rules, {N_JOBS} jobs, "
            f"{CONCURRENCY} connections",
            f"  {stats.render()}",
            f"  batches: {metrics.n_batches} "
            f"({metrics.n_matched / max(metrics.n_batches, 1):.1f} req/batch)",
            f"  latency p50 {latency.quantile(0.5) * 1e3:.3f}ms  "
            f"p99 {latency.quantile(0.99) * 1e3:.3f}ms",
            "",
        ]
    )
    print("\n" + report)
    write_artifact("serve_throughput.txt", report)
    assert stats.n_requests == N_JOBS
    assert stats.n_failed == 0
    assert stats.requests_per_second >= MIN_SERVED_RPS, (
        f"served {stats.requests_per_second:,.0f} req/s, "
        f"need >= {MIN_SERVED_RPS:,.0f}"
    )


# -- sharded saturation mode (CLI) ---------------------------------------------
def _replay_in_process(host: str, port: int, jobs, concurrency: int):
    """Child-process entry for :func:`replay_traffic_multiprocess`."""
    return asyncio.run(
        replay_traffic(host, port, jobs, concurrency=concurrency)
    )


def replay_traffic_multiprocess(
    host: str, port: int, jobs, *, processes: int, concurrency: int
) -> ReplayStats:
    """Saturation load generation: :func:`replay_traffic` across processes.

    A single asyncio load generator tops out on its own core well before
    a multi-shard service does, which would make the generator — not the
    cluster — the thing this benchmark measures.  The jobs are split
    over *processes* spawned workers, each running its own event loop;
    ``seconds`` is the parent's wall clock around the whole fan-out.
    """
    if processes <= 1:
        return _replay_in_process(host, port, jobs, concurrency)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    stats = ReplayStats()
    started = time.perf_counter()
    # spawn, not fork: the caller holds a live event loop in another thread
    with ProcessPoolExecutor(
        max_workers=processes, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        parts = [
            pool.submit(_replay_in_process, host, port, share, concurrency)
            for share in (jobs[i::processes] for i in range(processes))
            if share
        ]
        for future in parts:
            part = future.result()
            stats.n_requests += part.n_requests
            stats.n_fired += part.n_fired
            stats.n_retried += part.n_retried
            stats.n_failed += part.n_failed
            for rule_id, count in part.fired_rules.items():
                fired = stats.fired_rules
                fired[rule_id] = fired.get(rule_id, 0) + count
    stats.seconds = time.perf_counter() - started
    return stats


async def _measure_single(
    book_path: str, jobs, *, concurrency: int, client_procs: int
):
    """Baseline: one worker process, no router — PR 2's deployment."""
    from repro.serve.shard import ShardProcess

    worker = ShardProcess("single", book_path, max_queue=4096, max_batch=128)
    await worker.spawn()
    try:
        return await asyncio.to_thread(
            replay_traffic_multiprocess,
            "127.0.0.1",
            worker.port,
            jobs,
            processes=client_procs,
            concurrency=concurrency,
        )
    finally:
        await worker.stop()


async def _measure_cluster(
    book_path: str,
    jobs,
    *,
    shards: int,
    mode: str,
    lb_policy: str,
    concurrency: int,
    client_procs: int,
):
    from repro.serve.shard import ShardCluster

    cluster = ShardCluster(
        book_path,
        shards,
        mode=mode,
        lb_policy=lb_policy,
        max_queue=4096,
        max_batch=128,
    )
    await cluster.start()
    try:
        return await asyncio.to_thread(
            replay_traffic_multiprocess,
            cluster.host,
            cluster.port,
            jobs,
            processes=client_procs,
            concurrency=concurrency,
        )
    finally:
        await cluster.shutdown()


def _resolve_min_speedup(value: str, shards: int, client_procs: int) -> float:
    """Hardware-aware speedup floor.

    N shards can only beat one shard when the machine has cores for the
    workers *and* the load generator; on a starved box every process
    time-slices the same core and the router hop is pure overhead, so
    enforcing a floor there would only measure the CI machine.
    """
    if value != "auto":
        return float(value)
    cores = os.cpu_count() or 1
    needed = shards + 1 + client_procs  # workers + router/parent + load
    if cores >= needed:
        return 3.0 if shards >= 4 else max(1.0, shards * 0.75)
    print(
        f"note: {cores} core(s) for {needed} processes — shards "
        "time-slice instead of parallelise; speedup floor waived "
        "(pass --min-speedup to force one)",
        flush=True,
    )
    return 0.0


def _append_trajectory(output: Path, point: dict) -> None:
    """BENCH_serve.json keeps every recorded point, newest last."""
    if output.exists():
        doc = json.loads(output.read_text())
    else:
        doc = {
            "benchmark": "serve_throughput",
            "description": (
                "multi-shard serving saturation vs single-process "
                "baseline; one trajectory point per recorded run"
            ),
            "trajectory": [],
        }
    doc["trajectory"].append(point)
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="multi-shard rule-serving saturation benchmark"
    )
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument(
        "--mode", choices=["router", "reuseport"], default="router"
    )
    parser.add_argument("--lb-policy", default="round_robin")
    parser.add_argument("--n-jobs", type=int, default=N_JOBS)
    parser.add_argument("--concurrency", type=int, default=CONCURRENCY,
                        help="connections per load-generator process")
    parser.add_argument("--client-procs", type=int, default=None,
                        help="load-generator processes "
                             "(default: 2 with cores to spare, else 1)")
    parser.add_argument("--min-speedup", default="auto",
                        help="required sharded/single ratio; 'auto' waives "
                             "the floor on core-starved machines")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parents[1]
                        / "BENCH_serve.json")
    args = parser.parse_args(argv)

    cores = os.cpu_count() or 1
    client_procs = args.client_procs
    if client_procs is None:
        client_procs = 2 if cores >= args.shards + 3 else 1
    min_speedup = _resolve_min_speedup(
        args.min_speedup, args.shards, client_procs
    )

    rng = random.Random(20240)
    book = build_rulebook(rng)
    jobs = build_jobs(rng, args.n_jobs)
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        book_path = str(Path(tmp) / "bench.rulebook.jsonl")
        book.save(book_path)

        print(
            f"single-process baseline: {len(book)} rules, "
            f"{len(jobs)} jobs, {client_procs}x{args.concurrency} clients",
            flush=True,
        )
        single = asyncio.run(
            _measure_single(
                book_path,
                jobs,
                concurrency=args.concurrency,
                client_procs=client_procs,
            )
        )
        print(f"  {single.render()}", flush=True)

        print(
            f"sharded: {args.shards} workers, {args.mode} mode"
            + (f", {args.lb_policy}" if args.mode == "router" else ""),
            flush=True,
        )
        sharded = asyncio.run(
            _measure_cluster(
                book_path,
                jobs,
                shards=args.shards,
                mode=args.mode,
                lb_policy=args.lb_policy,
                concurrency=args.concurrency,
                client_procs=client_procs,
            )
        )
        print(f"  {sharded.render()}", flush=True)

    if single.n_failed or sharded.n_failed:
        print(
            f"FAIL: dropped requests (single={single.n_failed}, "
            f"sharded={sharded.n_failed})",
            flush=True,
        )
        return 1
    speedup = (
        sharded.requests_per_second / single.requests_per_second
        if single.requests_per_second
        else 0.0
    )
    print(
        f"speedup: {speedup:.2f}x "
        f"({sharded.requests_per_second:,.0f} vs "
        f"{single.requests_per_second:,.0f} req/s) on {cores} core(s)",
        flush=True,
    )

    point = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": cores,
        "n_rules": len(book),
        "n_jobs": len(jobs),
        "shards": args.shards,
        "mode": args.mode,
        "lb_policy": args.lb_policy if args.mode == "router" else None,
        "concurrency": args.concurrency,
        "client_procs": client_procs,
        "single_rps": round(single.requests_per_second, 1),
        "sharded_rps": round(sharded.requests_per_second, 1),
        "speedup": round(speedup, 3),
        "min_speedup_enforced": min_speedup,
    }
    _append_trajectory(args.output, point)
    print(f"trajectory point appended to {args.output}", flush=True)

    if speedup < min_speedup:
        print(
            f"FAIL: speedup {speedup:.2f}x < required {min_speedup:.2f}x",
            flush=True,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
