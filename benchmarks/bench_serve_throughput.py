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

Run with ``pytest benchmarks/bench_serve_throughput.py``.  The sharded
deployment (a router over two shard processes, with answer checks) is
measured end to end by ``benchmarks/e2e`` (workload
``serve-philly-follow``).
"""

from __future__ import annotations

import asyncio
import random
from itertools import chain

import numpy as np
import pytest

from repro.core.items import Item, ItemVocabulary
from repro.core.ruletable import RuleTable
from repro.serve import RuleBook, RuleIndex, RuleService, replay_traffic

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
    # (antecedent ids, consequent ids) → metrics in METRIC_COLUMNS order;
    # the table is built from these columns, with no rule objects
    rules: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, ...]] = {}
    while len(rules) < N_RULES:
        # antecedents of 2-4 items, like mined rules under a max_len
        # bound — single-item antecedents would fire ~half the book on
        # every job, which no real trace rule set does
        size = rng.randint(3, 5)
        ids = rng.sample(range(N_ITEMS), size)
        cut = rng.randint(2, size - 1)
        sides = (tuple(sorted(ids[:cut])), tuple(sorted(ids[cut:])))
        if sides in rules:
            continue
        rules[sides] = (
            rng.uniform(0.05, 0.5),  # support
            rng.uniform(0.3, 1.0),  # confidence
            rng.uniform(1.5, 8.0),  # lift
            rng.uniform(0.0, 0.2),  # leverage
            rng.uniform(1.0, 5.0),  # conviction
        )
    antecedents, consequents = zip(*rules)
    table = RuleTable(
        vocabulary,
        np.cumsum([0, *map(len, antecedents)]), list(chain.from_iterable(antecedents)),
        np.cumsum([0, *map(len, consequents)]), list(chain.from_iterable(consequents)),
        *np.array(list(rules.values())).T,
    )
    return RuleBook(table, trace="synthetic-bench")


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
