"""Shared-memory hot-swap — fleet flip latency and per-shard memory.

Before the shm rule plane, a fleet hot-swap cost every shard the same
work: parse the rulebook JSON, canonical-sort the table, pack the
bitmask matrices, encode the wire fragments.  With the plane, the
cluster parent compiles and publishes *once* and each shard attaches
read-only zero-copy views in milliseconds (DESIGN.md §14).

This benchmark measures both sides of that claim at 1/2/4 shards:

* **per-shard swap latency** — a real worker cluster is started, then
  each worker is told to reload directly (its service port doubles as
  a control port), once shipping a published segment name and once
  shipping only the rulebook path (the cluster's shared-memory probe
  patched off, as on a host without POSIX shared memory).  The per-shard
  figure is the mean per-worker flip round trip; the shm mode also
  reports the parent's one-time publish cost honestly.
* **per-shard RSS** — ``VmRSS`` of every worker (after a few matches
  fault in the working set) in both modes.  Attached mask/column pages
  are *shared* — N shards map one copy — while per-worker compilation
  duplicates them into every heap.  Note ``VmRSS`` counts shared
  resident pages too, so at bench-sized books the columns read
  near-equal; the structural N-to-1 win is in *unique* memory (PSS)
  and grows with rulebook size.

Results land in the ``hot_swap`` section of ``BENCH_serve.json``; the
acceptance bar is >= 5x lower per-shard swap latency with shm at 4
shards.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
from itertools import chain
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.core.items import Item, ItemVocabulary
from repro.core.ruletable import RuleTable
from repro.serve import RuleBook
from repro.serve.shard import ShardCluster, send_control
from repro.shm import list_segments

REPO_ROOT = Path(__file__).resolve().parents[1]
SERVE_JSON = REPO_ROOT / "BENCH_serve.json"

N_RULES = 2000
N_ITEMS = 120


def build_rulebook(rng: random.Random, n_rules: int = N_RULES) -> RuleBook:
    """A mined-shaped book big enough that compilation is visible."""
    vocabulary = ItemVocabulary(
        Item(f"Feature{k % 24}", f"Bin{k // 24}") for k in range(N_ITEMS)
    )
    # (antecedent ids, consequent ids) → metrics in METRIC_COLUMNS order;
    # the table is built from these columns, with no rule objects
    rules: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[float, ...]] = {}
    while len(rules) < n_rules:
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


def vmrss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


async def _warm_workers(cluster: ShardCluster, jobs: list[list[str]]) -> None:
    """Fault the match working set into every worker."""
    for worker in cluster.workers:
        for job in jobs:
            await send_control(
                "127.0.0.1",
                worker.port,
                {"type": "match", "transaction": job},
            )


async def _measure_mode(
    *,
    shards: int,
    use_shm: bool,
    book1_path: str,
    book2_path: str,
    jobs: list[list[str]],
) -> dict:
    """One cluster lifetime: start, warm, flip every worker, read RSS."""
    cluster = ShardCluster(book1_path, shards)
    await cluster.start()
    lease = None
    try:
        await _warm_workers(cluster, jobs)
        publish_s = None
        payload: dict = {"type": "reload", "rulebook": book2_path, "version": 2}
        if use_shm:
            t0 = time.perf_counter()
            lease = await asyncio.to_thread(cluster._publish_plane, book2_path)
            publish_s = time.perf_counter() - t0
            assert lease is not None, "shm unavailable on this host"
            payload["segment"] = lease.name
        per_worker_s = []
        sources = set()
        for worker in cluster.workers:
            t0 = time.perf_counter()
            result = await send_control("127.0.0.1", worker.port, payload)
            per_worker_s.append(time.perf_counter() - t0)
            assert result.get("type") == "reload_result", result
            sources.add(result.get("source"))
        expected_source = "segment" if use_shm else "path"
        assert sources == {expected_source}, sources
        await _warm_workers(cluster, jobs)
        rss_kb = [vmrss_kb(w.pid) for w in cluster.workers]
        return {
            "shards": shards,
            "publish_s": publish_s,
            "per_shard_swap_s": sum(per_worker_s) / len(per_worker_s),
            "total_swap_s": sum(per_worker_s)
            + (publish_s if publish_s else 0.0),
            "worker_rss_kb_mean": sum(rss_kb) / len(rss_kb),
            "worker_rss_kb": rss_kb,
        }
    finally:
        if lease is not None:
            # the cluster tracks its own initial lease; this one is ours
            await cluster.shutdown()
            lease.unlink()
        else:
            await cluster.shutdown()


async def measure_hot_swap(shard_counts: list[int]) -> list[dict]:
    rng = random.Random(424242)
    book1 = build_rulebook(rng)
    book2 = build_rulebook(rng)
    jobs = [
        rng.sample(
            [str(Item(f"Feature{k % 24}", f"Bin{k // 24}")) for k in range(N_ITEMS)],
            rng.randint(10, 16),
        )
        for _ in range(20)
    ]
    points = []
    with tempfile.TemporaryDirectory(prefix="bench-shm-swap-") as tmp:
        p1 = str(Path(tmp) / "book1.jsonl")
        p2 = str(Path(tmp) / "book2.jsonl")
        book1.save(p1)
        book2.save(p2)
        for shards in shard_counts:
            shm = await _measure_mode(
                shards=shards, use_shm=True,
                book1_path=p1, book2_path=p2, jobs=jobs,
            )
            # the parent publishes no plane, so every worker compiles
            with mock.patch(
                "repro.serve.shard.shm_available", return_value=False
            ):
                per_worker = await _measure_mode(
                    shards=shards, use_shm=False,
                    book1_path=p1, book2_path=p2, jobs=jobs,
                )
            ratio = per_worker["per_shard_swap_s"] / shm["per_shard_swap_s"]
            point = {
                "shards": shards,
                "shm": shm,
                "per_worker": per_worker,
                "per_shard_latency_ratio": ratio,
            }
            points.append(point)
            print(
                f"shards={shards}: per-shard swap "
                f"{shm['per_shard_swap_s'] * 1e3:.1f}ms (shm, publish "
                f"{shm['publish_s'] * 1e3:.0f}ms once) vs "
                f"{per_worker['per_shard_swap_s'] * 1e3:.1f}ms "
                f"(per-worker compile) — {ratio:.1f}x; RSS "
                f"{shm['worker_rss_kb_mean'] / 1024:.1f}MB vs "
                f"{per_worker['worker_rss_kb_mean'] / 1024:.1f}MB per shard",
                flush=True,
            )
            leaked = list_segments()
            assert not leaked, f"leaked segments: {leaked}"
    return points


def _merge_section(path: Path, key: str, value, *, default_doc: dict) -> None:
    doc = json.loads(path.read_text()) if path.exists() else dict(default_doc)
    doc[key] = value
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="shared-memory hot-swap latency / RSS benchmark"
    )
    parser.add_argument(
        "--shards", type=int, nargs="+", default=[1, 2, 4],
        help="shard counts to sweep",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=5.0,
        help="required per-shard latency ratio at the highest shard "
             "count (0 waives the floor)",
    )
    args = parser.parse_args(argv)

    points = asyncio.run(measure_hot_swap(args.shards))
    _merge_section(
        SERVE_JSON,
        "hot_swap",
        {
            "description": (
                "fleet hot-swap: per-shard flip latency and worker RSS, "
                "shared-memory rule plane (publish once, attach "
                "everywhere) vs per-worker recompilation"
            ),
            "n_rules": N_RULES,
            "points": points,
        },
        default_doc={"benchmark": "serve_throughput"},
    )
    print(f"wrote hot_swap section ({len(points)} points) to {SERVE_JSON}")

    top = points[-1]
    if args.min_ratio and top["shards"] >= max(args.shards):
        ratio = top["per_shard_latency_ratio"]
        if ratio < args.min_ratio:
            print(
                f"FAIL: per-shard swap ratio {ratio:.1f}x at "
                f"{top['shards']} shards is below the {args.min_ratio}x bar"
            )
            return 1
        print(
            f"PASS: per-shard swap {ratio:.1f}x faster with shm at "
            f"{top['shards']} shards (bar: {args.min_ratio}x)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
