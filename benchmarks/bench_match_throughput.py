"""Match-kernel throughput — the packed-bitmask kernel, one job vs batches.

Every request the service answers goes through one path: the
packed-bitmask kernel (:mod:`repro.serve.batchmatch`) resolves a whole
micro-batch in a few NumPy passes, and each ``match_result`` line is
joined from the index's pre-encoded fragment bytes
(:meth:`RuleIndex.wire_batch`).  A lone request is a batch of one.

Two modes:

* ``--check-only`` — brute force vs the served path on a
  1,000-transaction replay that includes empty jobs, duplicate items
  and unknown vocabulary.  The service's batcher answers the replay in
  batches of 1, in batches of 64, and in batches of 64 with ``explain``
  on; every answer must equal brute force (fired ids, ranking,
  consequent flags, near misses and their missing items), and a job's
  line must be the same bytes whatever batch it was answered in.
  Exit 1 on any divergence.
* measured (default) — single-process jobs/s for one job at a time
  (:meth:`RuleIndex.match_wire`) and for the kernel at several
  micro-batch sizes, with per-batch latency percentiles; results land
  in the ``match_kernel`` section of ``BENCH_serve.json``.

CI runs with ``--min-speedup 0`` and only enforces equality, because
shared runners measure the neighbour's workload, not the kernel.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_serve_throughput import N_JOBS, N_RULES, build_jobs
from bench_util import build_rulebook

from repro.core.items import as_item
from repro.serve import RuleIndex, RuleService

BATCH_SIZES = (16, 64, 256, 1024)
N_CHECK_JOBS = 1000


def build_mixed_jobs(rng: random.Random, n_jobs: int) -> list[list[str]]:
    """Trace-shaped jobs plus the awkward cases the kernel must survive."""
    jobs = build_jobs(rng, n_jobs)
    for i, job in enumerate(jobs):
        if i % 17 == 0:
            job.append(f"Unknown Feature = {i}")  # outside the vocabulary
        if i % 13 == 0 and job:
            job.append(job[0])  # duplicate item
        if i % 29 == 0:
            jobs[i] = []  # empty transaction
    return jobs


def brute_force(index: RuleIndex, job: list[str]) -> tuple[list, list]:
    """Reference semantics by set inclusion over every rule, ids ascending.

    Returns ``(fired, near)``: ``(rule_id, consequent_observed)`` per
    rule whose antecedent the job covers, and ``(rule_id, missing
    render)`` per rule of two or more antecedent items that misses
    exactly one.
    """
    items = {as_item(text) for text in job}
    fired, near = [], []
    for rule_id, rule in enumerate(index.rules):
        missing = rule.antecedent - items
        if not missing:
            fired.append((rule_id, rule.consequent <= items))
        elif len(missing) == 1 and len(rule.antecedent) >= 2:
            (item,) = missing
            near.append((rule_id, item.render()))
    return fired, near


def served_lines(
    index: RuleIndex, jobs: list[list[str]], batch_size: int, explain: bool
) -> list[bytes]:
    """Answer *jobs* through the service's batcher, *batch_size* at a time."""
    service = RuleService(index)

    async def scenario() -> list[bytes]:
        loop = asyncio.get_running_loop()
        lines: list[bytes] = []
        for lo in range(0, len(jobs), batch_size):
            batch = [
                (
                    {"id": lo + k, "transaction": job, "explain": explain},
                    time.perf_counter(),
                    loop.create_future(),
                )
                for k, job in enumerate(jobs[lo : lo + batch_size])
            ]
            await service._process_batch(batch)
            lines += [future.result() for _, _, future in batch]
        return lines

    return asyncio.run(scenario())


def check_equality(index: RuleIndex, jobs: list[list[str]]) -> int:
    """Brute force vs the served path; returns the number of divergences."""
    failures = 0
    one = served_lines(index, jobs, 1, explain=False)
    many = served_lines(index, jobs, 64, explain=False)
    explained = served_lines(index, jobs, 64, explain=True)
    n_fired = n_near = 0
    for i, job in enumerate(jobs):
        fired, near = brute_force(index, job)
        if one[i] != many[i]:
            failures += 1
            print(f"DIVERGE batch-of-1 vs batch-of-64 bytes, job={i}")
            continue
        for kind, line in (("match", many[i]), ("explain", explained[i])):
            response = json.loads(line)
            got = [
                (f["rule_id"], f["consequent_observed"])
                for f in response["fired"]
            ]
            if got != fired:
                failures += 1
                print(f"DIVERGE {kind} fired job={i}")
        got_near = [
            (n["rule_id"], n["missing"])
            for n in json.loads(explained[i])["near_misses"]
        ]
        if got_near != near:
            failures += 1
            print(f"DIVERGE near misses job={i}")
        n_fired += len(fired)
        n_near += len(near)
    print(
        f"equality sweep: {len(jobs)} jobs x 3 passes, {n_fired} firings, "
        f"{n_near} near-misses, {failures} divergences"
    )
    if not n_fired or not n_near:
        print("FAIL: sweep never exercised firings and near-misses")
        return failures + 1
    return failures


def measure_one_job(index: RuleIndex, jobs: list[list[str]]) -> float:
    start = time.perf_counter()
    for job in jobs:
        index.match_wire(job)
    return len(jobs) / (time.perf_counter() - start)


def measure_batch(
    index: RuleIndex, jobs: list[list[str]], batch_size: int
) -> dict:
    latencies: list[float] = []
    start = time.perf_counter()
    for lo in range(0, len(jobs), batch_size):
        t0 = time.perf_counter()
        index.match_wire_batch(jobs[lo : lo + batch_size])
        latencies.append(time.perf_counter() - t0)
    rps = len(jobs) / (time.perf_counter() - start)
    quantiles = statistics.quantiles(latencies, n=100)
    return {
        "batch_size": batch_size,
        "rps": round(rps, 1),
        "p50_ms": round(quantiles[49] * 1e3, 4),
        "p99_ms": round(quantiles[98] * 1e3, 4),
    }


def update_bench_doc(output: Path, section: dict) -> None:
    """Write the ``match_kernel`` section, keeping the others."""
    if output.exists():
        doc = json.loads(output.read_text())
    else:
        doc = {"benchmark": "serve_throughput"}
    doc["match_kernel"] = section
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="match kernel throughput, one job vs micro-batches"
    )
    parser.add_argument("--check-only", action="store_true",
                        help="run the equality sweep and exit")
    parser.add_argument("--n-jobs", type=int, default=N_JOBS)
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="required best-batch/one-job ratio "
                             "(0 = record only; use 2 on a quiet dev box)")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parents[1]
                        / "BENCH_serve.json")
    args = parser.parse_args(argv)

    rng = random.Random(20240)
    book = build_rulebook(rng, N_RULES)
    index = RuleIndex.from_rulebook(book)

    if args.check_only:
        jobs = build_mixed_jobs(rng, N_CHECK_JOBS)
        failures = check_equality(index, jobs)
        if failures:
            print(f"FAIL: {failures} divergences")
            return 1
        print("ok: served answers equal brute force in every batch shape")
        return 0

    jobs = build_jobs(rng, args.n_jobs)
    print(
        f"match kernel: {len(book)} rules "
        f"({index.kernel.n_words} mask words), {len(jobs)} jobs",
        flush=True,
    )
    one_job_rps = measure_one_job(index, jobs)
    print(f"  one job at a time: {one_job_rps:,.0f} jobs/s", flush=True)

    batches = []
    for batch_size in BATCH_SIZES:
        result = measure_batch(index, jobs, batch_size)
        result["speedup"] = round(result["rps"] / one_job_rps, 3)
        batches.append(result)
        print(
            f"  batch={batch_size:<5} {result['rps']:>10,.0f} jobs/s "
            f"({result['speedup']:.2f}x)  "
            f"p50 {result['p50_ms']:.3f}ms  p99 {result['p99_ms']:.3f}ms",
            flush=True,
        )
    best = max(batches, key=lambda r: r["rps"])
    print(
        f"best: batch={best['batch_size']} at {best['rps']:,.0f} jobs/s "
        f"= {best['speedup']:.2f}x one job at a time",
        flush=True,
    )

    section = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cpu_count": os.cpu_count() or 1,
        "n_rules": len(book),
        "n_jobs": len(jobs),
        "one_job_rps": round(one_job_rps, 1),
        "batches": batches,
        "best_batch_size": best["batch_size"],
        "best_speedup": best["speedup"],
        "min_speedup_enforced": args.min_speedup,
    }
    update_bench_doc(args.output, section)
    print(f"match_kernel section written to {args.output}", flush=True)

    if best["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {best['speedup']:.2f}x < required "
            f"{args.min_speedup:.2f}x",
            flush=True,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
