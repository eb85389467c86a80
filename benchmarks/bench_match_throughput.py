"""Match-kernel throughput — the packed-bitmask kernel, one job vs batches.

Every request the service answers goes through one path: the
packed-bitmask kernel (:mod:`repro.serve.batchmatch`) resolves a whole
micro-batch in a few NumPy passes, and each ``match_result`` line is
joined from the index's pre-encoded fragment bytes
(:meth:`RuleIndex.wire_batch`).  A lone request is a batch of one.

Measures single-process jobs/s for one job at a time
(:meth:`RuleIndex.match_wire`) and for the kernel at several micro-batch
sizes, with per-batch latency percentiles; results land in the
``match_kernel`` section of ``BENCH_serve.json``.  Served answers in
every batch shape are checked against brute force by
``tests/test_serve_service.py::TestBatchShapesVsBruteForce``.

CI runs with ``--min-speedup 0``, because shared runners measure the
neighbour's workload, not the kernel.
"""

from __future__ import annotations

import argparse
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

from repro.serve import RuleIndex

BATCH_SIZES = (16, 64, 256, 1024)


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
