"""Streaming-mining throughput — delta-maintained window vs full remine.

Measures the two costs that decide whether ``repro serve --follow`` can
hold its cadence:

* **ingest** — sustained events/s into the
  :class:`~repro.streaming.StreamingBitmapWindow` (granule packing,
  incremental per-item popcounts);
* **per-tick refresh** — the incremental path a hold tick runs
  (maintained tracked-itemset counts + :meth:`MiningEngine.recount_rules`
  + the drift gate) against the full remine the gate avoids
  (snapshot → mine → keyword rule generation, one real pass per tick).

The operating point is the acceptance bar: a 100k-transaction window
advanced by <= 1k-event deltas per tick, where the incremental tick must
be >= 5x faster than remining the window (``--min-speedup``).  Results
append a trajectory point to ``BENCH_stream.json`` and a human-readable
report to ``benchmarks/output/stream_throughput.txt``.

``--check-only`` is the CI equality sweep: on all three traces (PAI,
Philly, SuperCloud) the window's maintained item and tracked-itemset
counts must equal ground-truth :class:`PackedBitmaps` popcounts over its
own snapshot, and the incremental recount of a freshly-remined book must
reproduce the book's five metric columns bit-for-bit — through further
stream advance, granule eviction and a rebase.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream_throughput.py \
        [--window 100000] [--delta 1000] [--ticks 5] [--min-speedup 5]
    PYTHONPATH=src python benchmarks/bench_stream_throughput.py \
        --check-only [--n-jobs 800]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from bench_util import write_artifact  # noqa: E402

from repro.core import MiningConfig, mine_frequent_itemsets  # noqa: E402
from repro.core.bitmap import PackedBitmaps  # noqa: E402
from repro.core.mining import keyword_rule_set  # noqa: E402
from repro.streaming import RuleBookRefresher, StreamingBitmapWindow  # noqa: E402
from repro.traces import (  # noqa: E402
    PAI_KEYWORDS,
    PAIConfig,
    PHILLY_KEYWORDS,
    PhillyConfig,
    SUPERCLOUD_KEYWORDS,
    SuperCloudConfig,
    generate_pai,
    generate_philly,
    generate_supercloud,
    pai_preprocessor,
    philly_preprocessor,
    supercloud_preprocessor,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_stream.json"

_TRACES = {
    "pai": (generate_pai, PAIConfig, pai_preprocessor, PAI_KEYWORDS),
    "philly": (generate_philly, PhillyConfig, philly_preprocessor, PHILLY_KEYWORDS),
    "supercloud": (
        generate_supercloud,
        SuperCloudConfig,
        supercloud_preprocessor,
        SUPERCLOUD_KEYWORDS,
    ),
}

#: a threshold above 1 means the drift gate never opens — measured ticks
#: stay on the incremental path and the full remine is timed separately
HOLD = 2.0


def _encoded_transactions(db) -> list[np.ndarray]:
    """The database's rows as sorted id arrays the window can ingest."""
    indptr, indices = db.indptr, db.indices
    return [
        np.sort(indices[indptr[i]: indptr[i + 1]]) for i in range(len(db))
    ]


def _full_remine(window, keywords, config):
    """The work a remine tick does (sans book assembly): the baseline."""
    itemsets = mine_frequent_itemsets(window.snapshot(), config)
    n_rules = 0
    for keyword in keywords.values():
        ruleset = keyword_rule_set(itemsets, keyword, config)
        if ruleset.table is not None:
            n_rules += len(ruleset.table)
    return n_rules


# -- check-only: the CI equality sweep -----------------------------------------
def _assert_counts_match_bitmaps(window, label: str) -> None:
    """Maintained item + tracked counts == popcounts over the snapshot."""
    bitmaps = PackedBitmaps.from_database(window.snapshot())
    assert np.array_equal(
        window.item_support_counts()[: len(window.vocabulary)],
        bitmaps.item_counts(),
    ), f"{label}: maintained item counts drifted from bitmap popcounts"
    indptr, ids = window._tracked_indptr, window._tracked_ids
    expected = [
        bitmaps.support_count([int(x) for x in ids[indptr[k]: indptr[k + 1]]])
        for k in range(window.n_tracked)
    ]
    assert window.tracked_counts().tolist() == expected, (
        f"{label}: maintained tracked-itemset counts drifted"
    )


def _assert_recount_bit_identical(refresher, label: str) -> None:
    """A tick right after a remine must reproduce the book's metrics."""
    result = refresher.tick()
    assert not result.remined, f"{label}: hold tick unexpectedly remined"
    book_table = refresher.book.table
    assert len(result.recounted) == len(book_table), (
        f"{label}: recount row count differs from the book"
    )
    for name in ("support", "confidence", "lift", "leverage", "conviction"):
        ours = getattr(result.recounted, name)
        theirs = getattr(book_table, name)
        assert np.array_equal(ours, theirs, equal_nan=True), (
            f"{label}: recounted {name} not bit-identical to the remine"
        )


def check_stream_sweep(n_jobs: int) -> None:
    """Equality sweep over all three traces.

    Streams each preprocessed trace through a window small enough to
    force granule eviction, bootstraps a book from it, then interleaves
    further advance with three assertions: maintained counts == bitmap
    popcounts, hold ticks never remine, and the recount of a
    just-remined book is bit-identical to the remine itself.
    """
    config = MiningConfig()
    for trace, (generate, trace_config, preprocessor, keywords) in (
        _TRACES.items()
    ):
        db = preprocessor().run(generate(trace_config(n_jobs=n_jobs))).database
        txns = _encoded_transactions(db)
        warm = (3 * len(txns)) // 4
        window = StreamingBitmapWindow(
            max(64, warm // 2), vocabulary=db.vocabulary
        )
        window.extend_encoded(txns[:warm])
        refresher = RuleBookRefresher.bootstrap(
            window,
            dict(keywords),
            config,
            threshold=HOLD,
            trace=trace,
        )
        assert len(refresher.book) > 0, f"{trace}: bootstrap mined no rules"
        _assert_counts_match_bitmaps(window, f"{trace}/bootstrap")
        _assert_recount_bit_identical(refresher, f"{trace}/bootstrap")

        # advance the stream (evicting granules), recheck, then rebase
        # via a forced remine and recheck the bit-identity once more
        step = max(1, (len(txns) - warm) // 3)
        for lo in range(warm, len(txns), step):
            window.extend_encoded(txns[lo: lo + step])
            _assert_counts_match_bitmaps(window, f"{trace}/advance@{lo}")
        remined = refresher.remine_now()
        assert remined.remined, f"{trace}: forced remine did not run"
        _assert_counts_match_bitmaps(window, f"{trace}/remine")
        _assert_recount_bit_identical(refresher, f"{trace}/remine")
        print(
            f"check-only [{trace} n={n_jobs}]: {len(refresher.book)} rules, "
            f"{refresher.window.n_tracked} tracked itemsets — maintained "
            "counts == popcounts, recount bit-identical to remine",
            flush=True,
        )


# -- measured mode -------------------------------------------------------------
def _append_trajectory(output: Path, point: dict) -> None:
    """BENCH_stream.json keeps every recorded point, newest last."""
    if output.exists():
        doc = json.loads(output.read_text())
    else:
        doc = {
            "benchmark": "stream_throughput",
            "description": (
                "streaming ingest rate and incremental per-tick refresh "
                "vs full-window remine; one trajectory point per run"
            ),
            "trajectory": [],
        }
    doc["trajectory"].append(point)
    output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def run_measured(
    window_size: int, delta: int, ticks: int, min_speedup: float, output: Path
) -> int:
    config = MiningConfig()  # paper defaults: support=0.05, max_len=5
    n_jobs = window_size + ticks * delta + delta
    print(
        f"generating pai trace: {n_jobs} jobs "
        f"(window {window_size}, {ticks} ticks x {delta}-event deltas)",
        flush=True,
    )
    db = pai_preprocessor().run(generate_pai(PAIConfig(n_jobs=n_jobs))).database
    txns = _encoded_transactions(db)
    assert len(txns) >= window_size + ticks * delta, "trace too short"

    window = StreamingBitmapWindow(window_size, vocabulary=db.vocabulary)
    t0 = time.perf_counter()
    window.extend_encoded(txns[:window_size])
    fill_s = time.perf_counter() - t0
    fill_eps = window_size / fill_s

    t0 = time.perf_counter()
    refresher = RuleBookRefresher.bootstrap(
        window,
        dict(PAI_KEYWORDS),
        config,
        threshold=HOLD,
        trace="pai",
    )
    bootstrap_s = time.perf_counter() - t0
    n_rules = len(refresher.book)
    n_tracked = window.n_tracked

    incr_s: list[float] = []
    full_s: list[float] = []
    delta_eps: list[float] = []
    for k in range(ticks):
        lo = window_size + k * delta
        t0 = time.perf_counter()
        window.extend_encoded(txns[lo: lo + delta])
        delta_eps.append(delta / (time.perf_counter() - t0))

        t0 = time.perf_counter()
        result = refresher.tick()
        incr_s.append(time.perf_counter() - t0)
        assert not result.remined, "gate opened during a measured hold tick"

        t0 = time.perf_counter()
        _full_remine(window, PAI_KEYWORDS, config)
        full_s.append(time.perf_counter() - t0)

    speedups = [f / i for f, i in zip(full_s, incr_s)]
    mean_speedup = sum(speedups) / len(speedups)
    min_observed = min(speedups)
    report = "\n".join(
        [
            f"stream throughput — {window_size}-txn window, "
            f"{delta}-event deltas, {ticks} ticks",
            f"  book: {n_rules} rules over {n_tracked} tracked itemsets "
            f"(bootstrap remine {bootstrap_s:.2f}s)",
            f"  ingest: fill {fill_eps:,.0f} events/s, "
            f"delta {sum(delta_eps) / len(delta_eps):,.0f} events/s",
            f"  per tick: incremental {sum(incr_s) / ticks * 1e3:.1f}ms, "
            f"full remine {sum(full_s) / ticks * 1e3:.1f}ms",
            f"  speedup: mean {mean_speedup:.1f}x, min {min_observed:.1f}x "
            f"(floor {min_speedup:.1f}x)",
            "",
        ]
    )
    print("\n" + report, flush=True)
    write_artifact("stream_throughput.txt", report)

    point = {
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "window": window_size,
        "delta": delta,
        "ticks": ticks,
        "n_rules": n_rules,
        "n_tracked_itemsets": n_tracked,
        "fill_events_per_s": round(fill_eps, 1),
        "delta_events_per_s": round(sum(delta_eps) / len(delta_eps), 1),
        "bootstrap_remine_s": round(bootstrap_s, 4),
        "incremental_tick_s": round(sum(incr_s) / ticks, 6),
        "full_remine_tick_s": round(sum(full_s) / ticks, 6),
        "speedup_mean": round(mean_speedup, 2),
        "speedup_min": round(min_observed, 2),
        "min_speedup_enforced": min_speedup,
    }
    _append_trajectory(output, point)
    print(f"trajectory point appended to {output}", flush=True)

    if min_observed < min_speedup:
        print(
            f"FAIL: per-tick speedup {min_observed:.2f}x < "
            f"required {min_speedup:.2f}x",
            flush=True,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--window", type=int, default=100_000,
                        help="retained window size in transactions")
    parser.add_argument("--delta", type=int, default=1000,
                        help="events appended per measured tick")
    parser.add_argument("--ticks", type=int, default=5)
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required full-remine/incremental ratio per tick")
    parser.add_argument("--n-jobs", type=int, default=800,
                        help="per-trace job count for --check-only")
    parser.add_argument(
        "--check-only",
        action="store_true",
        help="assert maintained-count and recount bit-identity on all "
             "three traces; write no artifacts",
    )
    parser.add_argument("--output", type=Path, default=JSON_PATH)
    args = parser.parse_args(argv)

    if args.check_only:
        check_stream_sweep(args.n_jobs)
        return 0
    return run_measured(
        args.window, args.delta, args.ticks, args.min_speedup, args.output
    )


if __name__ == "__main__":
    raise SystemExit(main())
