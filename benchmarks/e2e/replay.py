"""In-process replays of the serving and streaming layers (traced runs).

Every traced run, whatever its workload, loads the book(s) it produced
or served, compiles the index and matches a sample of the workload's own
jobs through the batch kernel, the scalar path and ``explain`` — so the
index-layer metrics are measured on every workload.  The follow workload
also replays its drift batches through the streaming window, the
drift-gated refresher and the shared-memory rule-plane publish.

Each call is wrapped in a span under one ``replay`` root span.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from repro.core.bitmap import clear_bitmap_cache
from repro.engine import MiningEngine
from repro.preprocess.pipeline import clear_preprocess_cache
from repro.serve import RuleBook, RuleIndex
from repro.shm.ruleplane import publish_rule_plane
from repro.shm.segment import shm_available
from repro.streaming import RuleBookRefresher, StreamingBitmapWindow

from spans import Tracer

#: micro-batches of :data:`BATCH` jobs, scalar jobs and explain jobs
#: matched per replayed book
BATCHES, BATCH, SCALAR_JOBS, EXPLAIN_JOBS = 8, 64, 200, 50


def median_or_zero(values) -> float:
    """Median of *values*, or 0.0 when there are none."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def index_layers(books: list[tuple[Path, list[list[str]]]], tracer: Tracer) -> dict:
    """Replay each (book path, jobs) pair; per-layer numbers summed over
    the books, so with several books a per-job cost is the cost of one
    job of each."""
    totals = dict.fromkeys(
        ("rulebook.load_s", "index.compile_s", "index.match_batch_us",
         "index.match_scalar_us", "index.explain_us", "index.fired_per_job"),
        0.0,
    )
    for book_path, jobs in books:
        mark = len(tracer.spans)
        fired = 0
        with tracer.span("replay"):
            with tracer.span("rulebook.load"):
                book = RuleBook.load(book_path)
            with tracer.span("index.compile"):
                index = RuleIndex.from_rulebook(book)
            for b in range(BATCHES):
                chunk = [jobs[(b * BATCH + k) % len(jobs)] for k in range(BATCH)]
                with tracer.span("index.match_batch"):
                    wires = index.match_wire_batch(chunk)
                fired += sum(len(w) for w in wires)
            for transaction in jobs[:SCALAR_JOBS]:
                with tracer.span("index.match_scalar"):
                    index.match_wire(transaction)
            for transaction in jobs[:EXPLAIN_JOBS]:
                with tracer.span("index.explain"):
                    index.explain(transaction)
        totals["rulebook.load_s"] += sum(tracer.durations("rulebook.load", mark))
        totals["index.compile_s"] += sum(tracer.durations("index.compile", mark))
        per_job = {
            "index.match_batch_us": ("index.match_batch", BATCH),
            "index.match_scalar_us": ("index.match_scalar", 1),
            "index.explain_us": ("index.explain", 1),
        }
        for metric, (span, jobs_per_span) in per_job.items():
            totals[metric] += (
                median_or_zero(tracer.durations(span, mark)) / jobs_per_span * 1e6
            )
        totals["index.fired_per_job"] += fired / (BATCHES * BATCH)
    return totals


def stream_layers(book_path: Path, batches: list[list[list[str]]], window_size: int,
                  tracer: Tracer) -> dict:
    """Replay drift batches the way ``repro serve --follow`` handles them:
    ingest into the window, a gated tick, a hold tick on unchanged data,
    then compile and publish the refreshed book's rule plane."""
    clear_preprocess_cache()
    clear_bitmap_cache()
    mark = len(tracer.spans)
    remined = []
    with tracer.span("replay"):
        window = StreamingBitmapWindow(window_size)
        refresher = RuleBookRefresher(window, RuleBook.load(book_path), engine=MiningEngine())
        for j, batch in enumerate(batches):
            with tracer.span("stream.ingest"):
                window.observe_many(batch)
            with tracer.span("stream.tick"):
                remined.append(refresher.tick().remined)
            with tracer.span("stream.hold_tick"):
                refresher.tick()
            if shm_available():
                with tracer.span("stream.compile"):
                    index = RuleIndex.from_rulebook(refresher.book)
                with tracer.span("shm.publish"):
                    lease = publish_rule_plane(
                        index, generation=j + 1, version_tag=refresher.book.fingerprint
                    )
                lease.unlink()
    ingest = tracer.durations("stream.ingest", mark)
    ticks = tracer.durations("stream.tick", mark)
    return {
        "stream.ingest_eps": sum(len(b) for b in batches) / sum(ingest),
        "stream.tick_s": median_or_zero(tracer.durations("stream.hold_tick", mark)),
        "stream.remine_s": median_or_zero([d for d, r in zip(ticks, remined) if r]),
        "shm.publish_s": median_or_zero(tracer.durations("shm.publish", mark)),
    }
