"""In-memory spans for the traced benchmark run.

A span records one call into a layer of the program: its name, start and
end (``time.perf_counter`` seconds), the span that was open when it began
(its parent), the workload, and the pass it belongs to.  Spans are kept
in a list and written out as JSON lines once the run ends, so recording
costs one list append and two clock reads.

A layer's *self time* is its span's duration minus the time its child
spans cover; the self time of a pass's root span is the part of the pass
no layer span accounts for (the residual).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator


class Tracer:
    """Records nested spans around the benchmark's calls into the program."""

    def __init__(self, workload: str):
        self.workload = workload
        self.pass_no = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "pass": self.pass_no,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str, since: int = 0) -> list[float]:
        """Wall time of every closed span called *name*, in start order,
        among the spans recorded after the first *since*."""
        return [
            s["end"] - s["start"]
            for s in self.spans[since:]
            if s["name"] == name and s["end"] is not None
        ]

    def self_time(self, name: str) -> float:
        """Summed self time of every span called *name*."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return sum(
            s["end"] - s["start"] - covered[s["id"]]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
        )

    def write(self, path: Path) -> None:
        """Write every span as one JSON line to *path*."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, sort_keys=True) + "\n")
