"""Follow mode: tail a transaction stream, refresh the serving fleet.

:class:`StreamFollower` closes the loop between the streaming miner and
the serving subsystem — the ``repro serve --follow`` wiring:

1. **tail** an NDJSON transaction stream (one JSON array of item
   strings per line, or ``{"transaction": [...]}`` objects), tolerating
   partial lines at the tail and counting — not crashing on — malformed
   lines;
2. **ingest** batches into the delta-maintained
   :class:`~repro.streaming.bitwindow.StreamingBitmapWindow`;
3. **tick** the drift-gated
   :class:`~repro.streaming.refresh.RuleBookRefresher` on a cadence
   (every ``interval_s`` seconds, provided at least ``min_events`` new
   transactions arrived);
4. when a tick remines, **save** the new versioned RuleBook (stream
   provenance in its header), **publish** its compiled rule plane to
   shared memory once, and push it through
   :func:`~repro.serve.shard.broadcast_reload` — the same rolling
   hot-swap path the ``reload-rulebook`` CLI uses, so the shard fleet
   flips atomically per replica, tagged with the new book's
   fingerprint, without restarts or mixed-version batches.  Each shard
   attaches the published segment zero-copy; the saved rulebook path
   rides along as the fallback.  Where the platform has no shared
   memory the follower says so once and ships the path alone.

The ingest/tick work runs in a worker thread (``asyncio.to_thread``) so
the event loop that owns the serving cluster keeps answering control
traffic mid-remine.
"""

from __future__ import annotations

import asyncio
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..serve.shard import broadcast_reload
from ..shm.ruleplane import publish_rule_plane
from ..shm.segment import SegmentError, SegmentLease, shm_available
from .refresh import RuleBookRefresher, TickResult

__all__ = ["FollowStats", "StreamFollower"]


@dataclass(slots=True)
class FollowStats:
    """Lifetime counters of one follower run."""

    n_events: int = 0
    n_bad_lines: int = 0
    n_ticks: int = 0
    n_remines: int = 0
    n_reloads: int = 0
    n_reload_failures: int = 0
    last_version_tag: str | None = None
    last_book_path: str | None = None
    reload_reports: list[dict] = field(default_factory=list)

    def render(self) -> str:
        return (
            f"follow stats — events={self.n_events} "
            f"bad_lines={self.n_bad_lines} ticks={self.n_ticks} "
            f"remines={self.n_remines} reloads={self.n_reloads} "
            f"failed_reloads={self.n_reload_failures}"
        )


def _decode_line(line: bytes) -> list | None:
    """One NDJSON stream record → item-string list (None when bad)."""
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if isinstance(record, dict):
        record = record.get("transaction")
    if not isinstance(record, list):
        return None
    if not all(isinstance(item, str) for item in record):
        return None
    return record


class StreamFollower:
    """Tail a stream file and keep a refresher + shard fleet current.

    Parameters
    ----------
    refresher:
        The drift-gated control loop (owns window, book and engine).
    stream_path:
        NDJSON file to tail; may not exist yet (the follower waits).
    host, port:
        The reload endpoint — a router's public port or a lone
        service's port.  ``None`` disables pushing (mine-only follow,
        used by tests and dry runs).
    out_dir:
        Where versioned rulebooks land (``rulebook.v<N>.jsonl`` plus a
        ``rulebook.latest.jsonl`` convenience copy).
    interval_s, min_events:
        Tick cadence: at most one tick per *interval_s*, and only once
        *min_events* new transactions arrived (a final drain tick on
        stop ignores the floor so no tail events are lost).
    """

    def __init__(
        self,
        refresher: RuleBookRefresher,
        stream_path: str | os.PathLike,
        *,
        host: str = "127.0.0.1",
        port: int | None = None,
        out_dir: str | os.PathLike = ".",
        interval_s: float = 2.0,
        min_events: int = 1,
        poll_s: float = 0.2,
        on_tick: Callable[[TickResult, "FollowStats"], None] | None = None,
    ):
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        if min_events < 1:
            raise ValueError("min_events must be >= 1")
        self.refresher = refresher
        self.stream_path = Path(stream_path)
        self.host = host
        self.port = port
        self.out_dir = Path(out_dir)
        self.interval_s = interval_s
        self.min_events = min_events
        self.poll_s = poll_s
        self.on_tick = on_tick
        self.stats = FollowStats()
        self._offset = 0
        self._tail_buffer = b""
        self._pending: list[list] = []
        self._plane_lease: SegmentLease | None = None
        self._generation = 0

    # -- tailing ----------------------------------------------------------------
    def _poll_stream(self) -> int:
        """Read newly appended bytes, decode whole lines into pending."""
        try:
            size = self.stream_path.stat().st_size
        except FileNotFoundError:
            return 0
        if size < self._offset:  # truncated/rotated: start over
            self._offset = 0
            self._tail_buffer = b""
        if size == self._offset:
            return 0
        with open(self.stream_path, "rb") as fh:
            fh.seek(self._offset)
            chunk = fh.read(size - self._offset)
        self._offset = size
        data = self._tail_buffer + chunk
        lines = data.split(b"\n")
        self._tail_buffer = lines.pop()  # partial last line (b"" if none)
        n_new = 0
        for line in lines:
            if not line.strip():
                continue
            decoded = _decode_line(line)
            if decoded is None:
                self.stats.n_bad_lines += 1
                continue
            self._pending.append(decoded)
            n_new += 1
        return n_new

    # -- the tick ---------------------------------------------------------------
    def _ingest_and_tick(self, batch: list[list]) -> TickResult:
        """Worker-thread body: feed the window, run one refresh tick."""
        self.refresher.window.observe_many(batch)
        self.stats.n_events += len(batch)
        result = self.refresher.tick()
        self.stats.n_ticks += 1
        if result.remined:
            self.stats.n_remines += 1
        return result

    def _save_book(self, result: TickResult) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"rulebook.v{result.version}.jsonl"
        result.book.save(path)
        latest = self.out_dir / "rulebook.latest.jsonl"
        tmp = self.out_dir / "rulebook.latest.jsonl.tmp"
        result.book.save(tmp)
        os.replace(tmp, latest)  # readers never see a half-written book
        self.stats.last_book_path = str(path)
        return path

    def _publish_plane(self, result: TickResult) -> SegmentLease | None:
        """Worker-thread body: compile the new book's plane once.

        Returns ``None`` when the platform has no shared memory — the
        reload then ships only the rulebook path and every shard
        compiles its own index.
        """
        if not shm_available():
            return None
        from ..serve.index import RuleIndex

        index = RuleIndex.from_rulebook(result.book)
        self._generation += 1
        return publish_rule_plane(
            index,
            generation=self._generation,
            version_tag=result.book.fingerprint,
        )

    async def _push(self, result: TickResult, path: Path) -> None:
        if self.port is None:
            return
        previous = self._plane_lease
        try:
            lease = await asyncio.to_thread(self._publish_plane, result)
        except SegmentError:
            lease = None
        report = await broadcast_reload(
            self.host,
            self.port,
            str(path),
            version_tag=result.book.fingerprint,
            segment=lease.name if lease is not None else None,
        )
        if lease is not None:
            self._plane_lease = lease
            if previous is not None and previous.name != lease.name:
                # shards that attached it keep their mappings alive
                previous.unlink()
        self.stats.reload_reports.append(report)
        if report["status"] == "ok":
            self.stats.n_reloads += 1
            self.stats.last_version_tag = report.get("version_tag")
        else:
            self.stats.n_reload_failures += 1

    async def _tick_once(self) -> TickResult:
        batch, self._pending = self._pending, []
        result = await asyncio.to_thread(self._ingest_and_tick, batch)
        if result.remined:
            path = await asyncio.to_thread(self._save_book, result)
            await self._push(result, path)
        if self.on_tick is not None:
            self.on_tick(result, self.stats)
        return result

    # -- main loop --------------------------------------------------------------
    async def run(self, stop: asyncio.Event) -> FollowStats:
        """Follow until *stop* is set; returns the final counters.

        One last drain (poll + tick with whatever arrived, even below
        ``min_events``) runs after *stop* fires, so a finite stream is
        fully accounted for when the follower exits.
        """
        if self.port is not None and not shm_available():
            print(
                "follow: shared memory unavailable on this host; each "
                "reload ships the rulebook path and every shard compiles it",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        next_tick = loop.time() + self.interval_s
        while not stop.is_set():
            self._poll_stream()
            now = loop.time()
            if now >= next_tick and len(self._pending) >= self.min_events:
                await self._tick_once()
                next_tick = loop.time() + self.interval_s
            try:
                await asyncio.wait_for(stop.wait(), timeout=self.poll_s)
            except asyncio.TimeoutError:
                pass
        self._poll_stream()
        if self._pending:
            await self._tick_once()
        if self._plane_lease is not None:
            # the fleet already attached (or fell back); drop our name
            self._plane_lease.unlink()
            self._plane_lease = None
        return self.stats
