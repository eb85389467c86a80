"""Asyncio rule-matching service: newline-delimited JSON over TCP.

Protocol (one JSON object per line, both directions)::

    → {"type": "match",   "transaction": ["SM Util = 0%", ...], "id": 7,
       "explain": false}
    ← {"type": "match_result", "id": 7, "version": 1, "fired": [...],
       "near_misses": [...]}

    → {"type": "healthz"}
    ← {"type": "healthz", "status": "ok"|"draining", "uptime_s": ...,
       "n_rules": ..., "version": ..., "version_tag": ...}

    → {"type": "metrics"}
    ← {"type": "metrics", "uptime_s": ..., "queue_depth": ...,
       "latency": {"p50_s": ..., "p99_s": ..., ...},
       "requests": {...}, "rule_matches": {...}}

    → {"type": "reload", "rulebook": "/path/to/book.jsonl"}
    → {"type": "reload", "segment": "rsm.r...", "rulebook": "..."}
    ← {"type": "reload_result", "version": 2, "n_rules": ...,
       "source": "segment"|"path"}

A reload carrying a ``segment`` name attaches the pre-compiled rule
plane published in shared memory (zero-copy, milliseconds); the
``rulebook`` path, when also present, is the fallback if the segment
cannot be attached (shm unavailable on this host, stale name).

Design points, mirroring what a production sidecar needs:

* **Pipelining** — a connection may send many requests before reading
  any response; responses come back in request order.  Each connection
  is one :class:`NdjsonConnection` protocol: it frames the lines of
  every socket read, dispatches them at once, and writes all answers
  ready at the head of the connection's order in one coalesced write —
  no task, queue or readline per request.  Reading pauses while the
  client lags behind its answers (transport high-water mark), so a
  client that never reads holds bounded server memory.
* **Micro-batching** — match requests land on a bounded queue; a single
  batcher task drains up to ``max_batch`` at once and answers them in
  one pass.  Under load this amortises task wakeups; under light load
  the first request is served immediately (no artificial batching
  delay).
* **One answer path** — every drained micro-batch, whether plain
  matches, ``explain`` requests or a lone singleton, is answered by *one*
  :meth:`~repro.serve.index.RuleIndex.wire_batch` call: the batch is
  encoded into a packed uint64 bit-matrix and resolved against the
  index's compiled antecedent/consequent masks in a few NumPy passes,
  and each ``match_result`` line is joined straight from the index's
  pre-encoded fragment bytes (DESIGN.md §13).  Fire counts are one
  ``np.bincount`` per batch.
* **Explicit backpressure** — when the queue is full the request is
  rejected *immediately* with ``{"type": "error", "error": "overloaded",
  "retry_after": ...}`` rather than buffered without bound.  Callers see
  load shedding as data, not as timeouts.
* **Graceful drain** — SIGTERM/SIGINT (or :meth:`RuleService.shutdown`)
  stops accepting connections, answers everything already queued, then
  closes.  In-flight work is never dropped.
* **Hot-swap** — the serving index is a versioned atomic pointer.  A
  ``reload`` request (or :meth:`RuleService.reload`) enqueues a flip
  marker on the *same* queue the matcher drains, so the swap applies at
  a batch boundary: every request enqueued before the marker is answered
  from the old index, everything after from the new one, and no
  micro-batch ever mixes versions.  Every ``match_result`` carries the
  ``version`` that answered it, so mixed-version client batches are
  detectable downstream.
* **Observability** — latency quantiles come from the engine's shared
  :class:`~repro.engine.stats.LatencyHistogram`; per-rule fire counts
  tell the operator which mined rules actually earn their keep.

:class:`NdjsonConnection` is shared with the shard router
(:mod:`repro.serve.router`) — both ends of the sharded deployment speak
the exact same framing.
"""

from __future__ import annotations

import asyncio
import collections
import json
import signal
import time
from typing import Callable

import numpy as np

from ..engine.stats import LatencyHistogram
from ..shm.ruleplane import attach_rule_plane
from ..shm.segment import SegmentError, shm_available
from .index import RuleIndex
from .rulebook import RuleBook, RuleBookSchemaError

__all__ = [
    "ServiceMetrics",
    "RuleService",
    "LineFraming",
    "NdjsonConnection",
]

#: protocol schema version announced by healthz
PROTOCOL_VERSION = 1

#: default bound of the request queue (requests, not bytes)
DEFAULT_MAX_QUEUE = 1024

#: default micro-batch size drained per batcher wakeup
DEFAULT_MAX_BATCH = 64

#: default client back-off hint attached to overload rejections, seconds
DEFAULT_RETRY_AFTER_S = 0.05

#: line limit, both directions — a match response over a large book
#: (fired rules + near misses) easily exceeds asyncio's 64 KiB default
MAX_LINE_BYTES = 8 * 1024 * 1024

#: answers below this size are joined into one write; larger ones are
#: written alone, so they are never copied into a joined buffer
JOIN_MAX_BYTES = 64 * 1024


class ServiceMetrics:
    """Mutable counters of one service lifetime."""

    __slots__ = (
        "started_at",
        "latency",
        "n_matched",
        "n_rejected",
        "n_bad_requests",
        "n_batches",
        "n_reloads",
        "n_kernel_batches",
        "n_kernel_jobs",
        "kernel_seconds",
        "fire_counts",
        "retired_matches",
    )

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.latency = LatencyHistogram()
        self.n_matched = 0
        self.n_rejected = 0
        self.n_bad_requests = 0
        self.n_batches = 0
        self.n_reloads = 0
        # batch-kernel attribution: how much of the serving wall time the
        # packed-bitmask matcher absorbed, and over how many jobs
        self.n_kernel_batches = 0
        self.n_kernel_jobs = 0
        self.kernel_seconds = 0.0
        #: fire counts by rule id of the serving index (None: none yet)
        self.fire_counts: np.ndarray | None = None
        #: fire counts under earlier indexes, by rule label — ids are
        #: positions in one index and mean nothing in the next
        self.retired_matches: dict[str, int] = {}

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self.started_at

    @property
    def rule_matches(self) -> dict[int, int]:
        """Nonzero fire counts by rule id of the serving index."""
        counts = self.fire_counts
        if counts is None:
            return {}
        return {
            int(rule_id): int(counts[rule_id])
            for rule_id in np.flatnonzero(counts)
        }

    def add_fires(self, fires: np.ndarray) -> None:
        """Add one batch's per-rule fire counts (``np.bincount`` form)."""
        if self.fire_counts is None:
            self.fire_counts = fires.astype(np.int64)
        else:
            self.fire_counts += fires

    def _labelled(self, index: RuleIndex) -> dict[str, int]:
        """Nonzero fire counts of *index*'s rules, by rule label."""
        counts = self.fire_counts
        if counts is None:
            return {}
        fired = np.flatnonzero(counts)
        labelled: dict[str, int] = {}
        for label, count in zip(index.rule_labels(fired), counts[fired].tolist()):
            labelled[label] = labelled.get(label, 0) + count
        return labelled

    def retire_index(self, index: RuleIndex) -> None:
        """Fold the fire counts taken under *index* into label keys.

        Called as *index* stops serving, while its ids still name its
        rules.
        """
        retired = self.retired_matches
        for label, count in self._labelled(index).items():
            retired[label] = retired.get(label, 0) + count
        self.fire_counts = None

    def as_dict(self, index: RuleIndex) -> dict:
        rule_matches = dict(self.retired_matches)
        for label, count in self._labelled(index).items():
            rule_matches[label] = rule_matches.get(label, 0) + count
        return {
            "uptime_s": self.uptime_s,
            "latency": self.latency.as_dict(),
            # raw bucket counts, so a router can merge true histograms
            # across shards (router.aggregate_shard_metrics)
            "latency_state": self.latency.state_dict(),
            "requests": {
                "matched": self.n_matched,
                "rejected": self.n_rejected,
                "bad": self.n_bad_requests,
                "batches": self.n_batches,
                "reloads": self.n_reloads,
            },
            "kernel": {
                "batches": self.n_kernel_batches,
                "jobs": self.n_kernel_jobs,
                "seconds": self.kernel_seconds,
            },
            "rule_matches": rule_matches,
        }


class _IndexFlip:
    """A hot-swap marker travelling the request queue.

    Placing the flip on the same queue as match requests is what makes
    the swap safe without locks: the batcher applies it *between*
    micro-batches, so a batch is always answered by exactly one index
    version, and request order decides which side of the swap a request
    lands on.
    """

    __slots__ = ("index", "version", "version_tag", "done")

    def __init__(
        self,
        index: RuleIndex,
        version: int,
        version_tag: str | None,
        done: asyncio.Future,
    ):
        self.index = index
        self.version = version
        self.version_tag = version_tag
        self.done = done


class RuleService:
    """A long-lived rule matcher behind an asyncio TCP server.

    Typical embedding (the CLI's ``repro serve`` does exactly this)::

        service = RuleService(RuleIndex.from_rulebook(book))
        asyncio.run(service.serve_forever("127.0.0.1", 7317))

    Tests drive :meth:`start` / :meth:`shutdown` directly for
    deterministic control over the lifecycle.

    ``version`` starts at 1 and bumps on every :meth:`reload`; shard
    deployments pass explicit versions so all replicas agree on the tag
    a response carries.  ``name`` identifies the shard in healthz
    output.
    """

    def __init__(
        self,
        index: RuleIndex,
        *,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_batch: int = DEFAULT_MAX_BATCH,
        retry_after_s: float = DEFAULT_RETRY_AFTER_S,
        version: int = 1,
        version_tag: str | None = None,
        name: str | None = None,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.index = index
        self.version = version
        self.version_tag = version_tag
        self.name = name
        self.max_queue = max_queue
        self.max_batch = max_batch
        self.retry_after_s = retry_after_s
        self.metrics = ServiceMetrics()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max_queue)
        self._server: asyncio.Server | None = None
        self._batcher: asyncio.Task | None = None
        self._connections: set[NdjsonConnection] = set()
        self._draining = False

    # -- lifecycle ---------------------------------------------------------------
    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.Server:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        if self._server is not None:
            raise RuntimeError("service already started")
        self.metrics = ServiceMetrics()
        self._draining = False
        self._batcher = asyncio.create_task(self._batch_loop())
        self._server = await asyncio.get_running_loop().create_server(
            self._connection, host, port
        )
        return self._server

    @property
    def port(self) -> int:
        """The bound port (useful after ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(
        self,
        host: str = "127.0.0.1",
        port: int = 7317,
        *,
        on_ready: Callable[["RuleService"], None] | None = None,
    ) -> None:
        """Run until SIGTERM/SIGINT, then drain and exit.

        ``on_ready`` fires once listening (after ephemeral ports are
        known) — shard workers use it to report their port to the
        cluster parent.
        """
        server = await self.start(host, port)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX event loops
        if on_ready is not None:
            on_ready(self)
        async with server:
            await stop.wait()
        await self.shutdown()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, answer queued work, close."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # everything already queued gets answered before the batcher dies
        await self._queue.join()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        # queued answers are written as clients drain their sockets and
        # hang up; anyone still holding the connection open after a grace
        # period gets cut off
        await close_connections(self._connections, 1.0)

    # -- hot swap ----------------------------------------------------------------
    async def reload(
        self,
        index: RuleIndex,
        *,
        version: int | None = None,
        version_tag: str | None = None,
    ) -> int:
        """Swap the serving index with zero downtime; returns the version.

        The flip is enqueued behind every already-accepted request and
        applied at a micro-batch boundary, so in-flight batches drain on
        the old index first.  Requests keep flowing while the marker
        waits its turn — nothing is rejected or dropped by a reload.
        """
        if version is None:
            version = self.version + 1
        if self._batcher is None:
            # not serving: apply directly (offline re-arm between runs)
            self.metrics.retire_index(self.index)
            self.index = index
            self.version = int(version)
            self.version_tag = version_tag
            return self.version
        flip = _IndexFlip(
            index,
            int(version),
            version_tag,
            asyncio.get_running_loop().create_future(),
        )
        await self._queue.put(flip)
        await flip.done
        return flip.version

    def _apply_flip(self, flip: _IndexFlip) -> None:
        # plain attribute stores, no awaits in between: atomic under
        # asyncio's cooperative scheduling
        self.metrics.retire_index(self.index)
        self.index = flip.index
        self.version = flip.version
        self.version_tag = flip.version_tag
        self.metrics.n_reloads += 1
        if not flip.done.done():
            flip.done.set_result(None)

    async def _wire_reload(self, request: dict, request_id) -> bytes:
        """Handle a ``reload`` protocol request (path is server-local)."""
        if self._draining:
            return _error_line(
                request_id, "shutting_down", "service is draining"
            )
        problem = reload_problem(request)
        if problem is not None:
            self.metrics.n_bad_requests += 1
            return _error_line(request_id, "bad_request", problem)
        path = request.get("rulebook")
        segment = request.get("segment")
        version = request.get("version")
        index = None
        source = None
        fingerprint = None
        if segment is not None and shm_available():
            try:
                # zero-copy attach: milliseconds regardless of rulebook size
                index, plane_meta = await asyncio.to_thread(
                    attach_rule_plane, segment
                )
            except SegmentError as exc:
                if path is None:
                    return _error_line(request_id, "reload_failed", str(exc))
            else:
                source = "segment"
                fingerprint = plane_meta.get("version_tag")
        if index is None:
            if path is None:
                return _error_line(
                    request_id,
                    "reload_failed",
                    "shared memory unavailable and no 'rulebook' fallback",
                )
            try:
                # book parse + index build off the event loop: serving
                # continues on the old index while the new one is prepared
                index, fingerprint = await asyncio.to_thread(
                    _load_index, path
                )
            except (OSError, RuleBookSchemaError, ValueError) as exc:
                return _error_line(request_id, "reload_failed", str(exc))
            source = "path"
        tag = request.get("version_tag")
        if tag is None:
            tag = fingerprint
        applied = await self.reload(index, version=version, version_tag=tag)
        return _encode(
            {
                "type": "reload_result",
                "id": request_id,
                "version": applied,
                "version_tag": tag,
                "n_rules": len(index),
                "source": source,
            }
        )

    # -- connection handling ----------------------------------------------------
    def _connection(self) -> "NdjsonConnection":
        return NdjsonConnection(self._dispatch, self._connections)

    def _dispatch(self, line: bytes) -> bytes | asyncio.Future:
        """One request line → encoded response line, or a pending future."""
        try:
            request = json.loads(line.decode())
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (json.JSONDecodeError, ValueError, UnicodeDecodeError) as exc:
            self.metrics.n_bad_requests += 1
            return _error_line(None, "bad_request", str(exc))
        request_id = request.get("id")
        kind = request.get("type")
        if kind == "match":
            return self._enqueue_match(request, request_id)
        if kind == "healthz":
            return _encode(self._healthz(request_id))
        if kind == "metrics":
            return _encode(
                {
                    "type": "metrics",
                    "id": request_id,
                    "name": self.name,
                    "version": self.version,
                    "queue_depth": self._queue.qsize(),
                    **self.metrics.as_dict(self.index),
                }
            )
        if kind == "reload":
            return asyncio.ensure_future(self._wire_reload(request, request_id))
        self.metrics.n_bad_requests += 1
        return _error_line(
            request_id, "bad_request", f"unknown request type {kind!r}"
        )

    def _healthz(self, request_id) -> dict:
        return {
            "type": "healthz",
            "id": request_id,
            "status": "draining" if self._draining else "ok",
            "protocol_version": PROTOCOL_VERSION,
            "uptime_s": self.metrics.uptime_s,
            "n_rules": len(self.index),
            "version": self.version,
            "version_tag": self.version_tag,
            "name": self.name,
        }

    def _enqueue_match(self, request: dict, request_id) -> bytes | asyncio.Future:
        if self._draining:
            return _error_line(
                request_id,
                "shutting_down",
                "service is draining; connect elsewhere",
            )
        transaction = request.get("transaction")
        if not isinstance(transaction, list) or not all(
            isinstance(i, str) for i in transaction
        ):
            self.metrics.n_bad_requests += 1
            return _error_line(
                request_id, "bad_request", "transaction must be a list of strings"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((request, time.perf_counter(), future))
        except asyncio.QueueFull:
            self.metrics.n_rejected += 1
            response = _error(
                request_id,
                "overloaded",
                f"request queue full ({self.max_queue})",
            )
            response["retry_after"] = self.retry_after_s
            return _encode(response)
        return future

    # -- the batcher --------------------------------------------------------------
    async def _batch_loop(self) -> None:
        while True:
            first = await self._queue.get()
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    batch.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            # flips split the drained slice into segments, each answered
            # entirely by the index version live when its segment runs
            segment: list = []
            for entry in batch:
                if isinstance(entry, _IndexFlip):
                    if segment:
                        await self._process_batch(segment)
                        segment = []
                    self._apply_flip(entry)
                else:
                    segment.append(entry)
            if segment:
                await self._process_batch(segment)
            for _ in batch:
                self._queue.task_done()

    async def _process_batch(
        self, batch: list[tuple[dict, float, asyncio.Future]]
    ) -> None:
        """Answer one micro-batch (overridable seam for tests).

        Every request — plain, ``explain`` or a lone singleton — goes
        through one :meth:`RuleIndex.wire_batch` call.  Each line is one
        ``b", ".join`` over the index's own fragment bytes, the first
        carrying the line's head (type, echoed id, version) and the last
        its tail, so a line is written with one copy and no intermediate
        body; only the request id is JSON-encoded per request.
        """
        metrics = self.metrics
        metrics.n_batches += 1
        live = [entry for entry in batch if not entry[2].cancelled()]
        if not live:
            return
        # captured once: every response of this batch carries one version
        index = self.index
        version = b', "version": %d, "fired": [' % self.version
        now = time.perf_counter
        started = now()
        fires, parts = index.wire_batch(
            [request["transaction"] for request, _, _ in live],
            [bool(request.get("explain")) for request, _, _ in live],
        )
        metrics.kernel_seconds += now() - started
        metrics.n_kernel_batches += 1
        metrics.n_kernel_jobs += len(live)
        metrics.n_matched += len(live)
        metrics.add_fires(fires)
        record = metrics.latency.record
        for (request, enqueued_at, future), (fired, near) in zip(live, parts):
            head = b"".join(
                [_MATCH_HEAD, json.dumps(request.get("id")).encode(), version]
            )
            tail = _MATCH_TAIL
            if near is not None:
                tail = b"".join([_NEAR_HEAD, b", ".join(near), _MATCH_TAIL])
            if fired:
                fired[0] = head + fired[0]
                fired[-1] += tail
                line = b", ".join(fired)
            else:
                line = head + tail
            record(now() - enqueued_at)
            future.set_result(line)

    @classmethod
    def from_rulebook(cls, book: RuleBook, **kwargs) -> "RuleService":
        kwargs.setdefault("version_tag", book.fingerprint)
        return cls(RuleIndex.from_rulebook(book), **kwargs)


class LineFraming(asyncio.Protocol):
    """Newline framing shared by both ends of a connection."""

    def __init__(self) -> None:
        self._partial: list[bytes] = []
        self._partial_len = 0

    def _frame(self, data: bytes) -> list[bytes] | None:
        """The lines *data* completes, without newlines; ``None`` once a
        line outgrows :data:`MAX_LINE_BYTES`."""
        lines = data.split(b"\n")
        tail = lines.pop()
        partial = self._partial
        if partial and lines:
            partial.append(lines[0])
            lines[0] = b"".join(partial)
            partial.clear()
            self._partial_len = 0
            # reads are at most 256 KiB, so only a line continued from
            # earlier reads can outgrow the limit
            if len(lines[0]) > MAX_LINE_BYTES:
                return None
        if tail:
            partial.append(tail)
            self._partial_len += len(tail)
            if self._partial_len > MAX_LINE_BYTES:
                return None
        return lines


class NdjsonConnection(LineFraming):
    """One pipelined client connection, for the service and the router.

    ``dispatch`` maps a request line (no newline) to an answer line or a
    future of one.  All answers ready at the head of the request order
    leave in one write (large ones alone, never copied again); a pending
    head gets one done callback that resumes the flush.  Reading pauses
    while the transport is above its high-water mark.  A half-close or a
    line over :data:`MAX_LINE_BYTES` ends the requests: earlier ones are
    still answered, then the connection closes.
    """

    def __init__(
        self,
        dispatch: Callable[[bytes], "bytes | asyncio.Future"],
        connections: set,
    ):
        super().__init__()
        self._dispatch = dispatch
        self._connections = connections
        self._transport: asyncio.Transport | None = None
        self._order: collections.deque = collections.deque()
        self._waiting = False  # a done callback sits on the head future
        self._write_paused = False
        self._ended = False  # no more requests: EOF or an overlong line
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._connections.add(self)

    def data_received(self, data: bytes) -> None:
        lines = self._frame(data)
        if lines is None:
            return self._end()
        order = self._order
        dispatch = self._dispatch
        for line in lines:
            try:
                order.append(dispatch(line))
            except Exception as exc:  # a dispatch bug must not kill the link
                order.append(_error_line(None, "internal", repr(exc)))
        self._flush()

    def eof_received(self) -> bool:
        if self._partial:  # a last request without its newline
            self.data_received(b"\n")
        self._end()
        return True  # half-close: keep writing the answers still owed

    def _end(self) -> None:
        self._ended = True
        self._transport.pause_reading()
        self._flush()

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        if not self._ended:
            self._transport.resume_reading()
        self._flush()

    def connection_lost(self, exc) -> None:
        self._transport = None
        self._connections.discard(self)
        self._order.clear()
        self.closed.set_result(None)

    def _on_head_done(self, _future) -> None:
        self._waiting = False
        self._flush()

    def _flush(self) -> None:
        transport = self._transport
        order = self._order
        small: list[bytes] = []
        while order and transport is not None and not self._write_paused:
            entry = order[0]
            if entry.__class__ is not bytes:
                if not entry.done():
                    if not self._waiting:
                        self._waiting = True
                        entry.add_done_callback(self._on_head_done)
                    break
                try:
                    entry = entry.result()
                except (Exception, asyncio.CancelledError) as exc:
                    entry = _error_line(None, "internal", repr(exc))
            order.popleft()
            if len(entry) < JOIN_MAX_BYTES:
                small.append(entry)
                continue
            if small:
                transport.write(b"".join(small))
                small.clear()
            transport.write(entry)
        if small:
            transport.write(b"".join(small))
        if self._ended and not order and transport is not None:
            transport.close()


async def close_connections(connections: set, grace_s: float) -> None:
    """Give clients *grace_s* to hang up, then close the lingering ones."""
    if connections:
        waiting = {conn.closed for conn in connections}
        await asyncio.wait(waiting, timeout=grace_s)
        for conn in list(connections):  # pragma: no cover - lingering clients
            conn._transport.close()


def reload_problem(request: dict) -> str | None:
    """Why *request* is not a well-formed ``reload``, or ``None``."""
    path, segment = request.get("rulebook"), request.get("segment")
    if path is not None and (not isinstance(path, str) or not path):
        return "reload 'rulebook' must be a path"
    if segment is not None and (not isinstance(segment, str) or not segment):
        return "reload 'segment' must be a name"
    if path is None and segment is None:
        return "reload needs a 'rulebook' path or a 'segment' name"
    version = request.get("version")
    if version is not None and not isinstance(version, int):
        return "reload version must be an integer"
    return None


def _load_index(path: str) -> tuple[RuleIndex, str | None]:
    book = RuleBook.load(path)
    return RuleIndex.from_rulebook(book), book.fingerprint


_MATCH_HEAD = b'{"type": "match_result", "id": '
_NEAR_HEAD = b'], "near_misses": ['
_MATCH_TAIL = b"]}\n"


def _error(request_id, code: str, detail: str) -> dict:
    return {"type": "error", "id": request_id, "error": code, "detail": detail}


def _error_line(request_id, code: str, detail: str) -> bytes:
    return _encode(_error(request_id, code, detail))


def _encode(response: dict) -> bytes:
    return json.dumps(response).encode() + b"\n"
