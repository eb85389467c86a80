"""Single-process NDJSON load generator: closed and open loops.

One asyncio loop drives at most ``os.cpu_count()`` pipelined connections
to the server.  Requests are pre-encoded from a job pool; the request id
is the client's sequence number, so a response is matched to its request
both by the connection's FIFO order and by the echoed id.

* **Closed loop** — each connection keeps ``depth`` requests in flight
  and sends the next one when an answer arrives.  Throughput is the
  number of answers received inside the phase over the phase's length.
* **Open loop** — request *k* is due at ``t0 + k / rate`` and goes out on
  connection ``k mod n_conns`` whether or not earlier ones were answered.
  Latency is measured from the due time, so a server stall also counts
  against the requests that queued behind it; how late the generator
  itself sent each request is kept as its lag.

Answers are framed by an :class:`asyncio.Protocol` that only scans for
newlines: of a 450 KB answer it keeps the head (type, id, version) and
counts the bytes, so the generator spends little of the CPU it shares
with the server.  Every ``sample_every``-th answer, every ``explain``
answer and every control answer is assembled whole.  Overloaded and
timeout answers are re-sent after their ``retry_after`` hint, up to
:data:`MAX_ATTEMPTS` sends in all, before they count as failed.
"""

from __future__ import annotations

import asyncio
import gc
import json
import time
from collections import deque
from dataclasses import dataclass, field

#: bytes kept of an answer that is not needed whole: enough for the
#: type, id and version fields, and for a whole error line
HEAD_BYTES = 256

#: sends per request before a refused request counts as failed
MAX_ATTEMPTS = 3

#: seconds to wait for in-flight answers after a phase ends
DRAIN_TIMEOUT_S = 60.0

_RESULT_HEAD = b'{"type": "match_result", "id": '
_VERSION_KEY = b'"version": '
_RETRIABLE = (b'"error": "overloaded"', b'"error": "shard_timeout"')


class RequestPool:
    """Pre-encoded ``match`` requests cycling over a pool of jobs."""

    def __init__(self, transactions: list[list[str]], explain_every: int = 0):
        self.transactions = transactions
        self.explain_every = explain_every
        self._bodies = [json.dumps(t).encode() for t in transactions]

    def transaction(self, i: int) -> list[str]:
        return self.transactions[i % len(self.transactions)]

    def explains(self, i: int) -> bool:
        """Whether request *i* asks to ``explain``: 1 in ``explain_every``,
        picked by a multiplicative hash of the id so that the explained
        jobs spread over the whole pool instead of repeating a few."""
        return bool(self.explain_every) and (i * 2654435761) % 2**32 % self.explain_every == 0

    def line(self, i: int) -> bytes:
        explain = b', "explain": true' if self.explains(i) else b""
        return b'{"type": "match", "id": %d, "transaction": %s%s}\n' % (
            i,
            self._bodies[i % len(self._bodies)],
            explain,
        )


@dataclass
class PhaseStats:
    """What one load phase sent, received and measured."""

    name: str
    kind: str
    seconds: float = 0.0
    sent: int = 0
    ok: int = 0
    failed: int = 0
    retries: int = 0
    in_window: int = 0
    response_bytes: int = 0
    latencies: list[float] = field(default_factory=list)
    lags: list[float] = field(default_factory=list)
    #: (receive time, version) of every answer, in arrival order
    versions: list[tuple[float, int]] = field(default_factory=list)
    #: (request id, raw answer line) kept for the oracles
    samples: list[tuple[int, bytes]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "seconds": self.seconds,
            "sent": self.sent,
            "ok": self.ok,
            "failed": self.failed,
            "retries": self.retries,
            "n_latency": len(self.latencies),
        }


@dataclass
class _Pending:
    request_id: int
    due: float
    attempt: int


class _Conn(asyncio.Protocol):
    """One pipelined connection of a :class:`LoadClient`."""

    def __init__(self, client: "LoadClient"):
        self.client = client
        #: _Pending for match requests, a Future for control requests
        self.pending: deque = deque()
        self.transport: asyncio.Transport | None = None
        self.closed = asyncio.get_running_loop().create_future()
        self._head = b""
        self._size = 0
        self._parts: list[bytes] | None = None

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport

    def send(self, entry, line: bytes) -> None:
        self.pending.append(entry)
        self.transport.write(line)

    def data_received(self, data: bytes) -> None:
        received = time.perf_counter()
        start = 0
        while start < len(data):
            newline = data.find(b"\n", start)
            end = len(data) if newline < 0 else newline + 1
            if self._size == 0:
                self._parts = [] if self.client._wants_whole(self.pending[0]) else None
            if len(self._head) < HEAD_BYTES:
                self._head += data[start:min(end, start + HEAD_BYTES - len(self._head))]
            if self._parts is not None:
                self._parts.append(data[start:end])
            self._size += end - start
            start = end
            if newline >= 0:
                whole = b"".join(self._parts) if self._parts is not None else None
                head, size = self._head, self._size
                self._head, self._size, self._parts = b"", 0, None
                self.client._answer(self, head, size, whole, received)

    def connection_lost(self, exc: Exception | None) -> None:
        self.client._lost(self, exc)
        if not self.closed.done():
            self.closed.set_result(None)


class LoadClient:
    """Pipelined NDJSON connections and the load phases run over them."""

    def __init__(
        self,
        host: str,
        port: int,
        pool: RequestPool,
        *,
        n_conns: int,
        first_id: int = 0,
        sample_every: int = 50,
    ):
        self.host = host
        self.port = port
        self.pool = pool
        self.n_conns = n_conns
        self.sample_every = sample_every
        #: id of the next request; it also picks the job and whether the
        #: request asks to ``explain``, so clients of one run start where
        #: the previous one stopped and cycle on through the pool
        self.next_id = first_id
        self.max_version = 0
        #: (receive time, version) each time a newer version is first seen
        self.transitions: list[tuple[float, int]] = []
        self._conns: list[_Conn] = []
        self._phase: PhaseStats | None = None
        self._closed_loop = False
        self._window_end = 0.0
        self._outstanding = 0
        self._idle = asyncio.Event()

    async def open(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(self.n_conns):
            _, conn = await loop.create_connection(
                lambda: _Conn(self), self.host, self.port
            )
            self._conns.append(conn)

    async def close(self) -> None:
        for conn in self._conns:
            conn.transport.close()
        for conn in self._conns:
            await conn.closed
        self._conns.clear()

    async def control(self, payload: dict, timeout: float = 60.0) -> dict:
        """One control request (metrics, healthz) on the first connection."""
        future = asyncio.get_running_loop().create_future()
        self._conns[0].send(future, json.dumps(payload).encode() + b"\n")
        return json.loads(await asyncio.wait_for(future, timeout))

    # -- request path --------------------------------------------------------
    def _sampled(self, request_id: int) -> bool:
        """Kept whole for the oracles: 1 in ``sample_every``, and every
        ``explain`` answer."""
        return request_id % self.sample_every == 0 or self.pool.explains(request_id)

    def _wants_whole(self, entry) -> bool:
        return isinstance(entry, asyncio.Future) or self._sampled(entry.request_id)

    def _send_new(self, conn: _Conn, due: float) -> None:
        request_id = self.next_id
        self.next_id += 1
        self._outstanding += 1
        self._idle.clear()
        self._phase.sent += 1
        conn.send(_Pending(request_id, due, 1), self.pool.line(request_id))

    def _resend(self, conn: _Conn, entry: _Pending) -> None:
        conn.send(entry, self.pool.line(entry.request_id))

    def _lost(self, conn: _Conn, exc: Exception | None) -> None:
        """The connection closed: whatever is pending will never be answered."""
        if conn.pending and self._phase is not None:
            self._phase.errors.append(f"connection lost: {exc!r}")
        while conn.pending:
            entry = conn.pending.popleft()
            if isinstance(entry, asyncio.Future):
                if not entry.done():
                    entry.set_exception(ConnectionError("connection closed"))
            elif self._phase is not None:
                self._phase.failed += 1
                self._finish()

    def _answer(self, conn: _Conn, head: bytes, size: int, whole: bytes | None,
                received: float) -> None:
        entry = conn.pending.popleft()
        if isinstance(entry, asyncio.Future):
            if not entry.done():
                entry.set_result(whole)
            return
        phase = self._phase
        if head.startswith(_RESULT_HEAD):
            start = len(_RESULT_HEAD)
            comma = head.index(b",", start)
            request_id = int(head[start:comma])
            at = head.index(_VERSION_KEY, comma) + len(_VERSION_KEY)
            version = int(head[at:head.index(b",", at)])
            if request_id != entry.request_id:
                phase.failed += 1
                phase.errors.append(
                    f"answer id {request_id} arrived for request {entry.request_id}"
                )
            else:
                phase.ok += 1
                phase.response_bytes += size
                phase.latencies.append(received - entry.due)
                phase.versions.append((received, version))
                if received <= self._window_end:
                    phase.in_window += 1
                if version > self.max_version:
                    self.max_version = version
                    self.transitions.append((received, version))
                if whole is not None:
                    phase.samples.append((request_id, whole))
        elif entry.attempt < MAX_ATTEMPTS and any(m in head for m in _RETRIABLE):
            phase.retries += 1
            retry_after = json.loads(head).get("retry_after") if size == len(head) else None
            entry.attempt += 1
            asyncio.get_running_loop().call_later(
                retry_after or 0.05, self._resend, conn, entry
            )
            return
        else:
            phase.failed += 1
            phase.errors.append(head[:200].decode(errors="replace"))
        self._finish()
        if self._closed_loop and received < self._window_end:
            self._send_new(conn, time.perf_counter())

    def _finish(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self._idle.set()

    # -- phases --------------------------------------------------------------
    async def _run(self, phase: PhaseStats, body) -> PhaseStats:
        self._phase = phase
        gc.collect()
        gc.freeze()
        gc.disable()
        started = time.perf_counter()
        try:
            await body(started)
            phase.seconds = time.perf_counter() - started
            if self._outstanding:
                try:
                    await asyncio.wait_for(self._idle.wait(), DRAIN_TIMEOUT_S)
                except asyncio.TimeoutError:
                    phase.failed += self._outstanding
                    phase.errors.append(
                        f"{self._outstanding} requests unanswered after the phase"
                    )
        finally:
            gc.enable()
            gc.unfreeze()
            self._closed_loop = False
        return phase

    async def closed_loop(self, name: str, seconds: float, depth: int = 32) -> PhaseStats:
        """Keep *depth* requests in flight per connection for *seconds*."""

        async def body(started: float) -> None:
            self._window_end = started + seconds
            self._closed_loop = True
            for conn in self._conns:
                for _ in range(depth):
                    self._send_new(conn, started)
            await asyncio.sleep(seconds)
            self._closed_loop = False

        return await self._run(PhaseStats(name, "closed"), body)

    async def open_loop(self, name: str, seconds: float, rate: float) -> PhaseStats:
        """Send *rate* requests per second on a fixed schedule."""
        phase = PhaseStats(name, "open")

        async def body(started: float) -> None:
            self._window_end = float("inf")
            conns = self._conns
            for k in range(int(seconds * rate)):
                due = started + k / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                phase.lags.append(time.perf_counter() - due)
                self._send_new(conns[k % len(conns)], due)

        return await self._run(phase, body)
