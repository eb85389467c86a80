"""Front-end router: one public endpoint over N rule-serving shards.

The router speaks the exact NDJSON protocol of
:mod:`repro.serve.service` to clients and holds one pipelined upstream
connection per shard.  ``match`` requests are forwarded *verbatim*
(bytes in, bytes out — the shard echoes the client's request id, so no
re-encoding happens on the hot path) to the healthy shard with the
fewest requests in flight; control requests are aggregated:

* ``healthz`` — router-level status (``ok``/``degraded``/
  ``unavailable``) plus per-shard health, in-flight counts and EWMA
  latencies, augmented with rule count/version probed from a live shard;
* ``metrics`` — per-shard metrics fanned out and merged through
  :func:`aggregate_shard_metrics` (true histogram merging, not quantile
  averaging), plus router-side routing counters;
* ``reload`` — rolling hot-swap: shards flip one at a time with an
  explicit shared version number, so the cluster keeps serving
  throughout and every post-flip response carries the same new tag.

Failure semantics, which the chaos tests pin down:

* a shard that dies mid-request fails its pending forwards with
  :class:`ShardDown`; matching is a read-only idempotent operation, so
  the router transparently retries each one on another healthy shard —
  clients never see a vanished replica unless *no* shard remains;
* a shard that stalls (alive but silent) trips the per-request timeout;
  the client gets a well-formed retriable error and, because the
  stalled shard's in-flight count keeps growing, the fewest-in-flight
  rule steers subsequent traffic away from it;
* when no healthy shard can take a request the router sheds load
  exactly like a single service does: ``overloaded`` + ``retry_after``.

Order preservation: responses to one client connection return in that
connection's request order (the service's :class:`NdjsonConnection`
framing), even though requests fan out to different shards.
"""

from __future__ import annotations

import asyncio
import collections
import json
import time
from typing import Callable, Iterable, Sequence

from ..engine.stats import LatencyHistogram
from .service import (
    PROTOCOL_VERSION,
    LineFraming,
    NdjsonConnection,
    _encode,
    _error,
    _error_line,
    close_connections,
    reload_problem,
)

__all__ = ["ShardDown", "ShardHandle", "ShardRouter", "aggregate_shard_metrics"]

#: EWMA smoothing for per-shard latency (fraction given to the newest sample)
EWMA_ALPHA = 0.2

#: reconnect backoff bounds, seconds
RECONNECT_MIN_S = 0.05
RECONNECT_MAX_S = 2.0


def aggregate_shard_metrics(shard_metrics: list[dict]) -> dict:
    """Merge per-shard serving ``metrics`` payloads into a cluster view.

    Input dicts are what one :class:`~repro.serve.service.RuleService`
    answers to a ``metrics`` request: request counters under
    ``requests``, per-rule fire counts under ``rule_matches``, and the
    latency histogram both summarised (``latency``) and as raw state
    (``latency_state``).  Counters, rule counts, and the batch-kernel
    attribution (``kernel``: batches/jobs/seconds) sum; latency merges
    at the bucket level, so the aggregate p99 is the true cluster p99,
    not an average of per-shard p99s; ``uptime_s`` is the oldest
    shard's (the cluster has been serving at least that long);
    ``queue_depth`` sums (total queued work across the cluster).
    """
    merged_latency = LatencyHistogram()
    requests: dict[str, int] = {}
    rule_matches: dict[str, int] = {}
    kernel: dict[str, float] = {"batches": 0, "jobs": 0, "seconds": 0.0}
    uptime_s = 0.0
    queue_depth = 0
    for metrics in shard_metrics:
        state = metrics.get("latency_state")
        if state:
            merged_latency.merge(state)
        for key, value in (metrics.get("requests") or {}).items():
            requests[key] = requests.get(key, 0) + int(value)
        for label, count in (metrics.get("rule_matches") or {}).items():
            rule_matches[label] = rule_matches.get(label, 0) + int(count)
        for key, value in (metrics.get("kernel") or {}).items():
            kernel[key] = kernel.get(key, 0) + value
        uptime_s = max(uptime_s, float(metrics.get("uptime_s") or 0.0))
        queue_depth += int(metrics.get("queue_depth") or 0)
    return {
        "n_shards": len(shard_metrics),
        "uptime_s": uptime_s,
        "queue_depth": queue_depth,
        "latency": merged_latency.as_dict(),
        "latency_state": merged_latency.state_dict(),
        "requests": requests,
        "kernel": kernel,
        "rule_matches": dict(sorted(rule_matches.items())),
    }


class ShardDown(ConnectionError):
    """The upstream shard connection died with this request pending."""


def _timed_out(future: asyncio.Future) -> None:
    future.set_exception(asyncio.TimeoutError("shard did not answer in time"))


def _shard_down(future: asyncio.Future) -> None:
    future.set_exception(ShardDown("shard connection lost"))


class ShardHandle(LineFraming):
    """One upstream shard: the protocol of a supervised, pipelined link.

    A supervisor task dials the shard and redials with exponential
    backoff; the rest happens in protocol callbacks.  The shard answers
    in order, so each response line settles the oldest entry of the
    FIFO ``pending`` queue.  One deadline timer per shard, re-armed to
    the earliest open deadline, times requests out.  The routing signal
    ``inflight`` and the reported ``ewma_latency_s`` are maintained
    here, next to the socket that defines them.
    """

    def __init__(
        self,
        name: str,
        host: str,
        port: int,
        *,
        pid: int | None = None,
    ):
        super().__init__()
        self.name = name
        self.host = host
        self.port = port
        self.pid = pid
        self.ewma_latency_s = 0.0
        self.latency = LatencyHistogram()
        self.n_answered = 0
        self.n_conn_failures = 0
        self.n_timeouts = 0
        self.n_protocol_errors = 0
        self._transport: asyncio.Transport | None = None
        self._pending: collections.deque = collections.deque()
        self._outbox: list[bytes] = []
        self._timer: asyncio.TimerHandle | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._lost: asyncio.Future | None = None
        self._supervisor: asyncio.Task | None = None

    def __repr__(self) -> str:
        state = "up" if self.healthy else "down"
        return (
            f"ShardHandle({self.name} {self.host}:{self.port} {state} "
            f"inflight={self.inflight})"
        )

    @property
    def healthy(self) -> bool:
        return self._transport is not None

    @property
    def inflight(self) -> int:
        """Requests sent and not yet answered (timed-out ones included)."""
        return len(self._pending)

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> None:
        """Begin supervising the upstream connection (idempotent)."""
        if self._supervisor is None or self._supervisor.done():
            self._loop = asyncio.get_running_loop()
            self._supervisor = asyncio.create_task(self._supervise())

    async def close(self) -> None:
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        if self._transport is not None:
            self._transport.abort()
            await self._lost

    # -- request path ------------------------------------------------------------
    def submit(
        self,
        line: bytes,
        timeout: float | None = None,
        future: asyncio.Future | None = None,
        on_timeout: Callable[[asyncio.Future], None] = _timed_out,
        on_lost: Callable[[asyncio.Future], None] = _shard_down,
    ) -> asyncio.Future:
        """Send one request line (no newline); *future* gets the answer.

        Lines submitted in one loop turn leave in one write.  Past
        *timeout* the entry is handed to *on_timeout* (default: fail
        with :class:`asyncio.TimeoutError`) but keeps its slot, so later
        responses stay aligned — and a stalled shard's ``inflight``
        keeps climbing, the signal the router steers away from.
        If the link dies first, *on_lost* gets it (default: fail with
        :class:`ShardDown`).
        """
        if not self.healthy:
            raise ShardDown(f"shard {self.name} is not connected")
        if future is None:
            future = self._loop.create_future()
        now = self._loop.time()
        deadline = None
        if timeout is not None:
            deadline = now + timeout
            if self._timer is None or deadline < self._timer.when():
                self._arm(deadline)
        self._pending.append((future, now, deadline, on_timeout, on_lost))
        if not self._outbox:
            self._loop.call_soon(self._send)
        self._outbox.append(line)
        return future

    def _send(self) -> None:
        if self._outbox and self._transport is not None:
            self._outbox.append(b"")
            self._transport.write(b"\n".join(self._outbox))
        self._outbox.clear()

    def _arm(self, deadline: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self._loop.call_at(deadline, self._expire)

    def _expire(self) -> None:
        """Time out every open entry past its deadline; re-arm for the rest."""
        self._timer = None
        now = self._loop.time()
        earliest = None
        for future, _sent_at, deadline, on_timeout, _on_lost in self._pending:
            if deadline is None or future.done():
                continue
            if deadline <= now:
                self.n_timeouts += 1
                on_timeout(future)
            elif earliest is None or deadline < earliest:
                earliest = deadline
        if earliest is not None:
            self._arm(earliest)

    # -- the upstream protocol --------------------------------------------------
    async def _supervise(self) -> None:
        backoff = RECONNECT_MIN_S
        while True:
            try:
                await self._loop.create_connection(
                    lambda: self, self.host, self.port
                )
            except OSError:
                self.n_conn_failures += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, RECONNECT_MAX_S)
                continue
            backoff = RECONNECT_MIN_S
            await asyncio.shield(self._lost)

    def connection_made(self, transport) -> None:
        LineFraming.__init__(self)  # fresh framing per link
        self._transport = transport
        self._lost = self._loop.create_future()

    def data_received(self, data: bytes) -> None:
        lines = self._frame(data)
        if lines is None:
            return self._violation()
        for line in lines:
            if not self._settle(line + b"\n"):
                return

    def _settle(self, line: bytes) -> bool:
        """Pair one response line with the oldest pending request."""
        if not self._pending:
            self._violation()  # an answer nobody asked for
            return False
        future, sent_at, _deadline, _on_timeout, _on_lost = (
            self._pending.popleft()
        )
        elapsed = self._loop.time() - sent_at
        self.latency.record(elapsed)
        self.n_answered += 1
        self.ewma_latency_s = (
            elapsed
            if self.n_answered == 1
            else EWMA_ALPHA * elapsed + (1 - EWMA_ALPHA) * self.ewma_latency_s
        )
        if not future.done():
            future.set_result(line)
        return True

    def _violation(self) -> None:
        """The shard broke the one-answer-per-request framing: the link
        can no longer be trusted to align, so drop it (its open requests
        retry elsewhere) and let the supervisor redial."""
        self.n_protocol_errors += 1
        self._transport.abort()  # connection_lost follows next loop turn
        self._transport = None  # unhealthy from now on

    def connection_lost(self, exc) -> None:
        self._transport = None
        self._outbox.clear()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        pending, self._pending = self._pending, collections.deque()
        for future, _sent_at, _deadline, _on_timeout, on_lost in pending:
            if not future.done():
                on_lost(future)
        self._lost.set_result(None)

    def info(self) -> dict:
        """The healthz/metrics view of this shard."""
        return {
            "name": self.name,
            "host": self.host,
            "port": self.port,
            "pid": self.pid,
            "healthy": self.healthy,
            "inflight": self.inflight,
            "ewma_latency_ms": self.ewma_latency_s * 1e3,
            "answered": self.n_answered,
            "conn_failures": self.n_conn_failures,
            "timeouts": self.n_timeouts,
            "protocol_errors": self.n_protocol_errors,
        }


class ShardRouter:
    """The public endpoint of a sharded rule-serving deployment."""

    def __init__(
        self,
        shards: Iterable[ShardHandle | tuple[str, int]],
        *,
        request_timeout_s: float | None = 30.0,
        control_timeout_s: float = 60.0,
        retry_after_s: float = 0.05,
        max_inflight_per_shard: int = 1024,
        name: str = "router",
    ):
        self.handles: list[ShardHandle] = []
        for k, shard in enumerate(shards):
            if isinstance(shard, ShardHandle):
                self.handles.append(shard)
            else:
                host, port = shard
                self.handles.append(ShardHandle(f"shard{k}", host, port))
        if not self.handles:
            raise ValueError("a router needs at least one shard")
        self.request_timeout_s = request_timeout_s
        self.control_timeout_s = control_timeout_s
        self.retry_after_s = retry_after_s
        self.max_inflight_per_shard = max_inflight_per_shard
        self.name = name
        self.started_at = time.monotonic()
        self.n_routed = 0
        self.n_shard_retries = 0
        self.n_timeouts = 0
        self.n_unrouteable = 0
        self.n_bad_requests = 0
        self._turn = 0
        self._server: asyncio.Server | None = None
        self._connections: set[NdjsonConnection] = set()
        self._draining = False

    # -- lifecycle ---------------------------------------------------------------
    async def start(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        wait_healthy_s: float = 10.0,
    ) -> asyncio.Server:
        """Dial every shard, then open the public listener.

        Requires at least one shard to come up within *wait_healthy_s*;
        stragglers keep redialing in the background.
        """
        if self._server is not None:
            raise RuntimeError("router already started")
        self.started_at = time.monotonic()
        self._draining = False
        for handle in self.handles:
            handle.start()
        deadline = time.monotonic() + wait_healthy_s
        while time.monotonic() < deadline:
            if all(handle.healthy for handle in self.handles):
                break
            await asyncio.sleep(0.01)
        if not any(h.healthy for h in self.handles):
            for handle in self.handles:
                await handle.close()
            raise ConnectionError(
                f"no shard became healthy within {wait_healthy_s}s: "
                f"{self.handles}"
            )
        self._server = await asyncio.get_running_loop().create_server(
            lambda: NdjsonConnection(self._dispatch, self._connections),
            host,
            port,
        )
        return self._server

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("router is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def shutdown(self) -> None:
        """Stop accepting, let in-flight forwards finish, close shards."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await close_connections(self._connections, 2.0)
        for handle in self.handles:
            await handle.close()

    # -- connection handling -----------------------------------------------------
    def _dispatch(self, line: bytes) -> bytes | asyncio.Future:
        try:
            request = json.loads(line.decode())
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except (json.JSONDecodeError, ValueError, UnicodeDecodeError) as exc:
            self.n_bad_requests += 1
            return _error_line(None, "bad_request", str(exc))
        request_id = request.get("id")
        kind = request.get("type")
        if kind == "match":
            if self._draining:
                return _error_line(
                    request_id, "shutting_down", "router is draining"
                )
            return self._forward(line, request_id)
        if kind == "healthz":
            return asyncio.ensure_future(self._healthz(request_id))
        if kind == "metrics":
            return asyncio.ensure_future(self._metrics(request_id))
        if kind == "reload":
            return asyncio.ensure_future(self._reload(request, request_id))
        self.n_bad_requests += 1
        return _error_line(
            request_id, "bad_request", f"unknown request type {kind!r}"
        )

    # -- match forwarding --------------------------------------------------------
    def _candidates(
        self, tried: Sequence[ShardHandle]
    ) -> list[ShardHandle]:
        return [
            h
            for h in self.handles
            if h.healthy
            and h not in tried
            and h.inflight < self.max_inflight_per_shard
        ]

    def _forward(
        self,
        line: bytes,
        request_id,
        future: asyncio.Future | None = None,
        tried: tuple[ShardHandle, ...] = (),
    ) -> asyncio.Future:
        """Route one match request; retry replica failures, shed overload.

        Returns the future the chosen shard settles with its answer
        line; a retry re-submits the same future to another shard.
        """
        if future is None:
            future = asyncio.get_running_loop().create_future()
        candidates = self._candidates(tried)
        if not candidates:
            self.n_unrouteable += 1
            future.set_result(
                self._retriable(
                    request_id, "overloaded", "no healthy shard available"
                )
            )
            return future
        # fewest requests in flight wins; the start of the scan rotates,
        # so ties (an idle fleet) still spread over every shard
        n = len(candidates)
        first = self._turn % n
        self._turn += 1
        shard = candidates[first]
        for k in range(first + 1, first + n):
            other = candidates[k % n]
            if other.inflight < shard.inflight:
                shard = other
        if not tried:
            self.n_routed += 1

        def on_timeout(future: asyncio.Future) -> None:
            self.n_timeouts += 1
            future.set_result(
                self._retriable(
                    request_id,
                    "shard_timeout",
                    f"shard {shard.name} did not answer within "
                    f"{self.request_timeout_s}s",
                )
            )

        def on_lost(future: asyncio.Future) -> None:
            # the replica vanished mid-request; matching is idempotent,
            # so another replica can answer instead
            self.n_shard_retries += 1
            self._forward(line, request_id, future, (*tried, shard))

        shard.submit(line, self.request_timeout_s, future, on_timeout, on_lost)
        return future

    def _retriable(self, request_id, code: str, detail: str) -> bytes:
        response = _error(request_id, code, detail)
        response["retry_after"] = self.retry_after_s
        return _encode(response)

    # -- control plane -----------------------------------------------------------
    async def _probe_one(self, request: dict) -> dict:
        """Ask the first healthy shard that answers; {} if none do."""
        line = json.dumps(request).encode()
        for handle in self.handles:
            try:
                raw = await handle.submit(line, self.control_timeout_s)
                return json.loads(raw)
            except (ShardDown, asyncio.TimeoutError, json.JSONDecodeError):
                continue
        return {}

    def _shard_infos(self) -> list[dict]:
        return [handle.info() for handle in self.handles]

    async def _healthz(self, request_id) -> bytes:
        n_healthy = sum(1 for h in self.handles if h.healthy)
        if self._draining:
            status = "draining"
        elif n_healthy == len(self.handles):
            status = "ok"
        elif n_healthy:
            status = "degraded"
        else:
            status = "unavailable"
        probe = await self._probe_one({"type": "healthz"})
        return _encode(
            {
                "type": "healthz",
                "id": request_id,
                "status": status,
                "role": "router",
                "name": self.name,
                "protocol_version": PROTOCOL_VERSION,
                "uptime_s": time.monotonic() - self.started_at,
                "n_shards": len(self.handles),
                "n_healthy": n_healthy,
                "n_rules": probe.get("n_rules"),
                "version": probe.get("version"),
                "version_tag": probe.get("version_tag"),
                "shards": self._shard_infos(),
            }
        )

    async def _metrics(self, request_id) -> bytes:
        line = b'{"type": "metrics"}'

        async def scrape(handle: ShardHandle) -> dict | None:
            try:
                raw = await handle.submit(line, self.control_timeout_s)
                return json.loads(raw)
            except (ShardDown, asyncio.TimeoutError, json.JSONDecodeError):
                return None

        scraped = await asyncio.gather(*(scrape(h) for h in self.handles))
        shard_metrics = [m for m in scraped if m is not None]
        merged = aggregate_shard_metrics(shard_metrics)
        # the router-side view: true end-to-end latency per shard link
        router_latency = LatencyHistogram()
        for handle in self.handles:
            router_latency.merge(handle.latency)
        return _encode(
            {
                "type": "metrics",
                "id": request_id,
                "role": "router",
                "uptime_s": time.monotonic() - self.started_at,
                **merged,
                "router": {
                    "routed": self.n_routed,
                    "shard_retries": self.n_shard_retries,
                    "timeouts": self.n_timeouts,
                    "unrouteable": self.n_unrouteable,
                    "bad_requests": self.n_bad_requests,
                    "latency": router_latency.as_dict(),
                    "shards": self._shard_infos(),
                },
            }
        )

    async def _reload(self, request: dict, request_id) -> bytes:
        """Rolling hot-swap across shards, one at a time.

        Every shard is told the *same* explicit version number (current
        cluster max + 1), so responses tagged with the new version mean
        the same rulebook no matter which replica answered.
        """
        problem = reload_problem(request)
        if problem is not None:
            self.n_bad_requests += 1
            return _error_line(request_id, "bad_request", problem)
        version = request.get("version")
        if version is None:
            probe = await self._probe_one({"type": "healthz"})
            version = int(probe.get("version") or 0) + 1
        payload: dict = {"type": "reload", "version": version}
        # with a segment, the shards attach the published shared-memory
        # plane and only fall back to the rulebook path if that fails
        for key in ("rulebook", "segment", "version_tag"):
            if request.get(key) is not None:
                payload[key] = request[key]
        line = json.dumps(payload).encode()
        outcomes = []
        n_rules = None
        version_tag = request.get("version_tag")
        for handle in self.handles:
            if not handle.healthy:
                outcomes.append(
                    {"name": handle.name, "ok": False, "error": "unhealthy"}
                )
                continue
            try:
                raw = await handle.submit(line, self.control_timeout_s)
                result = json.loads(raw)
            except (ShardDown, asyncio.TimeoutError) as exc:
                outcomes.append(
                    {"name": handle.name, "ok": False, "error": repr(exc)}
                )
                continue
            if result.get("type") == "reload_result":
                n_rules = result.get("n_rules")
                version_tag = result.get("version_tag", version_tag)
                outcome = {"ok": True, "version": result.get("version")}
            else:
                detail = result.get("detail", "reload refused")
                outcome = {"ok": False, "error": detail}
            outcomes.append({"name": handle.name, **outcome})
        status = "ok" if all(o["ok"] for o in outcomes) else "partial"
        return _encode(
            {
                "type": "reload_result",
                "id": request_id,
                "status": status,
                "version": version,
                "version_tag": version_tag,
                "n_rules": n_rules,
                "shards": outcomes,
            }
        )
