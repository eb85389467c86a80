"""Client API and load generator for the rule-serving subsystem.

:class:`RuleServiceClient` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.service` over one connection; :func:`replay_traffic`
drives many clients concurrently against a service, replaying the
simulator-backed synthetic traces (PAI / SuperCloud / Philly) as if jobs
were arriving live — the workload shape the benchmark harness measures.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field

from ..traces import get_trace
from .service import MAX_LINE_BYTES

__all__ = [
    "ServiceError",
    "RuleServiceClient",
    "trace_transactions",
    "ReplayStats",
    "replay_traffic",
]


class ServiceError(RuntimeError):
    """The service answered with an error record."""

    def __init__(self, code: str, detail: str, retry_after: float | None = None):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail
        self.retry_after = retry_after


class RuleServiceClient:
    """One connection to a :class:`~repro.serve.service.RuleService`.

    :meth:`request` (and the :meth:`match`/:meth:`healthz`/:meth:`metrics`
    wrappers) are strictly sequential — one response awaited per send.
    The service also supports pipelining: :meth:`send` many requests
    before draining their responses with :meth:`receive` (answers come
    back in request order), which is how :func:`replay_traffic` keeps the
    service's batcher saturated.

    Backpressure is handled *inside* :meth:`request`: a retriable
    rejection (``overloaded``, or any error carrying a ``retry_after``
    hint, such as the router's ``shard_timeout``) is retried with
    bounded exponential backoff — the hint doubled per attempt, capped
    at *backoff_cap_s*, at most *max_retries* times — instead of
    surfacing to the caller.  Callers only see :class:`ServiceError`
    for terminal errors or once the retry budget is exhausted; pass
    ``max_retries=0`` to observe rejections directly.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_retries: int = 8,
        backoff_cap_s: float = 1.0,
    ):
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self.max_retries = max_retries
        self.backoff_cap_s = backoff_cap_s
        self.n_retried = 0

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        max_retries: int = 8,
        backoff_cap_s: float = 1.0,
    ) -> "RuleServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(
            reader,
            writer,
            max_retries=max_retries,
            backoff_cap_s=backoff_cap_s,
        )

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    async def __aenter__(self) -> "RuleServiceClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def send(self, payload: dict) -> int:
        """Pipelined send: write one request, return its assigned id.

        Pair each :meth:`send` with a later :meth:`receive`; the service
        answers a connection's requests in order.
        """
        self._next_id += 1
        request_id = self._next_id
        self._writer.write(
            json.dumps({**payload, "id": request_id}).encode() + b"\n"
        )
        await self._writer.drain()
        return request_id

    async def receive(self) -> dict:
        """Read the next response object (raw — error records included)."""
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    async def request(self, payload: dict) -> dict:
        """Send one request object, await its response object.

        Retriable rejections are absorbed by backoff-and-resend (see
        the class docstring); anything else raises :class:`ServiceError`.
        """
        attempt = 0
        while True:
            await self.send(payload)
            response = await self.receive()
            if response.get("type") != "error":
                return response
            retry_after = response.get("retry_after")
            retriable = (
                response.get("error") == "overloaded"
                or retry_after is not None
            )
            if not retriable or attempt >= self.max_retries:
                raise ServiceError(
                    response.get("error", "unknown"),
                    response.get("detail", ""),
                    retry_after,
                )
            self.n_retried += 1
            delay = min(
                (retry_after or 0.01) * (2**attempt), self.backoff_cap_s
            )
            attempt += 1
            await asyncio.sleep(delay)

    async def match(
        self, transaction: list[str], explain: bool = False
    ) -> dict:
        """Match one job; returns the ``match_result`` response object."""
        request: dict = {"type": "match", "transaction": list(transaction)}
        if explain:
            request["explain"] = True
        return await self.request(request)

    async def healthz(self) -> dict:
        return await self.request({"type": "healthz"})

    async def metrics(self) -> dict:
        return await self.request({"type": "metrics"})


def trace_transactions(
    trace: str, n_jobs: int, seed: int | None = None
) -> list[list[str]]:
    """Replayable job transactions from a synthetic trace.

    Generates *n_jobs* jobs of the named trace (the generators run the
    cluster-simulator substrate underneath), pushes them through the
    trace's Sec. III-E preprocessor, and renders each resulting
    transaction as the item strings the wire protocol carries.
    """
    definition = get_trace(trace)
    overrides = {} if seed is None else {"seed": seed}
    table = definition.generate_scaled(n_jobs=n_jobs, **overrides)
    db = definition.make_preprocessor().run(table).database
    return [
        sorted(str(item) for item in txn) for txn in db.iter_item_transactions()
    ]


@dataclass(slots=True)
class ReplayStats:
    """Outcome of one load-generation run."""

    n_requests: int = 0
    n_fired: int = 0
    n_retried: int = 0
    n_failed: int = 0
    seconds: float = 0.0
    fired_rules: dict[int, int] = field(default_factory=dict)

    @property
    def requests_per_second(self) -> float:
        return self.n_requests / self.seconds if self.seconds > 0 else 0.0

    def render(self) -> str:
        return (
            f"{self.n_requests} requests in {self.seconds:.2f}s "
            f"({self.requests_per_second:,.0f} req/s), "
            f"{self.n_fired} rule firings, {self.n_retried} retries after "
            f"backpressure, {self.n_failed} failed"
        )


async def replay_traffic(
    host: str,
    port: int,
    transactions: list[list[str]],
    *,
    concurrency: int = 8,
    window: int = 32,
    max_retries: int = 20,
) -> ReplayStats:
    """Replay *transactions* against a running service.

    Each of *concurrency* workers opens its own connection and pipelines
    its share of the jobs, keeping up to *window* requests in flight
    before draining responses (the service answers in request order).
    ``overloaded`` rejections are honoured by backing off for the
    advertised ``retry_after`` and re-sending (up to *max_retries* times
    per job) — the cooperative half of the backpressure contract.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    stats = ReplayStats()

    async def worker(jobs: list[list[str]]) -> None:
        async with await RuleServiceClient.connect(host, port) as client:
            todo = deque((transaction, 0) for transaction in jobs)
            inflight: dict[int, tuple[list[str], int]] = {}
            while todo or inflight:
                while todo and len(inflight) < window:
                    transaction, attempts = todo.popleft()
                    request_id = await client.send(
                        {"type": "match", "transaction": transaction}
                    )
                    inflight[request_id] = (transaction, attempts)
                response = await client.receive()
                transaction, attempts = inflight.pop(response.get("id"))
                if response.get("type") == "error":
                    retriable = (
                        response.get("error") == "overloaded"
                        or response.get("retry_after") is not None
                    )
                    if retriable and attempts < max_retries:
                        stats.n_retried += 1
                        await asyncio.sleep(response.get("retry_after") or 0.01)
                        todo.appendleft((transaction, attempts + 1))
                    else:
                        stats.n_failed += 1
                    continue
                stats.n_requests += 1
                stats.n_fired += len(response["fired"])
                for match in response["fired"]:
                    rule_id = match["rule_id"]
                    stats.fired_rules[rule_id] = (
                        stats.fired_rules.get(rule_id, 0) + 1
                    )

    shards = [transactions[i::concurrency] for i in range(concurrency)]
    started = time.perf_counter()
    await asyncio.gather(*(worker(shard) for shard in shards if shard))
    stats.seconds = time.perf_counter() - started
    return stats
