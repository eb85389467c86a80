"""Reusable fault-injection harness for the serving subsystem.

The chaos tests (``test_serve_chaos.py``) and any later streaming /
incremental-serving PRs drive real multi-process clusters through the
four production failure modes this module packages:

* :meth:`ChaosCluster.kill` — SIGKILL a shard mid-load (replica loss);
* :meth:`ChaosCluster.stall` / :meth:`ChaosCluster.resume` — SIGSTOP a
  worker so it stays connected but silent (the gray-failure case that
  pure liveness checks miss);
* :func:`abort_mid_batch` — a client that pipelines requests and
  vanishes without reading its responses (mid-batch disconnect);
* :meth:`ChaosCluster.reload` — rulebook hot-swap under sustained load.

:class:`LoadDriver` supplies the "under sustained load" part: N
sequential clients looping over a transaction pool until told to stop,
recording every response's version, fired rules and every error that
survived the client's own retry budget, so tests can assert *zero failed
requests*, check every answer against the scalar serve oracle of the
version that gave it, and inspect version trajectories around a fault.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import signal
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.items import Item
from repro.serve import RuleBook, RuleIndex, RuleServiceClient, ServiceError
from repro.serve.service import MAX_LINE_BYTES
from repro.serve.shard import ShardCluster

from .serve_oracle import CountdownOracle
from .test_serve_rulebook import random_rules

__all__ = [
    "make_rulebook",
    "book_oracle",
    "save_rulebook",
    "random_transactions",
    "ChaosCluster",
    "LoadDriver",
    "abort_mid_batch",
]


def make_rulebook(seed: int, n_rules: int = 80, n_items: int = 30) -> RuleBook:
    """A deterministic random rulebook for chaos scenarios."""
    return RuleBook(rules=random_rules(random.Random(seed), n_rules, n_items))


def book_oracle(book: RuleBook) -> CountdownOracle:
    """The scalar serve oracle of *book*, for checking answers under load."""
    return CountdownOracle(RuleIndex.from_rulebook(book))


def save_rulebook(book: RuleBook, directory: Path, name: str) -> str:
    path = directory / f"{name}.rulebook.jsonl"
    book.save(path)
    return str(path)


def random_transactions(
    seed: int, n: int, n_items: int = 30, max_len: int = 8
) -> list[list[str]]:
    """Transactions over the same item vocabulary `random_rules` uses."""
    rng = random.Random(seed)
    vocabulary = [str(Item(f"F{k % 7}", f"v{k}")) for k in range(n_items)]
    return [
        sorted(rng.sample(vocabulary, rng.randint(1, max_len)))
        for _ in range(n)
    ]


class ChaosCluster:
    """A real multi-process shard cluster plus fault injection.

    Async context manager: enters with the cluster serving, exits with
    every worker stopped (including killed or stalled ones — SIGCONT is
    sent on teardown so a stalled worker can die).
    """

    def __init__(
        self,
        rulebook_path: str,
        n_shards: int,
        *,
        request_timeout_s: float = 2.0,
        max_queue: int | None = None,
        max_batch: int | None = None,
    ):
        self.cluster = ShardCluster(
            rulebook_path,
            n_shards,
            request_timeout_s=request_timeout_s,
            max_queue=max_queue,
            max_batch=max_batch,
        )

    async def __aenter__(self) -> "ChaosCluster":
        await self.cluster.start()
        return self

    async def __aexit__(self, *exc) -> None:
        for worker in self.cluster.workers:  # un-stall before teardown
            try:
                worker.send_signal(signal.SIGCONT)
            except ProcessLookupError:
                pass
        await self.cluster.shutdown()

    @property
    def host(self) -> str:
        return self.cluster.host

    @property
    def port(self) -> int:
        return self.cluster.port

    def kill(self, k: int) -> int:
        """SIGKILL shard *k*; returns its pid."""
        worker = self.cluster.kill_shard(k)
        assert worker.pid is not None
        return worker.pid

    def stall(self, k: int) -> None:
        """SIGSTOP shard *k*: still connected, answering nothing."""
        self.cluster.workers[k].send_signal(signal.SIGSTOP)

    def resume(self, k: int) -> None:
        self.cluster.workers[k].send_signal(signal.SIGCONT)

    async def reload(self, rulebook_path: str, **kwargs) -> dict:
        return await self.cluster.reload(rulebook_path, **kwargs)


@dataclass
class LoadRecord:
    """One answered request under load."""

    worker: int
    version: int | None  # None for error responses
    error: str | None
    #: send order across all workers (the driver's request count at send)
    sent: int = 0
    transaction: list[str] | None = None
    #: ``(rule_id, consequent_observed)`` per fired rule of the answer
    fired: list[tuple[int, bool]] | None = None


@dataclass
class LoadOutcome:
    records: list[LoadRecord] = field(default_factory=list)

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.records if r.error is None)

    @property
    def failures(self) -> list[LoadRecord]:
        return [r for r in self.records if r.error is not None]

    def wrong_answers(
        self, oracles: dict[int, CountdownOracle]
    ) -> list[LoadRecord]:
        """Answered records whose fired rules differ from the oracle of
        the book version that answered them."""
        return [
            r
            for r in self.records
            if r.error is None
            and r.fired != oracles[r.version].fired(r.transaction)
        ]

    def versions_after(self, marker: int) -> list[int]:
        """Versions that answered the requests *sent* after *marker*.

        A request already in flight when the marker was taken may be
        answered by the old version, and its answer may reach the client
        after the marker — so only later sends say what serves now.
        """
        return [
            r.version
            for r in self.records
            if r.sent >= marker and r.version is not None
        ]


class LoadDriver:
    """Sustained background load against one endpoint.

    Each of *concurrency* workers opens its own connection and issues
    sequential match requests (cycling over *transactions*) until
    :meth:`stop`.  The client's built-in bounded backoff absorbs
    retriable rejections; whatever still fails is recorded — so a test
    asserting ``outcome.failures == []`` is asserting the strong form of
    graceful degradation: *no client ever saw an unrecovered error*.

    Workers transparently reconnect if their connection drops (the
    router stays up across shard faults, but a client connection can
    still be cut).
    """

    def __init__(
        self,
        host: str,
        port: int,
        transactions: list[list[str]],
        *,
        concurrency: int = 4,
        max_retries: int = 100,
        backoff_cap_s: float = 0.1,
    ):
        self.host = host
        self.port = port
        self.transactions = transactions
        self.concurrency = concurrency
        self.max_retries = max_retries
        self.backoff_cap_s = backoff_cap_s
        self.outcome = LoadOutcome()
        self._n_sent = 0
        self._stop = asyncio.Event()
        self._tasks: list[asyncio.Task] = []

    async def __aenter__(self) -> "LoadDriver":
        self._tasks = [
            asyncio.create_task(self._worker(k))
            for k in range(self.concurrency)
        ]
        return self

    async def __aexit__(self, *exc) -> None:
        if self._tasks:
            await self.stop()

    async def _worker(self, worker_id: int) -> None:
        client: RuleServiceClient | None = None
        pool = itertools.cycle(
            self.transactions[worker_id::self.concurrency]
            or self.transactions
        )
        try:
            while not self._stop.is_set():
                if client is None:
                    try:
                        client = await RuleServiceClient.connect(
                            self.host,
                            self.port,
                            max_retries=self.max_retries,
                            backoff_cap_s=self.backoff_cap_s,
                        )
                    except OSError:
                        await asyncio.sleep(0.05)
                        continue
                transaction = next(pool)
                sent = self._n_sent
                self._n_sent += 1
                try:
                    response = await client.match(transaction)
                except ServiceError as exc:
                    self.outcome.records.append(
                        LoadRecord(worker_id, None, exc.code, sent)
                    )
                except (ConnectionError, OSError):
                    await client.close()
                    client = None
                    continue
                else:
                    self.outcome.records.append(
                        LoadRecord(
                            worker_id,
                            response.get("version"),
                            None,
                            sent,
                            transaction,
                            [
                                (f["rule_id"], f["consequent_observed"])
                                for f in response["fired"]
                            ],
                        )
                    )
        finally:
            if client is not None:
                await client.close()

    def marker(self) -> int:
        """Requests sent so far — snapshot before injecting a fault."""
        return self._n_sent

    async def wait_for_progress(
        self, n_more: int, timeout: float = 10.0
    ) -> None:
        """Block until *n_more* further requests complete successfully.

        The liveness assertion of every chaos test: raises
        ``TimeoutError`` if the cluster stops making progress — i.e.
        clients hung.
        """
        target_ok = self.outcome.n_ok + n_more
        async with asyncio.timeout(timeout):
            while self.outcome.n_ok < target_ok:
                await asyncio.sleep(0.01)

    async def stop(self) -> LoadOutcome:
        self._stop.set()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        return self.outcome


async def abort_mid_batch(
    host: str,
    port: int,
    transactions: list[list[str]],
    *,
    n_pipelined: int = 32,
    n_read: int = 3,
) -> None:
    """Pipeline *n_pipelined* requests, read *n_read* answers, vanish.

    Models a client that dies mid-batch: its remaining responses are
    answered into a closed socket.  The service must drop them without
    disturbing other connections — the caller asserts that by keeping a
    LoadDriver running across this call.
    """
    reader, writer = await asyncio.open_connection(
        host, port, limit=MAX_LINE_BYTES
    )
    for k in range(n_pipelined):
        transaction = transactions[k % len(transactions)]
        writer.write(
            json.dumps(
                {"type": "match", "id": k, "transaction": transaction}
            ).encode()
            + b"\n"
        )
    await writer.drain()
    for _ in range(n_read):
        await reader.readline()
    # abort: close without reading the other n_pipelined - n_read answers
    writer.transport.abort()
