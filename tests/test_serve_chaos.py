"""Fault-injection tests: real worker processes, real signals.

Each scenario runs a genuine multi-process cluster (``repro serve
--shards N`` under the hood) and injects the fault through the
``serve_chaos`` harness while a :class:`~tests.serve_chaos.LoadDriver`
keeps sustained traffic flowing.  The common acceptance shape:

* **liveness** — ``wait_for_progress`` proves clients never hang;
* **zero unrecovered failures** — the router's replica-retry plus the
  client's bounded backoff absorb every injected fault;
* **observability** — healthz/metrics report the degradation honestly.
"""

import asyncio
import os
import signal

import pytest

from repro.serve import RuleServiceClient
from repro.serve.shard import run_cluster

from .serve_chaos import (
    ChaosCluster,
    LoadDriver,
    abort_mid_batch,
    book_oracle,
    make_rulebook,
    random_transactions,
    save_rulebook,
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def book_path(tmp_path):
    return save_rulebook(make_rulebook(seed=1), tmp_path, "chaos")


def launched_book_oracle() -> dict:
    """Oracle by served version for clusters launched on ``book_path``."""
    return {1: book_oracle(make_rulebook(seed=1))}


class TestKillShard:
    def test_kill_one_of_three_under_load(self, book_path):
        transactions = random_transactions(seed=2, n=64)

        async def scenario():
            async with ChaosCluster(book_path, 3) as chaos:
                async with LoadDriver(
                    chaos.host, chaos.port, transactions
                ) as driver:
                    await driver.wait_for_progress(50, timeout=30)
                    chaos.kill(1)
                    # remaining shards keep serving; nobody hangs
                    await driver.wait_for_progress(100, timeout=30)
                    outcome = await driver.stop()

                # the strong form of graceful degradation: replica
                # retries + client backoff absorbed the replica loss
                assert outcome.failures == [], outcome.failures[:5]
                assert outcome.n_ok >= 150
                wrong = outcome.wrong_answers(launched_book_oracle())
                assert wrong == [], wrong[:3]

                async with await RuleServiceClient.connect(
                    chaos.host, chaos.port
                ) as client:
                    health = await client.healthz()
                    assert health["status"] == "degraded"
                    assert health["n_healthy"] == 2
                    down = [
                        s for s in health["shards"] if not s["healthy"]
                    ]
                    assert [s["name"] for s in down] == ["shard1"]
                    # and the survivors still answer matches
                    result = await client.match(transactions[0])
                    assert result["type"] == "match_result"

        run(scenario())


class TestStalledShard:
    def test_stall_routes_around_silent_worker(self, book_path):
        transactions = random_transactions(seed=3, n=64)

        async def scenario():
            # a stalled shard's in-flight count climbs, so the router's
            # fewest-in-flight rule steers new traffic away; a short
            # request timeout bounds the requests already stuck on it
            async with ChaosCluster(
                book_path, 3, request_timeout_s=1.0
            ) as chaos:
                async with LoadDriver(
                    chaos.host, chaos.port, transactions
                ) as driver:
                    await driver.wait_for_progress(30, timeout=30)
                    chaos.stall(0)
                    await driver.wait_for_progress(100, timeout=45)
                    chaos.resume(0)
                    await driver.wait_for_progress(30, timeout=30)
                    outcome = await driver.stop()

                assert outcome.failures == [], outcome.failures[:5]
                assert outcome.n_ok >= 160
                wrong = outcome.wrong_answers(launched_book_oracle())
                assert wrong == [], wrong[:3]

                # the stalled shard takes a request only while its stuck
                # count is no higher than a live shard's in-flight count,
                # so no more time out there than there are clients
                async with await RuleServiceClient.connect(
                    chaos.host, chaos.port
                ) as client:
                    health = await client.healthz()
                [stalled] = [
                    s for s in health["shards"] if s["name"] == "shard0"
                ]
                assert stalled["timeouts"] <= driver.concurrency, stalled

        run(scenario())


class TestClientDisconnect:
    def test_mid_batch_disconnects_leave_other_clients_unharmed(
        self, book_path
    ):
        transactions = random_transactions(seed=4, n=64)

        async def scenario():
            async with ChaosCluster(book_path, 2) as chaos:
                async with LoadDriver(
                    chaos.host, chaos.port, transactions
                ) as driver:
                    await driver.wait_for_progress(20, timeout=30)
                    for _ in range(5):  # rude clients, repeatedly
                        await abort_mid_batch(
                            chaos.host, chaos.port, transactions
                        )
                    await driver.wait_for_progress(60, timeout=30)
                    outcome = await driver.stop()

                assert outcome.failures == [], outcome.failures[:5]
                wrong = outcome.wrong_answers(launched_book_oracle())
                assert wrong == [], wrong[:3]

                async with await RuleServiceClient.connect(
                    chaos.host, chaos.port
                ) as client:
                    health = await client.healthz()
                    assert health["status"] == "ok"
                    assert health["n_healthy"] == 2

        run(scenario())


class TestHotSwapUnderLoad:
    def test_flip_rulebook_with_zero_failed_requests(
        self, book_path, tmp_path
    ):
        new_book = make_rulebook(seed=9, n_rules=120)
        new_path = save_rulebook(new_book, tmp_path, "chaos-v2")
        transactions = random_transactions(seed=5, n=64)

        async def scenario():
            async with ChaosCluster(book_path, 2) as chaos:
                async with LoadDriver(
                    chaos.host, chaos.port, transactions
                ) as driver:
                    await driver.wait_for_progress(40, timeout=30)
                    result = await chaos.reload(new_path)
                    assert result["status"] == "ok"
                    assert result["version"] == 2
                    flipped_at = driver.marker()
                    await driver.wait_for_progress(60, timeout=30)
                    outcome = await driver.stop()

                # zero dropped requests across the swap
                assert outcome.failures == [], outcome.failures[:5]
                versions = {
                    r.version for r in outcome.records if r.version
                }
                assert versions == {1, 2}, versions
                oracles = {**launched_book_oracle(), 2: book_oracle(new_book)}
                wrong = outcome.wrong_answers(oracles)
                assert wrong == [], wrong[:3]
                # once the rolling reload reports done, every response
                # carries the new version tag — no stragglers
                tail = outcome.versions_after(flipped_at)
                assert tail and set(tail) == {2}

                async with await RuleServiceClient.connect(
                    chaos.host, chaos.port
                ) as client:
                    health = await client.healthz()
                    assert health["version"] == 2
                    assert health["version_tag"] == new_book.fingerprint
                    assert health["n_rules"] == len(new_book)

        run(scenario())


class TestClusterSignals:
    def test_sigterm_while_starting_drains_instead_of_orphaning(self):
        # a SIGTERM that lands before CLUSTER_READY must still run the
        # drain: with no handler yet, the parent would die and leave
        # its spawned workers running
        default = signal.getsignal(signal.SIGTERM)

        class StartingCluster:
            drained = False

            async def start(self):
                assert signal.getsignal(signal.SIGTERM) is not default
                os.kill(os.getpid(), signal.SIGTERM)

            def describe(self) -> str:
                return "CLUSTER_READY (test)"

            async def shutdown(self):
                self.drained = True

        cluster = StartingCluster()
        run(asyncio.wait_for(run_cluster(cluster), 10))
        assert cluster.drained
        assert signal.getsignal(signal.SIGTERM) is default
