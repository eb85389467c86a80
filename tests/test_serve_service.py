"""Tests for the asyncio rule service: protocol, backpressure, drain."""

import asyncio
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.items import Item
from repro.engine import LatencyHistogram
from repro.serve import (
    RuleBook,
    RuleIndex,
    RuleService,
    RuleServiceClient,
    ServiceError,
    replay_traffic,
)

from .serve_oracle import EXOTIC_ITEMS, CountdownOracle, rules_over, serve_batch
from .test_serve_rulebook import random_rules


def make_index(seed=0, n_rules=50, n_items=20) -> RuleIndex:
    book = RuleBook(rules=random_rules(random.Random(seed), n_rules, n_items))
    return RuleIndex.from_rulebook(book)


class SlowService(RuleService):
    """Batch processing slowed down to force queue buildup in tests."""

    def __init__(self, *args, delay_s: float = 0.05, **kwargs):
        super().__init__(*args, **kwargs)
        self.delay_s = delay_s

    async def _process_batch(self, batch):
        await asyncio.sleep(self.delay_s)
        await super()._process_batch(batch)


def run(coro):
    return asyncio.run(coro)


class TestProtocol:
    def test_healthz_match_metrics(self):
        index = make_index()

        async def scenario():
            service = RuleService(index)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    health = await client.healthz()
                    assert health["status"] == "ok"
                    assert health["n_rules"] == len(index)
                    assert health["uptime_s"] >= 0

                    transaction = [str(i) for i in index.rules[0].antecedent]
                    result = await client.match(transaction, explain=True)
                    assert result["type"] == "match_result"
                    assert any(m["rule_id"] == 0 for m in result["fired"])
                    assert "near_misses" in result

                    metrics = await client.metrics()
                    assert metrics["requests"]["matched"] == 1
                    assert metrics["latency"]["count"] == 1
                    assert metrics["queue_depth"] == 0
                    assert any(
                        count == 1 for count in metrics["rule_matches"].values()
                    )
            finally:
                await service.shutdown()

        run(scenario())

    def test_matches_agree_with_direct_index(self):
        index = make_index(seed=9)
        vocabulary = sorted(
            {str(i) for rule in index.rules for i in rule.antecedent}
        )
        rng = random.Random(17)
        transactions = [
            rng.sample(vocabulary, rng.randint(0, 8)) for _ in range(50)
        ]
        oracle = CountdownOracle(index)

        async def scenario():
            service = RuleService(index)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    for transaction in transactions:
                        response = await client.match(transaction)
                        assert response["fired"] == oracle.fired_dicts(
                            transaction
                        )
            finally:
                await service.shutdown()

        run(scenario())

    def test_bad_requests_rejected_not_fatal(self):
        async def scenario():
            service = RuleService(make_index())
            await service.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                for payload in (
                    b"not json\n",
                    b'{"type": "unknown"}\n',
                    b'{"type": "match", "transaction": "nope"}\n',
                    b'[1, 2]\n',
                ):
                    writer.write(payload)
                    await writer.drain()
                    response = json.loads(await reader.readline())
                    assert response["type"] == "error"
                    assert response["error"] == "bad_request"
                # the connection still works after every rejection
                writer.write(b'{"type": "healthz"}\n')
                await writer.drain()
                assert json.loads(await reader.readline())["status"] == "ok"
                writer.close()
                await writer.wait_closed()
                assert service.metrics.n_bad_requests == 4
            finally:
                await service.shutdown()

        run(scenario())

    def test_concurrent_clients_are_batched(self):
        index = make_index()
        transaction = [str(i) for i in index.rules[0].antecedent]

        async def one_client(port):
            async with await RuleServiceClient.connect("127.0.0.1", port) as c:
                return await c.match(transaction)

        async def scenario():
            # a slow batcher lets concurrent requests pile into one batch
            service = SlowService(make_index(), delay_s=0.05, max_batch=64)
            await service.start(port=0)
            try:
                results = await asyncio.gather(
                    *(one_client(service.port) for _ in range(16))
                )
                assert all(r["type"] == "match_result" for r in results)
                assert service.metrics.n_batches < 16  # batching happened
            finally:
                await service.shutdown()

        run(scenario())


class TestBatchKernel:
    def test_batched_requests_hit_kernel_and_agree_with_index(self):
        index = make_index(seed=21)
        vocabulary = sorted(
            {str(i) for rule in index.rules for i in rule.antecedent}
        )
        rng = random.Random(23)
        transactions = [
            rng.sample(vocabulary, rng.randint(0, 8)) for _ in range(16)
        ]

        async def one_client(port, transaction):
            async with await RuleServiceClient.connect("127.0.0.1", port) as c:
                return await c.match(transaction)

        async def scenario():
            # a slow batcher piles concurrent requests into shared
            # micro-batches, so the kernel path (>= 2 plain jobs) runs
            service = SlowService(index, delay_s=0.05, max_batch=64)
            await service.start(port=0)
            try:
                results = await asyncio.gather(
                    *(
                        one_client(service.port, t)
                        for t in transactions
                    )
                )
                oracle = CountdownOracle(index)
                for transaction, response in zip(transactions, results):
                    assert response["fired"] == oracle.fired_dicts(transaction)
                metrics = service.metrics.as_dict(index)
                assert metrics["kernel"]["batches"] >= 1
                assert metrics["kernel"]["jobs"] >= 2
                assert metrics["kernel"]["seconds"] >= 0.0
                assert metrics["requests"]["matched"] == len(transactions)
            finally:
                await service.shutdown()

        run(scenario())

    def test_explain_requests_take_kernel_path(self):
        index = make_index(seed=21)
        transaction = [str(i) for i in index.rules[0].antecedent]

        async def scenario():
            service = RuleService(index)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    result = await client.match(transaction, explain=True)
                    assert "near_misses" in result
                    assert service.metrics.n_kernel_batches == 1
                    assert service.metrics.n_kernel_jobs == 1
            finally:
                await service.shutdown()

        run(scenario())

    def test_shard_aggregation_sums_kernel_sections(self):
        from repro.serve.router import aggregate_shard_metrics

        index = make_index()
        shard_a = RuleService(index)
        shard_a.metrics.n_kernel_batches = 3
        shard_a.metrics.n_kernel_jobs = 40
        shard_a.metrics.kernel_seconds = 0.25
        shard_b = RuleService(index)
        shard_b.metrics.n_kernel_batches = 2
        shard_b.metrics.n_kernel_jobs = 10
        shard_b.metrics.kernel_seconds = 0.5
        merged = aggregate_shard_metrics(
            [shard_a.metrics.as_dict(index), shard_b.metrics.as_dict(index)]
        )
        assert merged["kernel"]["batches"] == 5
        assert merged["kernel"]["jobs"] == 50
        assert merged["kernel"]["seconds"] == pytest.approx(0.75)
        # pre-kernel shard payloads (rolling upgrade) still aggregate
        legacy = {"requests": {"matched": 1}}
        merged = aggregate_shard_metrics(
            [legacy, shard_a.metrics.as_dict(index)]
        )
        assert merged["kernel"]["batches"] == 3


class TestBackpressure:
    def test_overload_rejected_with_retry_after(self):
        async def scenario():
            service = SlowService(
                make_index(), delay_s=0.2, max_queue=2, max_batch=1,
                retry_after_s=0.123,
            )
            await service.start(port=0)
            try:
                async def one(port):
                    # max_retries=0: observe raw rejections instead of
                    # the client's built-in backoff-and-resend
                    async with await RuleServiceClient.connect(
                        "127.0.0.1", port, max_retries=0
                    ) as client:
                        try:
                            return await client.match(["X = 1"])
                        except ServiceError as exc:
                            return exc

                outcomes = await asyncio.gather(
                    *(one(service.port) for _ in range(10))
                )
                rejected = [o for o in outcomes if isinstance(o, ServiceError)]
                served = [o for o in outcomes if not isinstance(o, ServiceError)]
                assert rejected, "queue of 2 must shed some of 10 requests"
                assert served, "some requests must still be served"
                for exc in rejected:
                    assert exc.code == "overloaded"
                    assert exc.retry_after == pytest.approx(0.123)
                assert service.metrics.n_rejected == len(rejected)
            finally:
                await service.shutdown()

        run(scenario())

    def test_client_backoff_absorbs_overload(self):
        # regression: the client used to surface `overloaded` to the
        # caller; now it honours retry_after with bounded exponential
        # backoff, so every request against a deliberately tiny queue
        # eventually succeeds
        async def scenario():
            service = SlowService(
                make_index(), delay_s=0.02, max_queue=2, max_batch=1,
                retry_after_s=0.01,
            )
            await service.start(port=0)
            try:
                async def one(port):
                    async with await RuleServiceClient.connect(
                        "127.0.0.1", port, max_retries=50
                    ) as client:
                        result = await client.match(["X = 1"])
                        return result, client.n_retried

                outcomes = await asyncio.gather(
                    *(one(service.port) for _ in range(10))
                )
                assert all(
                    result["type"] == "match_result" for result, _ in outcomes
                )
                assert service.metrics.n_rejected > 0, (
                    "the tiny queue must have shed load for this test "
                    "to exercise the backoff path"
                )
                assert sum(retries for _, retries in outcomes) > 0
            finally:
                await service.shutdown()

        run(scenario())

    def test_client_backoff_budget_is_bounded(self):
        # a terminal error (bad_request has no retry_after) must raise
        # immediately, and an exhausted retry budget must surface the
        # last rejection rather than looping forever
        async def scenario():
            service = SlowService(
                make_index(), delay_s=0.5, max_queue=1, max_batch=1,
                retry_after_s=0.01,
            )
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port, max_retries=2
                ) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        await client.request({"type": "nope"})
                    assert excinfo.value.code == "bad_request"
                    assert client.n_retried == 0

                # saturate the queue, then a bounded client must give up:
                # one request occupies the (slow) batcher, a second fills
                # the queue-of-one for the next ~0.5s
                saturators = [
                    await RuleServiceClient.connect("127.0.0.1", service.port)
                    for _ in range(2)
                ]
                await saturators[0].send(
                    {"type": "match", "transaction": ["X = 1"]}
                )
                await asyncio.sleep(0.05)  # batcher picks it up, sleeps
                await saturators[1].send(
                    {"type": "match", "transaction": ["X = 1"]}
                )
                await asyncio.sleep(0.02)
                try:
                    async with await RuleServiceClient.connect(
                        "127.0.0.1", service.port, max_retries=2,
                        backoff_cap_s=0.02,
                    ) as client:
                        with pytest.raises(ServiceError) as excinfo:
                            await client.match(["X = 1"])
                        assert excinfo.value.code == "overloaded"
                        assert client.n_retried == 2
                finally:
                    for saturator in saturators:
                        await saturator.close()
            finally:
                await service.shutdown()

        run(scenario())

    def test_replay_traffic_retries_through_backpressure(self):
        index = make_index()
        vocabulary = sorted(
            {str(i) for rule in index.rules for i in rule.antecedent}
        )
        rng = random.Random(5)
        transactions = [
            rng.sample(vocabulary, rng.randint(1, 6)) for _ in range(60)
        ]

        async def scenario():
            service = SlowService(
                index, delay_s=0.01, max_queue=4, max_batch=2
            )
            await service.start(port=0)
            try:
                stats = await replay_traffic(
                    "127.0.0.1",
                    service.port,
                    transactions,
                    concurrency=6,
                )
            finally:
                await service.shutdown()
            return stats

        stats = run(scenario())
        # every job eventually served: rejections were retried, not dropped
        assert stats.n_requests == len(transactions)
        assert stats.n_failed == 0
        assert stats.seconds > 0


class TestShutdown:
    def test_graceful_drain_answers_queued_requests(self):
        index = make_index()
        transaction = [str(i) for i in index.rules[0].antecedent]

        async def scenario():
            service = SlowService(index, delay_s=0.05, max_batch=1)
            await service.start(port=0)
            port = service.port

            async def one():
                async with await RuleServiceClient.connect("127.0.0.1", port) as c:
                    return await c.match(transaction)

            pending = [asyncio.create_task(one()) for _ in range(6)]
            # wait until every request is either queued or already answered
            # (a fixed sleep races with slow machines: a request arriving
            # after the drain starts is rejected, not drained)
            while service.metrics.n_matched + service._queue.qsize() < 6:
                await asyncio.sleep(0.005)
            await service.shutdown()
            results = await asyncio.gather(*pending)
            assert all(r["type"] == "match_result" for r in results)
            # fully stopped: new connections are refused
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        run(scenario())

    def test_restart_after_shutdown(self):
        async def scenario():
            service = RuleService(make_index())
            await service.start(port=0)
            await service.shutdown()
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    assert (await client.healthz())["status"] == "ok"
            finally:
                await service.shutdown()

        run(scenario())


def match_line(transaction, request_id, explain=False) -> bytes:
    request = {"type": "match", "id": request_id, "transaction": transaction}
    if explain:
        request["explain"] = True
    return json.dumps(request).encode() + b"\n"


class TestConnectionFraming:
    """The shared NDJSON connection: backpressure, overlong lines, EOF."""

    def test_client_that_never_reads_pauses_its_own_connection(self):
        index = make_index(n_rules=200)
        transaction = sorted(
            {str(i) for rule in index.rules[:40] for i in rule.antecedent}
        )
        n_requests = 20_000
        blob = b"".join(match_line(transaction, k) for k in range(n_requests))

        async def scenario():
            service = RuleService(index)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    answer = await client.match(transaction)
                    answer_bytes = len(json.dumps(answer)) + 1
                    _, hog = await asyncio.open_connection(
                        "127.0.0.1", service.port
                    )
                    hog.write(blob)  # pipelined, and never read
                    conn = next(
                        c for c in service._connections
                        if c._transport.get_extra_info("peername")
                        == hog.get_extra_info("sockname")
                    )
                    for _ in range(1000):
                        if not conn._transport.is_reading():
                            break
                        await asyncio.sleep(0.01)
                    assert not conn._transport.is_reading()
                    await asyncio.sleep(0.2)
                    # the server took only part of the backlog; the rest
                    # waits in the client's socket, not in server memory
                    metrics = service.metrics
                    taken = (
                        metrics.n_matched - 1
                        + metrics.n_rejected
                        + service._queue.qsize()
                    )
                    assert taken < n_requests
                    held = conn._transport.get_write_buffer_size() + sum(
                        len(e if isinstance(e, bytes) else e.result())
                        for e in conn._order
                        if isinstance(e, bytes) or e.done()
                    )
                    assert held < n_requests * answer_bytes / 4
                    # another client is still served
                    result = await asyncio.wait_for(client.match(transaction), 10)
                    assert result["fired"] == answer["fired"]
                    hog.transport.abort()
            finally:
                await service.shutdown()

        run(scenario())

    def test_overlong_line_gets_earlier_answers_then_clean_close(self):
        from repro.serve.service import MAX_LINE_BYTES

        async def scenario():
            # slow batches: both answers are still owed when the line
            # outgrows the limit
            service = SlowService(make_index(), delay_s=0.1, max_batch=1)
            await service.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                writer.write(match_line(["a"], 1) + match_line(["b"], 2))
                # never finished: the server must not wait for its newline
                writer.write(b'{"type": "healthz", "pad": "')
                writer.write(b"x" * MAX_LINE_BYTES)
                lines = await asyncio.wait_for(_read_to_eof(reader), 10)
                assert [json.loads(line)["id"] for line in lines] == [1, 2]
                writer.close()
            finally:
                await service.shutdown()

        run(scenario())

    def test_half_close_gets_every_answer_then_clean_close(self):
        async def scenario():
            service = SlowService(make_index(), delay_s=0.02, max_batch=8)
            await service.start(port=0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                for k in range(50):
                    writer.write(match_line(["a", "b"], k))
                # the last request may lack its newline
                writer.write(b'{"type": "healthz", "id": 50}')
                writer.write_eof()
                lines = await asyncio.wait_for(_read_to_eof(reader), 10)
                answers = [json.loads(line) for line in lines]
                assert [a["id"] for a in answers] == list(range(51))
                assert answers[-1]["type"] == "healthz"
                writer.close()
            finally:
                await service.shutdown()

        run(scenario())


async def _read_to_eof(reader) -> list[bytes]:
    """Every line until EOF; a reset instead of a clean close raises."""
    return [line async for line in reader]


class TestLatencyHistogram:
    def test_quantiles_bracket_samples(self):
        hist = LatencyHistogram()
        rng = random.Random(0)
        samples = [rng.uniform(1e-4, 1e-2) for _ in range(10_000)]
        for s in samples:
            hist.record(s)
        samples.sort()
        for q in (0.5, 0.9, 0.99):
            exact = samples[int(q * (len(samples) - 1))]
            approx = hist.quantile(q)
            # log-bucketed: within one bucket width (~9 %) of the truth
            assert exact / 1.2 <= approx <= exact * 1.2
        assert hist.quantile(0.0) >= min(samples) / 1.2
        assert hist.quantile(1.0) == pytest.approx(max(samples))

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert len(hist) == 0
        assert hist.quantile(0.5) == 0.0
        assert hist.mean == 0.0
        assert hist.as_dict()["count"] == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_seconds=0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_overflow_and_clamp(self):
        hist = LatencyHistogram(max_seconds=1.0)
        hist.record(5.0)  # beyond the last bucket
        hist.record(-1.0)  # clamps to zero
        assert len(hist) == 2
        assert hist.quantile(1.0) == 5.0
        assert hist.as_dict()["min_s"] == 0.0

    def test_state_roundtrip_and_merge(self):
        rng = random.Random(7)
        left, right, everything = (
            LatencyHistogram(),
            LatencyHistogram(),
            LatencyHistogram(),
        )
        for _ in range(2000):
            sample = rng.uniform(1e-5, 1e-1)
            (left if rng.random() < 0.5 else right).record(sample)
            everything.record(sample)
        rebuilt = LatencyHistogram.from_state(
            json.loads(json.dumps(right.state_dict()))
        )
        merged = left.merge(rebuilt)  # in place, returns self
        assert merged is left
        assert len(left) == len(everything)
        # bucket-level merging is exact: identical counts, identical
        # quantiles — the property averaging per-shard p99s lacks
        merged_state = left.state_dict()
        exact_state = everything.state_dict()
        # summation order differs, so the mean is equal only up to fp error
        assert merged_state.pop("sum_s") == pytest.approx(
            exact_state.pop("sum_s")
        )
        assert merged_state == exact_state
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == everything.quantile(q)

    def test_merge_rejects_different_geometry(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(growth=2.0))
        state = LatencyHistogram().state_dict()
        state["counts"] = state["counts"][:-3]
        with pytest.raises(ValueError):
            LatencyHistogram.from_state(state)


class VersionRecordingService(SlowService):
    """White-box probe: the index version seen by each micro-batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batch_versions: list[int] = []

    async def _process_batch(self, batch):
        self.batch_versions.append(self.version)
        await super()._process_batch(batch)


class TestHotSwap:
    def test_wire_reload_swaps_index(self, tmp_path):
        old_book = RuleBook(rules=random_rules(random.Random(0), 30, 20))
        new_book = RuleBook(rules=random_rules(random.Random(9), 45, 20))
        new_path = tmp_path / "new.rulebook.jsonl"
        new_book.save(new_path)

        async def scenario():
            service = RuleService.from_rulebook(old_book)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    before = await client.healthz()
                    assert before["version"] == 1
                    assert before["version_tag"] == old_book.fingerprint
                    assert before["n_rules"] == len(old_book)

                    result = await client.request(
                        {"type": "reload", "rulebook": str(new_path)}
                    )
                    assert result["type"] == "reload_result"
                    assert result["version"] == 2
                    assert result["n_rules"] == len(new_book)

                    after = await client.healthz()
                    assert after["version"] == 2
                    assert after["version_tag"] == new_book.fingerprint
                    assert after["n_rules"] == len(new_book)

                    match = await client.match(["anything"])
                    assert match["version"] == 2

                    metrics = await client.metrics()
                    assert metrics["requests"]["reloads"] == 1
            finally:
                await service.shutdown()

        run(scenario())

    def test_metrics_after_swap_to_smaller_book(self):
        # rule ids are positions in one index: counts taken under the
        # larger book must keep their own labels after the flip
        old = make_index(seed=3, n_rules=60)
        new = make_index(seed=4, n_rules=5)
        old_txns = [[str(i) for i in rule.antecedent] for rule in old.rules[-10:]]
        new_txns = [[str(i) for i in rule.antecedent] for rule in new.rules]
        expected: dict[str, int] = {}
        for index, txns in ((old, old_txns), (new, new_txns)):
            for txn in txns:
                for match in index.match(txn):
                    label = index.rule_label(match.rule_id)
                    expected[label] = expected.get(label, 0) + 1
        assert any(m.rule_id >= len(new) for t in old_txns for m in old.match(t))

        async def scenario():
            service = RuleService(old)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    for txn in old_txns:
                        await client.match(txn)
                    await service.reload(new)
                    for txn in new_txns:
                        await client.match(txn)
                    metrics = await client.metrics()
                    assert metrics["requests"]["reloads"] == 1
                    assert metrics["rule_matches"] == expected
            finally:
                await service.shutdown()

        run(scenario())

    def test_wire_reload_rejects_bad_paths_and_versions(self, tmp_path):
        book = RuleBook(rules=random_rules(random.Random(0), 20, 20))
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("this is not a rulebook\n")

        async def scenario():
            service = RuleService.from_rulebook(book)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    with pytest.raises(ServiceError) as excinfo:
                        await client.request(
                            {
                                "type": "reload",
                                "rulebook": str(tmp_path / "missing.jsonl"),
                            }
                        )
                    assert excinfo.value.code == "reload_failed"

                    with pytest.raises(ServiceError) as excinfo:
                        await client.request(
                            {"type": "reload", "rulebook": str(garbage)}
                        )
                    assert excinfo.value.code == "reload_failed"

                    with pytest.raises(ServiceError) as excinfo:
                        await client.request({"type": "reload"})
                    assert excinfo.value.code == "bad_request"

                    # failed reloads leave the service on the old book
                    health = await client.healthz()
                    assert health["version"] == 1
                    assert health["n_rules"] == len(book)
            finally:
                await service.shutdown()

        run(scenario())

    def test_flip_lands_between_batches_under_load(self):
        old_index = make_index(seed=0)
        new_index = make_index(seed=9, n_rules=60)

        async def scenario():
            service = VersionRecordingService(
                old_index, delay_s=0.005, max_batch=8
            )
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    # phase 1 enqueued ahead of the flip, phase 2 behind
                    for _ in range(40):
                        await client.send(
                            {"type": "match", "transaction": ["X = 1"]}
                        )
                    # the wire bytes must reach the service's queue before
                    # the flip marker does (reload() enqueues in-process,
                    # skipping the socket)
                    while (
                        service.metrics.n_matched + service._queue.qsize()
                        < 40
                    ):
                        await asyncio.sleep(0.001)
                    reload_task = asyncio.create_task(
                        service.reload(new_index)
                    )
                    await asyncio.sleep(0)  # let the flip enqueue
                    for _ in range(40):
                        await client.send(
                            {"type": "match", "transaction": ["X = 1"]}
                        )
                    responses = [await client.receive() for _ in range(80)]
                    assert await reload_task == 2

                # zero drops, zero errors under the flip
                assert all(
                    r["type"] == "match_result" for r in responses
                ), responses
                versions = [r["version"] for r in responses]
                # request order decides the version: old then new, never
                # interleaved — and the flip really happened mid-stream
                assert versions == sorted(versions)
                assert versions[0] == 1 and versions[-1] == 2
                # every micro-batch saw exactly one version (recorded at
                # batch entry; flips only apply between batches)
                assert set(service.batch_versions) <= {1, 2}
                assert service.metrics.n_matched == 80
            finally:
                await service.shutdown()

        run(scenario())

    def test_offline_reload_rearms_between_runs(self):
        async def scenario():
            service = RuleService(make_index(seed=0))
            version = await service.reload(
                make_index(seed=1), version_tag="second"
            )
            assert version == 2
            assert service.version_tag == "second"
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    health = await client.healthz()
                    assert health["version"] == 2
                    assert health["version_tag"] == "second"
            finally:
                await service.shutdown()

        run(scenario())


# -- byte identity of the one answer path ---------------------------------------


def _identity_books() -> dict[str, RuleIndex]:
    plain = [Item(f"F{k % 5}", f"v{k}") for k in range(24)]
    plain += [Item.flag("Failed"), Item.flag("Multi-GPU")]
    return {
        "plain": RuleIndex(rules_over(plain, seed=1, n_rules=150)),
        "exotic": RuleIndex(rules_over(EXOTIC_ITEMS, seed=2, n_rules=40)),
        "empty": RuleIndex([]),
    }


_IDENTITY_BOOKS = _identity_books()


def _spellings(index: RuleIndex) -> list[str]:
    """Every accepted spelling of the book's items, plus unknown ones."""
    out = ["Never = Seen", "Ghost", "", "F0 = v999"]
    for item in index.table.vocabulary:
        out += [str(item), item.render()]
    return out


_request_ids = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63),
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
    st.sampled_from(['"', "\\", 'a"b\\c', "ü☃ \u2028", "\x00\n"]),
)


@st.composite
def _batches(draw):
    name = draw(st.sampled_from(sorted(_IDENTITY_BOOKS)))
    spellings = _spellings(_IDENTITY_BOOKS[name])
    requests = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "type": st.just("match"),
                    "id": _request_ids,
                    "transaction": st.lists(
                        st.sampled_from(spellings), max_size=14
                    ),
                    "explain": st.booleans(),
                }
            ),
            min_size=1,
            max_size=70,
        )
    )
    return name, requests


class TestByteIdentity:
    """Every served line equals ``json.dumps`` of the oracle's answer."""

    @settings(max_examples=60, deadline=None)
    @given(_batches(), st.integers(min_value=1, max_value=2**31))
    def test_lines_equal_oracle_json(self, drawn, version):
        name, requests = drawn
        index = _IDENTITY_BOOKS[name]
        oracle = CountdownOracle(index)
        service = RuleService(index, version=version)
        lines = serve_batch(service, requests)
        for request, line in zip(requests, lines):
            assert line == oracle.line(request, version)
        fires: dict[int, int] = {}
        for request in requests:
            for rule_id, _ in oracle.fired(request["transaction"]):
                fires[rule_id] = fires.get(rule_id, 0) + 1
        assert service.metrics.rule_matches == fires
        assert service.metrics.n_matched == len(requests)

    def test_exotic_book_fires_and_explains(self):
        # guard against a vacuous property: the non-ASCII book must
        # produce fired entries and near misses in the drawn space
        index = _IDENTITY_BOOKS["exotic"]
        vocabulary = [item.render() for item in index.table.vocabulary]
        [line] = serve_batch(
            RuleService(index),
            [{"id": "é", "transaction": vocabulary[:4], "explain": True}],
        )
        response = json.loads(line)
        assert response["fired"] and response["near_misses"]
        assert line.isascii()  # json.dumps escapes every non-ASCII render
