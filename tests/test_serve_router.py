"""Router tests: the routing rule, oracle equivalence, control-plane fan-out.

Shards here are in-process :class:`RuleService` instances on ephemeral
ports — real sockets, same protocol, but one event loop, so these tests
stay fast and deterministic.  Process-level faults (SIGKILL, SIGSTOP)
live in ``test_serve_chaos.py`` on top of the ``serve_chaos`` harness.
"""

import asyncio
import json
import random
import contextlib
import time

import pytest

from repro.core.items import Item
from repro.serve import (
    RuleBook,
    RuleIndex,
    RuleService,
    RuleServiceClient,
    ShardHandle,
    ShardRouter,
)

from .oracles import table_of
from .serve_oracle import CountdownOracle
from .test_serve_rulebook import random_rules
from .test_serve_service import SlowService


def run(coro):
    return asyncio.run(coro)


def make_book(seed=0, n_rules=60, n_items=25) -> RuleBook:
    return RuleBook(table_of(random_rules(random.Random(seed), n_rules, n_items)))


def make_transactions(seed, n, n_items=25, max_len=8) -> list[list[str]]:
    """Random jobs over the same item vocabulary `random_rules` uses."""
    rng = random.Random(seed)
    vocabulary = [str(Item(f"F{k % 7}", f"v{k}")) for k in range(n_items)]
    return [
        sorted(rng.sample(vocabulary, rng.randint(1, max_len)))
        for _ in range(n)
    ]


class Fleet:
    """N full-replica in-process shards behind one router.

    ``delays[k]`` (seconds) slows every micro-batch of shard ``k``.
    """

    def __init__(
        self, book: RuleBook, n_shards: int, delays=(), **router_kwargs
    ):
        self.book = book
        self.n_shards = n_shards
        self.delays = tuple(delays) + (0.0,) * (n_shards - len(delays))
        self.router_kwargs = router_kwargs
        self.services: list[RuleService] = []
        self.router: ShardRouter | None = None

    async def __aenter__(self) -> "Fleet":
        for k, delay_s in enumerate(self.delays):
            if delay_s:
                service = SlowService(
                    RuleIndex.from_rulebook(self.book),
                    name=f"s{k}",
                    delay_s=delay_s,
                )
            else:
                service = RuleService.from_rulebook(self.book, name=f"s{k}")
            await service.start(port=0)
            self.services.append(service)
        handles = [
            ShardHandle(f"s{k}", "127.0.0.1", service.port)
            for k, service in enumerate(self.services)
        ]
        self.router = ShardRouter(handles, **self.router_kwargs)
        await self.router.start("127.0.0.1", 0)
        return self

    async def __aexit__(self, *exc) -> None:
        if self.router is not None:
            await self.router.shutdown()
        for service in self.services:
            await service.shutdown()

    @property
    def port(self) -> int:
        assert self.router is not None
        return self.router.port


#: The traffic shapes the routing rule meets, each named for what fewest in
#: flight reduces to there.  One request at a time, every pick is a tie and
#: the rotating start makes it round robin; a pipelined window goes to the
#: least loaded shard; a slow shard holds its requests longer, so it wins
#: fewer picks — shards are weighted by their latency.
TRAFFIC = {
    "round_robin": {"window": 1, "delays": ()},
    "least_loaded": {"window": 64, "delays": ()},
    "latency_weighted": {"window": 64, "delays": (0.005,)},
}


class TestOracleEquivalence:
    @pytest.mark.parametrize("traffic", sorted(TRAFFIC))
    def test_routed_matches_equal_brute_force(self, traffic):
        window = TRAFFIC[traffic]["window"]
        delays = TRAFFIC[traffic]["delays"]
        book = make_book(seed=3)
        oracle = CountdownOracle(RuleIndex.from_rulebook(book))
        transactions = make_transactions(seed=17, n=1000)
        expected = [
            [rule_id for rule_id, _ in oracle.match_wire(txn)]
            for txn in transactions
        ]
        assert any(expected), "oracle must fire on some transactions"

        async def scenario():
            async with Fleet(book, n_shards=3, delays=delays) as fleet:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", fleet.port
                ) as client:
                    by_id: dict[int, dict] = {}
                    sent = 0
                    for txn in transactions:
                        await client.send(
                            {"type": "match", "transaction": txn}
                        )
                        sent += 1
                        if sent - len(by_id) >= window:
                            response = await client.receive()
                            by_id[response["id"]] = response
                    while len(by_id) < sent:
                        response = await client.receive()
                        by_id[response["id"]] = response
                # every shard actually served some of the traffic
                assert fleet.router is not None
                served = [h.n_answered for h in fleet.router.handles]
                assert all(count > 0 for count in served), served
                if delays:  # the slow shard took the least of it
                    assert served[0] < min(served[1:]), served
                return [by_id[k] for k in range(1, sent + 1)]

        responses = run(scenario())
        for response, want in zip(responses, expected):
            assert response["type"] == "match_result"
            got = [m["rule_id"] for m in response["fired"]]
            # identical rule ids in identical order — rule-id order IS
            # the (lift, confidence, support) ranking in a RuleIndex
            assert got == want

    def test_explain_responses_forward_unchanged(self):
        book = make_book(seed=5)
        oracle = CountdownOracle(RuleIndex.from_rulebook(book))
        transactions = make_transactions(seed=23, n=50)

        async def scenario():
            async with Fleet(book, n_shards=2) as fleet:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", fleet.port
                ) as client:
                    return [
                        await client.match(txn, explain=True)
                        for txn in transactions
                    ]

        responses = run(scenario())
        for txn, response in zip(transactions, responses):
            want_fired = oracle.fired_dicts(txn)
            want_near = [n.as_dict() for n in oracle.explain(txn)]
            assert response["fired"] == want_fired
            assert response["near_misses"] == want_near


class TestControlPlane:
    def test_healthz_aggregates_fleet_state(self):
        book = make_book()

        async def scenario():
            async with Fleet(book, n_shards=3) as fleet:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", fleet.port
                ) as client:
                    health = await client.healthz()
                    assert health["status"] == "ok"
                    assert health["role"] == "router"
                    assert health["n_shards"] == 3
                    assert health["n_healthy"] == 3
                    assert health["n_rules"] == len(book)
                    assert health["version"] == 1
                    assert health["version_tag"] == book.fingerprint
                    names = {s["name"] for s in health["shards"]}
                    assert names == {"s0", "s1", "s2"}

                    # lose a shard: degraded, but matching still works
                    await fleet.services[0].shutdown()
                    await asyncio.sleep(0.05)  # handle notices the EOF
                    health = await client.healthz()
                    assert health["status"] == "degraded"
                    assert health["n_healthy"] == 2
                    result = await client.match(["feature_1 = bin1"])
                    assert result["type"] == "match_result"

        run(scenario())

    def test_metrics_aggregation_sums_shards(self):
        book = make_book()
        transactions = make_transactions(seed=29, n=120)

        async def scenario():
            async with Fleet(book, n_shards=3) as fleet:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", fleet.port
                ) as client:
                    for txn in transactions:
                        await client.match(txn)
                    metrics = await client.metrics()
                    assert metrics["role"] == "router"
                    assert metrics["n_shards"] == 3
                    # each request was counted on exactly one shard
                    assert metrics["requests"]["matched"] == len(transactions)
                    assert metrics["latency"]["count"] == len(transactions)
                    assert metrics["router"]["routed"] == len(transactions)
                    # per-rule fire counts survive the merge
                    per_shard = [
                        s.metrics.rule_matches for s in fleet.services
                    ]
                    want_total = sum(
                        sum(counts.values()) for counts in per_shard
                    )
                    got_total = sum(metrics["rule_matches"].values())
                    assert got_total == want_total

        run(scenario())

    def test_rolling_reload_through_router(self, tmp_path):
        old_book = make_book(seed=0)
        new_book = make_book(seed=8, n_rules=90)
        new_path = tmp_path / "new.rulebook.jsonl"
        new_book.save(new_path)

        async def scenario():
            async with Fleet(old_book, n_shards=3) as fleet:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", fleet.port
                ) as client:
                    result = await client.request(
                        {"type": "reload", "rulebook": str(new_path)}
                    )
                    assert result["type"] == "reload_result"
                    assert result["status"] == "ok"
                    assert result["version"] == 2
                    assert result["version_tag"] == new_book.fingerprint
                    assert result["n_rules"] == len(new_book)
                    assert [s["ok"] for s in result["shards"]] == [True] * 3

                    # every replica converged on the same version number
                    for service in fleet.services:
                        assert service.version == 2
                        assert service.version_tag == new_book.fingerprint

                    match = await client.match(["feature_1 = bin1"])
                    assert match["version"] == 2

                    # a second reload keeps counting up cluster-wide
                    result = await client.request(
                        {"type": "reload", "rulebook": str(new_path)}
                    )
                    assert result["version"] == 3

        run(scenario())

    def test_dead_fleet_sheds_load_with_retry_hint(self):
        book = make_book()

        async def scenario():
            async with Fleet(book, n_shards=2) as fleet:
                for service in fleet.services:
                    await service.shutdown()
                await asyncio.sleep(0.05)
                # raw client (no retries): observe the shed response
                async with await RuleServiceClient.connect(
                    "127.0.0.1", fleet.port, max_retries=0
                ) as client:
                    await client.send(
                        {"type": "match", "transaction": ["feature_1 = bin1"]}
                    )
                    response = await client.receive()
                    assert response["type"] == "error"
                    assert response["error"] == "overloaded"
                    assert response["retry_after"] > 0
                    health = await client.healthz()
                    assert health["status"] == "unavailable"

        run(scenario())


def echo_answer(request: dict) -> bytes:
    """A well-formed one-line answer echoing the request id."""
    return json.dumps(
        {"type": "match_result", "id": request.get("id"), "version": 1,
         "fired": []}
    ).encode() + b"\n"


class ScriptedShard:
    """An in-process upstream answering each request line by a script.

    ``script(request)`` returns the bytes to send back (zero, one or
    several lines).  While ``gate`` is clear the shard reads but stays
    silent, answering the backlog in order once it is set.
    """

    def __init__(self, script=echo_answer):
        self.script = script
        self.gate = asyncio.Event()
        self.gate.set()
        self.server: asyncio.Server | None = None

    async def __aenter__(self) -> "ScriptedShard":
        self.server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        return self

    async def __aexit__(self, *exc) -> None:
        self.gate.set()
        assert self.server is not None
        self.server.close()

    @property
    def port(self) -> int:
        assert self.server is not None
        return self.server.sockets[0].getsockname()[1]

    async def _handle(self, reader, writer) -> None:
        try:
            while line := await reader.readline():
                await self.gate.wait()
                writer.write(self.script(json.loads(line)))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()


async def read_answers(reader, n: int) -> list[dict]:
    async def read() -> list[dict]:
        return [json.loads(await reader.readline()) for _ in range(n)]

    return await asyncio.wait_for(read(), 10)


def match_lines(ids) -> bytes:
    return b"".join(
        json.dumps(
            {"type": "match", "id": k, "transaction": ["feature_1 = bin1"]}
        ).encode() + b"\n"
        for k in ids
    )


@contextlib.asynccontextmanager
async def scripted_fleet(n_shards: int):
    """A router over ``n_shards`` scripted shards, and a ``route`` probe.

    ``route(ids)`` sends one match at a time — every pick sees the
    in-flight counts as they stand — and returns, per request, the index
    of the shard that answered it.
    """
    async with contextlib.AsyncExitStack() as stack:
        shards = [
            await stack.enter_async_context(ScriptedShard())
            for _ in range(n_shards)
        ]
        handles = [
            ShardHandle(f"s{k}", "127.0.0.1", shard.port)
            for k, shard in enumerate(shards)
        ]
        router = ShardRouter(handles)
        await router.start("127.0.0.1", 0)
        stack.push_async_callback(router.shutdown)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", router.port
        )
        stack.callback(writer.close)

        async def route(ids) -> list[int]:
            picks = []
            for k in ids:
                before = [h.n_answered for h in handles]
                writer.write(match_lines([k]))
                [answer] = await read_answers(reader, 1)
                assert answer["type"] == "match_result", answer
                assert answer["id"] == k
                [pick] = [
                    j
                    for j, (h, n) in enumerate(zip(handles, before))
                    if h.n_answered > n
                ]
                picks.append(pick)
            return picks

        yield shards, handles, route


class TestPolicies:
    """The one routing policy: fewest requests in flight, ties rotating."""

    def test_round_robin_cycles(self):
        async def scenario():
            async with scripted_fleet(3) as (_, _, route):
                # an idle fleet: every pick is a tie and the scan start
                # rotates, so the shards take their turns in order
                assert await route(range(6)) == [0, 1, 2, 0, 1, 2]

        run(scenario())

    def test_least_loaded_prefers_idle_shard(self):
        async def scenario():
            async with scripted_fleet(3) as (shards, handles, route):
                # s0 goes silent with three requests in flight: it loses
                # every pick to the idle shards, which still share the
                # traffic
                shards[0].gate.clear()
                stuck = [
                    handles[0].submit(b'{"type": "healthz"}')
                    for _ in range(3)
                ]
                await asyncio.sleep(0.05)
                assert handles[0].inflight == 3
                picks = await route(range(6))
                assert 0 not in picks, picks
                assert set(picks) == {1, 2}, picks
                shards[0].gate.set()
                await asyncio.wait_for(asyncio.gather(*stuck), 10)

        run(scenario())


class TestHop:
    """The per-request path of the router: timers, tasks, writes, framing."""

    def test_silent_shard_times_out_no_earlier_than_the_deadline(self):
        timeout_s = 0.3

        async def scenario():
            async with ScriptedShard() as shard:
                handle = ShardHandle("silent", "127.0.0.1", shard.port)
                router = ShardRouter([handle], request_timeout_s=timeout_s)
                await router.start("127.0.0.1", 0)
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", router.port
                    )
                    shard.gate.clear()
                    sent_at = time.monotonic()
                    writer.write(match_lines(range(5)))
                    stalled = await read_answers(reader, 5)
                    waited = time.monotonic() - sent_at
                    assert waited >= timeout_s
                    assert [a["error"] for a in stalled] == ["shard_timeout"] * 5
                    assert [a["id"] for a in stalled] == list(range(5))
                    assert all(a["retry_after"] > 0 for a in stalled)
                    # timed-out requests keep their slots until answered
                    assert handle.inflight == 5
                    assert handle.info()["timeouts"] == 5
                    # the shard wakes up: its late answers fill the kept
                    # slots, and answers after the stall stay aligned
                    shard.gate.set()
                    writer.write(match_lines(range(5, 25)))
                    after = await read_answers(reader, 20)
                    assert [a["type"] for a in after] == ["match_result"] * 20
                    assert [a["id"] for a in after] == list(range(5, 25))
                    assert handle.inflight == 0
                    assert router.n_timeouts == 5
                    writer.close()
                finally:
                    await router.shutdown()

        run(scenario())

    def test_burst_creates_no_task_and_few_upstream_writes(self):
        book = make_book(seed=4)
        n = 500

        async def scenario():
            async with Fleet(book, n_shards=2) as fleet:
                assert fleet.router is not None
                writes = []
                for handle in fleet.router.handles:
                    transport = handle._transport
                    write = transport.write

                    def counted(data, write=write):
                        writes.append(len(data))
                        write(data)

                    transport.write = counted
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", fleet.port
                )
                baseline = len(asyncio.all_tasks())
                writer.write(match_lines(range(n)))
                most = 0
                answers = []
                for _ in range(n):
                    most = max(most, len(asyncio.all_tasks()))
                    answers.append(json.loads(await reader.readline()))
                writer.close()
                assert [a["id"] for a in answers] == list(range(n))
                assert all(a["type"] == "match_result" for a in answers)
                # no Task per forwarded request
                assert most <= baseline + 2, (baseline, most)
                # requests read together leave for each shard in one write
                assert len(writes) <= n // 10, len(writes)

        run(scenario())

    def test_failed_control_answer_keeps_connection_serving(self):
        def script(request):
            if request["type"] == "reload":
                return b"this is not json\n"
            return echo_answer(request)

        async def scenario():
            async with ScriptedShard(script) as shard:
                router = ShardRouter([("127.0.0.1", shard.port)])
                await router.start("127.0.0.1", 0)
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", router.port
                    )
                    writer.write(
                        b'{"type": "reload", "id": "r", "rulebook": "b.jsonl",'
                        b' "version": 2}\n' + match_lines([7])
                    )
                    failed, matched = await read_answers(reader, 2)
                    assert failed["type"] == "error"
                    assert failed["error"] == "internal"
                    assert matched["type"] == "match_result"
                    assert matched["id"] == 7
                    writer.close()
                finally:
                    await router.shutdown()

        run(scenario())

    def test_unsolicited_upstream_line_drops_the_link(self):
        book = make_book(seed=6)
        oracle = CountdownOracle(RuleIndex.from_rulebook(book))
        transactions = make_transactions(seed=37, n=30)

        def chatty(request):  # a true answer, then a line nobody asked for
            return oracle.line(request, 1) + b'{"type": "healthz"}\n'

        async def scenario():
            service = RuleService.from_rulebook(book, name="real")
            await service.start(port=0)
            async with ScriptedShard(chatty) as liar:
                handles = [
                    ShardHandle("liar", "127.0.0.1", liar.port),
                    ShardHandle("real", "127.0.0.1", service.port),
                ]
                router = ShardRouter(handles)
                await router.start("127.0.0.1", 0)
                try:
                    async with await RuleServiceClient.connect(
                        "127.0.0.1", router.port
                    ) as client:
                        answers = [await client.match(t) for t in transactions]
                    for txn, answer in zip(transactions, answers):
                        got = [m["rule_id"] for m in answer["fired"]]
                        assert got == [r for r, _ in oracle.match_wire(txn)]
                    # each extra line cost the liar its link, so the
                    # next requests went to the real shard
                    liar_info = handles[0].info()
                    assert liar_info["protocol_errors"] >= 1
                    assert liar_info["answered"] == liar_info["protocol_errors"]
                    assert handles[1].n_answered >= len(transactions) // 2
                finally:
                    await router.shutdown()
            await service.shutdown()

        run(scenario())
