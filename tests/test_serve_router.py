"""Router tests: LB policies, oracle equivalence, control-plane fan-out.

Shards here are in-process :class:`RuleService` instances on ephemeral
ports — real sockets, same protocol, but one event loop, so these tests
stay fast and deterministic.  Process-level faults (SIGKILL, SIGSTOP)
live in ``test_serve_chaos.py`` on top of the ``serve_chaos`` harness.
"""

import asyncio
import random

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
from repro.serve.lb import (
    LB_POLICIES,
    LatencyWeightedPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    get_policy,
)

from .serve_oracle import CountdownOracle
from .test_serve_rulebook import random_rules


def run(coro):
    return asyncio.run(coro)


def make_book(seed=0, n_rules=60, n_items=25) -> RuleBook:
    return RuleBook(rules=random_rules(random.Random(seed), n_rules, n_items))


def make_transactions(seed, n, n_items=25, max_len=8) -> list[list[str]]:
    """Random jobs over the same item vocabulary `random_rules` uses."""
    rng = random.Random(seed)
    vocabulary = [str(Item(f"F{k % 7}", f"v{k}")) for k in range(n_items)]
    return [
        sorted(rng.sample(vocabulary, rng.randint(1, max_len)))
        for _ in range(n)
    ]


class Fleet:
    """N full-replica in-process shards behind one router."""

    def __init__(self, book: RuleBook, n_shards: int, **router_kwargs):
        self.book = book
        self.n_shards = n_shards
        self.router_kwargs = router_kwargs
        self.services: list[RuleService] = []
        self.router: ShardRouter | None = None

    async def __aenter__(self) -> "Fleet":
        for k in range(self.n_shards):
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


class FakeShard:
    """Just the signals a policy reads."""

    def __init__(self, name, inflight=0, ewma=0.0):
        self.name = name
        self.inflight = inflight
        self.ewma_latency_s = ewma


class TestPolicies:
    def test_registry_mirrors_backends_idiom(self):
        assert set(LB_POLICIES) >= {
            "round_robin",
            "least_loaded",
            "latency_weighted",
        }
        assert isinstance(get_policy("round_robin"), RoundRobinPolicy)
        passthrough = LeastLoadedPolicy()
        assert get_policy(passthrough) is passthrough
        with pytest.raises(ValueError, match="unknown LB policy"):
            get_policy("definitely_not_registered")

    def test_round_robin_cycles(self):
        shards = [FakeShard(k) for k in range(3)]
        policy = RoundRobinPolicy()
        picks = [policy.choose(shards).name for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_least_loaded_prefers_idle_shard(self):
        busy = FakeShard("busy", inflight=10)
        idle = FakeShard("idle", inflight=0)
        policy = LeastLoadedPolicy()
        for _ in range(5):
            assert policy.choose([busy, idle]) is idle
        # ties break round-robin, not always-first
        even = [FakeShard(k) for k in range(3)]
        picks = {policy.choose(even).name for _ in range(6)}
        assert picks == {0, 1, 2}

    def test_latency_weighted_scores_expected_wait(self):
        fast_busy = FakeShard("fast", inflight=3, ewma=0.001)  # 0.004
        slow_idle = FakeShard("slow", inflight=0, ewma=0.100)  # 0.100
        policy = LatencyWeightedPolicy()
        assert policy.choose([fast_busy, slow_idle]) is fast_busy
        # a never-measured shard scores zero: probed first (warm-up)
        fresh = FakeShard("fresh")
        assert policy.choose([fast_busy, slow_idle, fresh]) is fresh


class TestOracleEquivalence:
    @pytest.mark.parametrize("policy", sorted(LB_POLICIES))
    def test_routed_matches_equal_brute_force(self, policy):
        book = make_book(seed=3)
        oracle = CountdownOracle(RuleIndex.from_rulebook(book))
        transactions = make_transactions(seed=17, n=1000)
        expected = [
            [rule_id for rule_id, _ in oracle.match_wire(txn)]
            for txn in transactions
        ]
        assert any(expected), "oracle must fire on some transactions"

        async def scenario():
            async with Fleet(book, n_shards=3, policy=policy) as fleet:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", fleet.port
                ) as client:
                    by_id: dict[int, dict] = {}
                    window = 64
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
