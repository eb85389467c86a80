"""Tests for the shared-memory data plane (repro.shm).

Covers the segment format itself (header validation, alignment,
lifecycle, stale-segment GC), the two published artifacts (transaction
database, compiled rule plane) — attached views must be *bit-identical*
to the source and strictly read-only — and the consumers: spawn-safe
process-backend mining and segment-shipped serving hot-swap, each with
its per-worker fallback path.
"""

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import MiningConfig
from repro.engine import MiningEngine, ProcessBackend, SerialBackend
from repro.serve import RuleBook, RuleIndex, RuleService, RuleServiceClient
from repro.serve.client import ServiceError
from repro.shm import (
    SegmentError,
    attach_database,
    attach_rule_plane,
    attach_segment,
    gc_stale_segments,
    list_segments,
    publish_database,
    publish_rule_plane,
    publish_segment,
    shm_available,
)
from repro.shm.database import clear_database_leases
from repro.shm.segment import NO_SHM_ENV, _SHM_DIR, segment_name

from .serve_oracle import EXOTIC_ITEMS, CountdownOracle, rules_over, serve_batch
from .test_serve_rulebook import random_rules

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def run(coro):
    return asyncio.run(coro)


def make_index(seed=0, n_rules=40, n_items=20) -> RuleIndex:
    book = RuleBook(rules=random_rules(random.Random(seed), n_rules, n_items))
    return RuleIndex.from_rulebook(book)


# -- segment format and lifecycle ------------------------------------------------


class TestSegmentCore:
    def test_roundtrip_arrays_and_blobs(self):
        arrays = {
            "a": np.arange(7, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 13),
            "empty": np.zeros(0, dtype=np.uint64),
            "matrix": np.arange(12, dtype=np.uint64).reshape(3, 4),
        }
        blobs = {"payload": "café".encode("utf-8"), "none": b""}
        lease = publish_segment(
            "d", "feedfacefeed", arrays=arrays, blobs=blobs,
            meta={"answer": 42}, generation=3,
        )
        try:
            seg = attach_segment(lease.name)
            assert seg.fingerprint == "feedfacefeed"
            assert seg.generation == 3
            assert seg.meta["answer"] == 42
            for name, source in arrays.items():
                got = seg.arrays[name]
                assert got.dtype == source.dtype
                assert got.shape == source.shape
                np.testing.assert_array_equal(got, source)
                assert not got.flags.writeable
            assert seg.blob_bytes("payload") == blobs["payload"]
            assert seg.blob_bytes("none") == b""
            seg.close()
        finally:
            lease.unlink()
            lease.unlink()  # idempotent
        with pytest.raises(SegmentError):
            attach_segment(lease.name)

    def test_publish_is_memoised_by_name(self):
        arrays = {"a": np.arange(4)}
        first = publish_segment("d", "0123456789ab", arrays=arrays)
        second = publish_segment("d", "0123456789ab", arrays=arrays)
        try:
            assert first is second
        finally:
            first.unlink()

    def test_attach_rejects_foreign_payload(self):
        name = segment_name("d", "badc0ffee000", 0)
        path = Path(_SHM_DIR) / name
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        try:
            with pytest.raises(SegmentError):
                attach_segment(name)
        finally:
            path.unlink()

    def test_gc_reaps_dead_owner_segments(self):
        # a name claiming a pid that cannot exist: its owner is "dead"
        name = f"rsm.d.deadbeef00.{2**22 + 1}.g0"
        (Path(_SHM_DIR) / name).write_bytes(b"\x00" * 16)
        assert name in list_segments()
        removed = gc_stale_segments()
        assert name in removed
        assert name not in list_segments()

    def test_open_and_attach_never_register_with_tracker(self, monkeypatch):
        # forked workers share one resource tracker: a register/unregister
        # pair per attach interleaves across workers into a tracker-side
        # KeyError traceback, so no handle may be registered at all
        from multiprocessing import resource_tracker

        calls = []
        monkeypatch.setattr(
            resource_tracker, "register", lambda *args: calls.append(args)
        )
        lease = publish_segment("d", "7ac4e200bead", arrays={"a": np.arange(3)})
        try:
            attached = attach_segment(lease.name)
            assert attached.arrays["a"].tolist() == [0, 1, 2]
            attached.close()
        finally:
            lease.unlink()
        assert calls == []

    def test_live_owner_segments_survive_gc(self):
        lease = publish_database_toy()
        try:
            assert lease.name not in gc_stale_segments()
            assert lease.name in list_segments(["d"])
        finally:
            clear_database_leases()


def publish_database_toy():
    from repro.core import TransactionDatabase

    db = TransactionDatabase.from_itemsets(
        [["a", "b"], ["b", "c"], ["a", "b", "c"]]
    )
    return publish_database(db)


# -- the database plane ----------------------------------------------------------


@pytest.mark.parametrize("trace_db", ["pai_db", "supercloud_db", "philly_db"])
class TestDatabasePlane:
    def test_attached_views_bit_identical(self, trace_db, request):
        db = request.getfixturevalue(trace_db)
        lease = publish_database(db)
        att = attach_database(lease.name)
        try:
            np.testing.assert_array_equal(att.indptr, db.indptr)
            np.testing.assert_array_equal(att.indices, db.indices)
            np.testing.assert_array_equal(
                att.bitmaps().words, db.bitmaps().words
            )
            assert att.fingerprint() == db.fingerprint()
            assert len(att) == len(db)
            assert list(att.vocabulary) == list(db.vocabulary)
        finally:
            att.shm_segment.close()
            clear_database_leases()

    def test_attached_views_are_read_only(self, trace_db, request):
        db = request.getfixturevalue(trace_db)
        lease = publish_database(db)
        att = attach_database(lease.name)
        try:
            for target in (att.indptr, att.indices, att.bitmaps().words):
                with pytest.raises(ValueError):
                    target[..., 0] = 1
        finally:
            att.shm_segment.close()
            clear_database_leases()

    def test_mining_from_attached_matches_source(self, trace_db, request):
        db = request.getfixturevalue(trace_db)
        config = MiningConfig()
        lease = publish_database(db)
        att = attach_database(lease.name)
        try:
            expected = SerialBackend().resolve(db).mine(db, config)
            got = SerialBackend().resolve(att).mine(att, config)
            assert dict(got.counts) == dict(expected.counts)
        finally:
            att.shm_segment.close()
            clear_database_leases()


# -- the rule plane --------------------------------------------------------------


class TestRulePlane:
    def attach_pair(self, seed=7, tag="tag-xyz"):
        local = make_index(seed=seed)
        lease = publish_rule_plane(local, generation=1, version_tag=tag)
        att, meta = attach_rule_plane(lease.name)
        return local, lease, att, meta

    def sample_transactions(self, index, seed=3, n=40):
        rng = random.Random(seed)
        items = [str(item) for item in index.table.vocabulary]
        txns = [rng.sample(items, k=rng.randint(1, min(6, len(items))))
                for _ in range(n)]
        # guarantee some full antecedents fire
        for rule in index.rules[:5]:
            txns.append([str(i) for i in rule.antecedent])
        return txns

    def test_attach_equals_compile(self):
        local, lease, att, meta = self.attach_pair()
        try:
            assert meta["version_tag"] == "tag-xyz"
            assert meta["n_rules"] == len(local)
            assert len(att) == len(local)
            oracle = CountdownOracle(local)
            for txn in self.sample_transactions(local):
                assert att.match_wire(txn) == local.match_wire(txn)
                assert att.explain(txn) == local.explain(txn)
                assert att.match_wire(txn) == oracle.match_wire(txn)
        finally:
            lease.unlink()

    def test_batch_path_needs_no_scalar_build(self):
        # attach builds no rule objects and no near-miss prefixes, and
        # the plain answer path never asks for either
        local, lease, att, _ = self.attach_pair(seed=11)
        try:
            txns = self.sample_transactions(local, seed=5)
            assert att._rules is None and att._near_heads is None
            fires, bodies = att.wire_batch(txns, [False] * len(txns))
            got = list(bodies)
            assert att._rules is None and att._near_heads is None
            want_fires, want = local.wire_batch(txns, [False] * len(txns))
            assert got == list(want)
            assert np.array_equal(fires, want_fires)
        finally:
            lease.unlink()

    def test_attached_columns_read_only(self):
        local, lease, att, _ = self.attach_pair(seed=13)
        try:
            for column in (
                att.table.support, att.table.lift, att.table.ant_ids,
                att.kernel.ant_masks, att.kernel.cons_masks,
            ):
                with pytest.raises(ValueError):
                    column[..., 0] = 1
        finally:
            lease.unlink()

    def test_multibyte_wire_fragments_never_tear(self):
        # multi-byte item spellings through the byte-offset fragment blob
        local = RuleIndex(rules_over(EXOTIC_ITEMS, seed=2, n_rules=25))
        lease = publish_rule_plane(local, generation=2)
        att, _ = attach_rule_plane(lease.name)
        try:
            for frag in att._frags:
                json.loads(frag)  # every fragment is standalone JSON
            assert att._frags.tolist() == local._frags.tolist()
        finally:
            lease.unlink()

    def test_attach_rejects_offsets_not_covering_the_blob(self, monkeypatch):
        # a damaged fragment offset table must fail as a SegmentError
        # (the reload path falls back on it), never as an IndexError
        import repro.shm.ruleplane as ruleplane

        publish = ruleplane.publish_segment

        def short_offsets(kind, fingerprint, *, arrays, **kwargs):
            arrays = dict(arrays, wire_offsets=arrays["wire_offsets"][:-1])
            return publish(kind, fingerprint, arrays=arrays, **kwargs)

        monkeypatch.setattr(ruleplane, "publish_segment", short_offsets)
        lease = publish_rule_plane(make_index(seed=17), generation=4)
        try:
            with pytest.raises(SegmentError, match="offsets"):
                attach_rule_plane(lease.name)
        finally:
            lease.unlink()

    def test_attached_lines_equal_compiled_lines(self):
        # the same batch, served by an attached and by a locally compiled
        # index, must give the same bytes — plain, explain, non-ASCII
        local = RuleIndex(rules_over(EXOTIC_ITEMS, seed=4, n_rules=40))
        lease = publish_rule_plane(local, generation=3)
        att, _ = attach_rule_plane(lease.name)
        try:
            rng = random.Random(9)
            spellings = [
                text
                for item in local.table.vocabulary
                for text in (str(item), item.render())
            ] + ["Unbekannt = ?"]
            requests = [
                {
                    "id": f"r{k} ü",
                    "transaction": rng.sample(spellings, rng.randint(0, 6)),
                    "explain": k % 3 == 0,
                }
                for k in range(30)
            ]
            lines = serve_batch(RuleService(att), requests)
            assert lines == serve_batch(RuleService(local), requests)
            oracle = CountdownOracle(local)
            assert lines == [oracle.line(r, 1) for r in requests]
            assert any(json.loads(line)["fired"] for line in lines)
        finally:
            lease.unlink()


# -- spawn-safe process backend --------------------------------------------------


class TestProcessBackendShm:
    def test_shm_plan_matches_serial(self, pai_db, default_config):
        resolved = ProcessBackend(n_workers=2, n_partitions=4).resolve(pai_db)
        got = resolved.mine(pai_db, default_config)
        expected = SerialBackend().resolve(pai_db).mine(pai_db, default_config)
        assert resolved.effective_plan.startswith("process:shm-")
        assert not resolved.downgraded
        assert dict(got.counts) == dict(expected.counts)
        clear_database_leases()

    def test_no_shm_env_is_clean_fallback(self, pai_db, default_config, monkeypatch):
        monkeypatch.setenv(NO_SHM_ENV, "1")
        resolved = ProcessBackend(n_workers=2, n_partitions=4).resolve(pai_db)
        got = resolved.mine(pai_db, default_config)
        expected = SerialBackend().resolve(pai_db).mine(pai_db, default_config)
        assert resolved.effective_plan == "process:pickle"
        assert not resolved.downgraded  # explicit opt-out, not a downgrade
        assert dict(got.counts) == dict(expected.counts)

    def test_platform_downgrade_warns_through_engine(
        self, toy_db, monkeypatch
    ):
        import repro.engine.backends as backends

        monkeypatch.setattr(backends, "shm_available", lambda: False)
        engine = MiningEngine(
            backend=ProcessBackend(n_workers=2, n_partitions=2), cache=False
        )
        from repro.traces import get_trace

        definition = get_trace("pai")
        table = definition.generate_scaled(n_jobs=300)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = engine.analyze(
                definition.make_preprocessor(), table,
                {"q": "Status = Failed"}, MiningConfig(),
            )
        stats = result.stats
        assert stats.backend_effective == "process:pickle"
        assert stats.backend_downgraded
        assert any("downgraded" in str(w.message) for w in caught)
        assert "downgraded" in stats.render()

    def test_spawn_start_method_equality(self):
        script = Path(__file__).with_name("_spawn_mining_check.py")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH") else src
        )
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SPAWN_MINING_OK plan=process:shm-spawn" in proc.stdout

    def test_two_worker_process_mine_leaves_stderr_empty(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH") else src
        )
        env.pop(NO_SHM_ENV, None)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "mine-rulebook", "--trace", "pai",
             "--n-jobs", "3000", "--backend", "process", "--workers", "2",
             "--no-cache", "--output", str(tmp_path / "pai.rulebook.jsonl")],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "effective=process:shm-" in proc.stdout
        assert proc.stderr == ""


# -- serving hot-swap over a segment ---------------------------------------------


class TestServiceSegmentReload:
    def test_reload_from_segment(self, tmp_path):
        old_index = make_index(seed=0)
        new_index = make_index(seed=9, n_rules=55)
        lease = publish_rule_plane(
            new_index, generation=1, version_tag="seg-tag"
        )

        async def scenario():
            service = RuleService(old_index, version_tag="old-tag")
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    result = await client.request(
                        {"type": "reload", "segment": lease.name}
                    )
                    assert result["source"] == "segment"
                    assert result["version"] == 2
                    assert result["n_rules"] == len(new_index)
                    assert result["version_tag"] == "seg-tag"
                    health = await client.healthz()
                    assert health["n_rules"] == len(new_index)
                    assert health["version_tag"] == "seg-tag"
            finally:
                await service.shutdown()

        try:
            run(scenario())
        finally:
            lease.unlink()

    def test_stale_segment_falls_back_to_path(self, tmp_path):
        old_index = make_index(seed=0)
        new_book = RuleBook(rules=random_rules(random.Random(4), 33, 20))
        path = tmp_path / "new.rulebook.jsonl"
        new_book.save(path)

        async def scenario():
            service = RuleService(old_index)
            await service.start(port=0)
            try:
                async with await RuleServiceClient.connect(
                    "127.0.0.1", service.port
                ) as client:
                    result = await client.request(
                        {
                            "type": "reload",
                            "segment": "rsm.r.0000000000.1.g0",
                            "rulebook": str(path),
                        }
                    )
                    assert result["source"] == "path"
                    assert result["n_rules"] == len(new_book)

                    with pytest.raises(ServiceError) as excinfo:
                        await client.request(
                            {
                                "type": "reload",
                                "segment": "rsm.r.0000000000.1.g0",
                            }
                        )
                    assert excinfo.value.code == "reload_failed"

                    with pytest.raises(ServiceError) as excinfo:
                        await client.request({"type": "reload"})
                    assert excinfo.value.code == "bad_request"
            finally:
                await service.shutdown()

        run(scenario())


# -- cluster lifecycle -----------------------------------------------------------


class TestClusterPlaneLifecycle:
    def test_cluster_publishes_swaps_and_unlinks(self, tmp_path):
        from repro.serve.shard import ShardCluster

        book1 = RuleBook(rules=random_rules(random.Random(0), 30, 20))
        book2 = RuleBook(rules=random_rules(random.Random(5), 44, 20))
        p1, p2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
        book1.save(p1)
        book2.save(p2)

        async def scenario():
            cluster = ShardCluster(str(p1), 2, mode="router")
            await cluster.start()
            try:
                planes = list_segments(["r"])
                assert len(planes) == 1
                assert cluster._plane_lease is not None
                assert cluster._plane_lease.name == planes[0]
                for worker in cluster.workers:
                    assert worker.segment == planes[0]

                report = await cluster.reload(str(p2))
                assert report["status"] == "ok"
                assert report["n_rules"] == len(book2)
                swapped = list_segments(["r"])
                assert len(swapped) == 1 and swapped != planes

                async with await RuleServiceClient.connect(
                    "127.0.0.1", cluster.port
                ) as client:
                    health = await client.healthz()
                    assert health["n_rules"] == len(book2)
            finally:
                await cluster.shutdown()
            assert list_segments(["r"]) == []

        run(scenario())

    def test_cluster_serves_with_shm_disabled(self, tmp_path, monkeypatch):
        from repro.serve.shard import ShardCluster

        monkeypatch.setenv(NO_SHM_ENV, "1")
        book = RuleBook(rules=random_rules(random.Random(1), 25, 20))
        path = tmp_path / "book.jsonl"
        book.save(path)

        async def scenario():
            cluster = ShardCluster(str(path), 2, mode="router")
            await cluster.start()
            try:
                assert cluster._plane_lease is None
                assert list_segments(["r"]) == []
                async with await RuleServiceClient.connect(
                    "127.0.0.1", cluster.port
                ) as client:
                    health = await client.healthz()
                    assert health["n_rules"] == len(book)
            finally:
                await cluster.shutdown()

        run(scenario())

    def test_sigtermed_worker_leaves_no_segments(self, tmp_path):
        from repro.serve.shard import ShardCluster

        book = RuleBook(rules=random_rules(random.Random(2), 25, 20))
        path = tmp_path / "book.jsonl"
        book.save(path)

        async def scenario():
            cluster = ShardCluster(str(path), 2, mode="router")
            await cluster.start()
            try:
                # workers only *attach*; killing one must not disturb
                # the published plane or leak anything
                victim = cluster.workers[0]
                victim.send_signal(signal.SIGTERM)
                await victim.wait(15.0)
                assert len(list_segments(["r"])) == 1
            finally:
                await cluster.shutdown()
            assert list_segments(["r"]) == []

        run(scenario())
