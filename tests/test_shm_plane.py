"""Tests for the shared-memory data plane (repro.shm).

Covers the segment format itself (header validation, alignment,
lifecycle, stale-segment GC), the published compiled rule plane —
attached views must be *bit-identical* to the source and strictly
read-only — and its consumer: segment-shipped serving hot-swap, with
its per-worker fallback path.
"""

import asyncio
import json
import random
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.serve import RuleBook, RuleIndex, RuleService, RuleServiceClient
from repro.serve.client import ServiceError
from repro.shm import (
    SegmentError,
    attach_rule_plane,
    attach_segment,
    gc_stale_segments,
    list_segments,
    publish_rule_plane,
    publish_segment,
    shm_available,
)
from repro.shm.segment import _SHM_DIR, segment_name

from .oracles import table_of
from .serve_oracle import EXOTIC_ITEMS, CountdownOracle, rules_over, serve_batch
from .test_serve_rulebook import random_rules

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def run(coro):
    return asyncio.run(coro)


def rule_planes() -> list[str]:
    """Published segments of kind ``r`` (rule planes)."""
    return [name for name in list_segments() if name.split(".")[1] == "r"]


def make_index(seed=0, n_rules=40, n_items=20) -> RuleIndex:
    book = RuleBook(table_of(random_rules(random.Random(seed), n_rules, n_items)))
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
        lease = publish_segment("d", "5eed0a11ce00", arrays={"a": np.arange(3)})
        try:
            assert lease.name not in gc_stale_segments()
            assert lease.name in list_segments()
        finally:
            lease.unlink()


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
        local = RuleIndex(table_of(rules_over(EXOTIC_ITEMS, seed=2, n_rules=25)))
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
        local = RuleIndex(table_of(rules_over(EXOTIC_ITEMS, seed=4, n_rules=40)))
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
        new_book = RuleBook(table_of(random_rules(random.Random(4), 33, 20)))
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

        book1 = RuleBook(table_of(random_rules(random.Random(0), 30, 20)))
        book2 = RuleBook(table_of(random_rules(random.Random(5), 44, 20)))
        p1, p2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
        book1.save(p1)
        book2.save(p2)

        async def scenario():
            cluster = ShardCluster(str(p1), 2)
            await cluster.start()
            try:
                planes = rule_planes()
                assert len(planes) == 1
                assert cluster._plane_lease is not None
                assert cluster._plane_lease.name == planes[0]
                for worker in cluster.workers:
                    assert worker.segment == planes[0]

                report = await cluster.reload(str(p2))
                assert report["status"] == "ok"
                assert report["n_rules"] == len(book2)
                swapped = rule_planes()
                assert len(swapped) == 1 and swapped != planes

                async with await RuleServiceClient.connect(
                    "127.0.0.1", cluster.port
                ) as client:
                    health = await client.healthz()
                    assert health["n_rules"] == len(book2)
            finally:
                await cluster.shutdown()
            assert rule_planes() == []

        run(scenario())

    def test_cluster_serves_with_shm_disabled(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.serve import shard
        from repro.serve.shard import ShardCluster

        # the parent's probe fails: no plane, every shard compiles, and
        # the cluster says so once
        monkeypatch.setattr(shard, "shm_available", lambda: False)
        book = RuleBook(table_of(random_rules(random.Random(1), 25, 20)))
        path = tmp_path / "book.jsonl"
        book.save(path)

        async def scenario():
            cluster = ShardCluster(str(path), 2)
            await cluster.start()
            try:
                assert cluster._plane_lease is None
                assert rule_planes() == []
                assert all(w.segment is None for w in cluster.workers)
                async with await RuleServiceClient.connect(
                    "127.0.0.1", cluster.port
                ) as client:
                    health = await client.healthz()
                    assert health["n_rules"] == len(book)
                report = await cluster.reload(str(path))
                assert report["status"] == "ok"
                assert rule_planes() == []
            finally:
                await cluster.shutdown()

        run(scenario())
        out = capsys.readouterr().out
        assert out.count("cluster: shared memory unavailable") == 1, out

    def test_one_bad_worker_takes_the_started_fleet_down(self, tmp_path):
        import os
        import sys

        from repro.serve.shard import ShardCluster

        book = RuleBook(table_of(random_rules(random.Random(3), 25, 20)))
        path = tmp_path / "book.jsonl"
        book.save(path)
        cluster = ShardCluster(str(path), 3)
        # workers spawn side by side: the middle one dies at once while
        # its siblings come up, and start must not return a partial fleet
        cluster.workers[1]._command = lambda: [
            sys.executable, "-c", "raise SystemExit(3)"
        ]
        with pytest.raises(RuntimeError, match=r"shard1 exited \(rc=3\)"):
            run(cluster.start())
        assert cluster.router is None
        pids = [w.process.pid for w in cluster.workers]
        assert all(w.process.returncode is not None for w in cluster.workers)
        for pid in pids:  # reaped, so the pid no longer names a process
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert rule_planes() == []

    def test_sigtermed_worker_leaves_no_segments(self, tmp_path):
        from repro.serve.shard import ShardCluster

        book = RuleBook(table_of(random_rules(random.Random(2), 25, 20)))
        path = tmp_path / "book.jsonl"
        book.save(path)

        async def scenario():
            cluster = ShardCluster(str(path), 2)
            await cluster.start()
            try:
                # workers only *attach*; killing one must not disturb
                # the published plane or leak anything
                victim = cluster.workers[0]
                victim.send_signal(signal.SIGTERM)
                await victim.wait(15.0)
                assert len(rule_planes()) == 1
            finally:
                await cluster.shutdown()
            assert rule_planes() == []

        run(scenario())


# -- platform without shared memory ----------------------------------------------


class TestPlatformFallback:
    """Where the probe fails, a process compiles per shard — loudly.

    The probe is forced off where the process calls it, so these run
    the compile path that hosts without POSIX shared memory take (the
    cluster's own case is in :class:`TestClusterPlaneLifecycle`).
    """

    def test_worker_given_a_segment_compiles_and_says_so(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.serve import shard

        book = RuleBook(table_of(random_rules(random.Random(3), 25, 20)))
        path = tmp_path / "book.jsonl"
        book.save(path)
        lease = publish_rule_plane(RuleIndex.from_rulebook(book), generation=1)
        monkeypatch.setattr(shard, "shm_available", lambda: False)
        try:
            args = shard._build_worker_parser().parse_args(
                ["--rulebook", str(path), "--name", "w0",
                 "--segment", lease.name]
            )
            service = shard._worker_service(args)
        finally:
            lease.unlink()
        assert len(service.index) == len(book)
        assert service.index.shm_segment is None  # compiled, not attached
        out = capsys.readouterr().out
        assert out.count("shard w0: shared memory unavailable") == 1, out

    def test_follower_ships_the_path_and_says_so(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.streaming import StreamFollower
        from repro.streaming import follow

        from .test_stream_follow import _bootstrap, _stream

        monkeypatch.setattr(follow, "shm_available", lambda: False)
        _win, refresher = _bootstrap()
        refresher.threshold = 0.0  # the tick remines and reloads
        stream_path = tmp_path / "events.ndjson"

        async def scenario():
            service = RuleService(RuleIndex.from_rulebook(refresher.book))
            await service.start(port=0)
            try:
                follower = StreamFollower(
                    refresher,
                    stream_path,
                    port=service.port,
                    out_dir=tmp_path / "books",
                    interval_s=0.05,
                    min_events=4,
                    poll_s=0.02,
                )
                stop = asyncio.Event()
                task = asyncio.create_task(follower.run(stop))
                with open(stream_path, "w") as fh:
                    for txn in _stream(17, 48):
                        fh.write(json.dumps(txn) + "\n")
                async with asyncio.timeout(20):
                    while follower.stats.n_reloads < 1:
                        await asyncio.sleep(0.02)
                        assert rule_planes() == []
                stop.set()
                stats = await task
                assert stats.n_reload_failures == 0
                assert service.version == 1 + stats.n_reloads
            finally:
                await service.shutdown()

        run(scenario())
        out = capsys.readouterr().out
        assert out.count("follow: shared memory unavailable") == 1, out
