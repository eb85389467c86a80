"""Tests for drift-gated refresh and serve --follow live refresh.

Three layers, mirroring the subsystem:

* :class:`TestRefresherGate` — the drift gate's hold/remine decisions,
  stream provenance, and the bit-identity of the incremental recount
  against the book's own full-remine metrics;
* :class:`TestStreamFollower` — NDJSON tailing, bad-line tolerance, and
  versioned book output, with no serving fleet attached;
* :class:`TestFollowLiveRefresh` — the whole loop against a real
  multi-process cluster under sustained load (the chaos harness):
  refreshes must deliver zero client-visible failures, every response
  must carry a version tag, and the fleet must settle on the newest
  version;
* :class:`TestFollowFreshInterpreter` — ``python -m repro serve
  --shards 2 --follow`` as its own process without bytecode, so every
  module is imported cold, some of them while a remine runs on its
  worker thread.
"""

import asyncio
import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import FrequentItemsets, MiningConfig
from repro.engine import MiningEngine
from repro.serve import RuleBook, RuleIndex, RuleServiceClient
from repro.streaming import (
    RuleBookRefresher,
    StreamFollower,
    StreamingBitmapWindow,
)

from repro.shm.segment import list_segments

from .serve_chaos import ChaosCluster, LoadDriver
from .serve_oracle import CountdownOracle


def run(coro):
    return asyncio.run(coro)


CONFIG = MiningConfig(min_support=0.15, min_lift=1.2)


def _stream(seed: int, n: int) -> list[list[str]]:
    # the keyword K is strongly correlated with A=hot (lift ≈ 1.6), so
    # mining the window actually yields rules for the "always" study
    import random

    rng = random.Random(seed)
    out = []
    for _ in range(n):
        txn = []
        if rng.random() < 0.5:
            txn.append("A = hot")
            if rng.random() < 0.9:
                txn.append("K")
        else:
            txn.append("A = cold")
            if rng.random() < 0.2:
                txn.append("K")
        txn.append(f"B = b{rng.randrange(3)}")
        out.append(sorted(txn))
    return out


def _bootstrap(seed: int = 3, warmup: int = 192, window: int = 192):
    win = StreamingBitmapWindow(window)
    win.observe_many(_stream(seed, warmup))
    refresher = RuleBookRefresher.bootstrap(
        win,
        {"k": "K"},
        CONFIG,
        engine=MiningEngine(),
        threshold=0.05,
        trace="chaos",
    )
    return win, refresher


class TestRefresherGate:
    def test_bootstrap_stamps_stream_provenance(self):
        win, refresher = _bootstrap()
        book = refresher.book
        assert refresher.version == 1
        assert len(book) > 0
        assert book.stream["trigger"] == "bootstrap"
        assert book.stream["version"] == 1
        assert book.stream["n_seen"] == win.n_seen
        first, last = book.stream["window"]
        assert (last - first) == book.stream["n_window"] == len(win)

    def test_stable_window_holds(self):
        _win, refresher = _bootstrap()
        result = refresher.tick()
        assert not result.remined
        assert result.trigger is None
        assert result.drift_score == 0.0
        assert refresher.version == 1
        assert [s.name for s in result.stats.stages] == [
            "stream-recount",
            "stream-drift",
        ]

    def test_recount_is_bit_identical_to_the_remine(self):
        # the book was just remined from this exact window, so an
        # incremental recount must reproduce its metric columns
        # bit-for-bit — same integer counts, same float ops
        _win, refresher = _bootstrap()
        result = refresher.tick()
        recounted, book_table = result.recounted, refresher.book.table
        assert len(recounted) == len(book_table)
        for name in ("support", "confidence", "lift", "leverage", "conviction"):
            ours = getattr(recounted, name)
            theirs = getattr(book_table, name)
            assert np.array_equal(ours, theirs, equal_nan=True), name

    def test_drift_triggers_remine_with_provenance(self):
        win, refresher = _bootstrap()
        # shove the window into a different item regime
        win.observe_many(
            [[f"G{k % 5} = new", "K"] for k in range(400)]
        )
        result = refresher.tick()
        assert result.remined and result.trigger == "drift"
        assert result.drift_score >= refresher.threshold
        assert refresher.version == 2
        assert refresher.book.stream["trigger"] == "drift"
        assert [s.name for s in result.stats.stages] == [
            "stream-recount",
            "stream-drift",
            "stream-remine",
        ]

    def test_zero_threshold_remines_every_tick(self):
        win, refresher = _bootstrap()
        refresher.threshold = 0.0
        win.observe_many(_stream(9, 10))
        refresher.tick()
        win.observe_many(_stream(10, 10))
        refresher.tick()
        assert refresher.version == 3
        assert refresher.n_remines == 3  # bootstrap + 2 ticks

    def test_force_overrides_gate(self):
        _win, refresher = _bootstrap()
        result = refresher.remine_now()
        assert result.remined and result.trigger == "forced"

    def test_nothing_outlives_a_remine(self):
        """Mining keeps nothing between calls: once three forced remines
        are done, none of the itemsets they mined is still reachable."""
        win = StreamingBitmapWindow(192)
        win.observe_many(_stream(3, 192))
        refresher = RuleBookRefresher(win, RuleBook(keywords={"k": "K"}, config=CONFIG))
        gc.collect()
        # held, so no object mined below can reuse one of their ids
        earlier = [o for o in gc.get_objects() if isinstance(o, FrequentItemsets)]
        earlier_ids = {id(o) for o in earlier}
        for seed in (4, 5, 6):
            win.observe_many(_stream(seed, 64))
            assert refresher.remine_now().remined
        assert len(refresher.book) > 0
        gc.collect()
        alive = [
            o for o in gc.get_objects()
            if isinstance(o, FrequentItemsets) and id(o) not in earlier_ids
        ]
        assert not alive, f"{len(alive)} remined FrequentItemsets still alive"

    def test_empty_window_tick_raises(self):
        win = StreamingBitmapWindow(64)
        book = RuleBook(keywords={"k": "K"}, config=CONFIG)
        refresher = RuleBookRefresher(win, book, engine=MiningEngine())
        with pytest.raises(ValueError, match="empty window"):
            refresher.tick()

    def test_provenance_survives_save_load(self, tmp_path):
        _win, refresher = _bootstrap()
        path = tmp_path / "streamed.jsonl"
        refresher.book.save(path)
        loaded = RuleBook.load(path)
        assert loaded.stream == refresher.book.stream
        assert "stream=" in loaded.provenance()
        # batch-mined books stay clean: no stream key at all
        batch = RuleBook(refresher.book.table.select(range(3)))
        batch_path = tmp_path / "batch.jsonl"
        batch.save(batch_path)
        header = json.loads(batch_path.read_text().splitlines()[0])
        assert "stream" not in header
        assert RuleBook.load(batch_path).stream is None


class TestStreamFollower:
    def test_tails_remines_and_writes_versioned_books(self, tmp_path):
        _win, refresher = _bootstrap()
        refresher.threshold = 0.0  # deterministic: every tick remines
        stream_path = tmp_path / "events.ndjson"
        out_dir = tmp_path / "books"
        follower = StreamFollower(
            refresher,
            stream_path,
            out_dir=out_dir,
            interval_s=0.05,
            min_events=4,
            poll_s=0.02,
        )
        events = _stream(17, 48)

        async def scenario():
            stop = asyncio.Event()
            task = asyncio.create_task(follower.run(stop))
            with open(stream_path, "w") as fh:
                for k, txn in enumerate(events):
                    fh.write(json.dumps(txn) + "\n")
                    if k % 3 == 0:  # object form is accepted too
                        fh.write(json.dumps({"transaction": txn}) + "\n")
                    if k == 10:
                        fh.write("{not json\n")       # malformed line
                        fh.write('{"no": "txn"}\n')   # wrong shape
                        fh.flush()
                        await asyncio.sleep(0.15)
            async with asyncio.timeout(20):
                while follower.stats.n_remines < 2:
                    await asyncio.sleep(0.02)
            stop.set()
            return await task

        stats = run(scenario())
        assert stats.n_events >= len(events)
        assert stats.n_bad_lines == 2
        assert stats.n_ticks >= stats.n_remines >= 2
        latest = RuleBook.load(out_dir / "rulebook.latest.jsonl")
        assert latest.stream["version"] == refresher.version
        versioned = out_dir / f"rulebook.v{refresher.version}.jsonl"
        assert versioned.exists()
        assert "events=" in stats.render()

    def test_validates_cadence_parameters(self, tmp_path):
        _win, refresher = _bootstrap()
        with pytest.raises(ValueError, match="interval_s"):
            StreamFollower(refresher, tmp_path / "s", interval_s=0.0)
        with pytest.raises(ValueError, match="min_events"):
            StreamFollower(refresher, tmp_path / "s", min_events=0)


class TestFollowLiveRefresh:
    def test_fleet_refreshes_under_load_without_failures(self, tmp_path):
        win, refresher = _bootstrap(seed=5, warmup=192)
        refresher.threshold = 0.0
        initial_path = tmp_path / "initial.jsonl"
        refresher.book.save(initial_path)
        stream_path = tmp_path / "events.ndjson"
        out_dir = tmp_path / "books"
        load_txns = _stream(6, 64)

        async def scenario():
            async with ChaosCluster(str(initial_path), 2) as chaos:
                follower = StreamFollower(
                    refresher,
                    stream_path,
                    host=chaos.host,
                    port=chaos.port,
                    out_dir=out_dir,
                    interval_s=0.1,
                    min_events=8,
                    poll_s=0.02,
                )
                async with LoadDriver(
                    chaos.host, chaos.port, load_txns
                ) as driver:
                    await driver.wait_for_progress(30, timeout=30)
                    stop = asyncio.Event()
                    task = asyncio.create_task(follower.run(stop))
                    # feed the stream in chunks so several ticks (and
                    # therefore several rolling refreshes) happen
                    chunks = iter(range(100))
                    async with asyncio.timeout(60):
                        while follower.stats.n_reloads < 2:
                            chunk = next(chunks)
                            with open(stream_path, "a") as fh:
                                for txn in _stream(100 + chunk, 16):
                                    fh.write(json.dumps(txn) + "\n")
                            await asyncio.sleep(0.15)
                    stop.set()
                    stats = await task
                    # traffic straddling refreshes must all be answered
                    marker = driver.marker()
                    await driver.wait_for_progress(30, timeout=30)
                    outcome = await driver.stop()

                assert stats.n_reloads >= 2
                assert stats.n_reload_failures == 0

                # zero client-visible failures across every refresh
                assert outcome.failures == [], outcome.failures[:5]
                # every response names the index version that served it
                versions = [r.version for r in outcome.records]
                assert all(v is not None for v in versions)
                vmax = max(versions)
                assert vmax >= 1 + stats.n_reloads
                assert set(versions) <= set(range(1, vmax + 1))
                # after the last refresh settles, no stale version serves
                assert set(outcome.versions_after(marker)) == {vmax}

                # served answers match a batch remine: the live fleet
                # agrees with an offline index over the follower's book
                latest = RuleBook.load(out_dir / "rulebook.latest.jsonl")
                offline = RuleIndex.from_rulebook(latest)
                async with await RuleServiceClient.connect(
                    chaos.host, chaos.port
                ) as client:
                    health = await client.healthz()
                    assert health["version"] == vmax
                    for txn in load_txns[:10]:
                        response = await client.match(txn)
                        served = [
                            (f["antecedent"], f["consequent"])
                            for f in response["fired"]
                        ]
                        expected = [
                            (
                                d["antecedent"],
                                d["consequent"],
                            )
                            for d in (
                                m.as_dict() for m in offline.match(txn)
                            )
                        ]
                        assert served == expected

        run(scenario())


def _descendants(pid: int) -> set[int]:
    """Every live process below *pid* (Linux ``/proc``)."""
    found: set[int] = set()
    todo = [pid]
    while todo:
        parent = todo.pop()
        try:
            tids = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    children = {int(c) for c in fh.read().split()}
            except OSError:
                continue
            todo.extend(children - found)
            found |= children
    return found


def _running(pid: int) -> bool:
    """Alive and not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _ask(port: int, request: dict) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as conn:
        conn.sendall(json.dumps(request).encode() + b"\n")
        return conn.makefile("rb").readline()


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="walks /proc for the process tree"
)
class TestFollowFreshInterpreter:
    """The fleet of the serve-philly-follow benchmark, started cold."""

    def test_cold_fleet_answers_refreshes_and_exits_clean(self, tmp_path):
        _, refresher = _bootstrap(seed=5, warmup=192)
        initial_path = tmp_path / "initial.jsonl"
        refresher.book.save(initial_path)
        stream_path = tmp_path / "events.ndjson"
        stream_path.touch()
        out_dir = tmp_path / "books"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            PYTHONDONTWRITEBYTECODE="1",
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--rulebook", str(initial_path), "--port", "0", "--shards", "2",
                "--follow", str(stream_path), "--follow-window", "192",
                "--follow-interval", "0.2", "--follow-min-events", "8",
                "--follow-drift", "0", "--follow-out", str(out_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=tmp_path,
        )
        try:
            port = None
            for raw in proc.stdout:
                line = raw.decode()
                if line.startswith("CLUSTER_READY"):
                    port = int(line.split("port=")[1].split()[0])
                if line.startswith("FOLLOW_READY"):
                    break
            assert port is not None, proc.stderr.read().decode()

            txn = ["A = hot", "B = b0", "K"]
            request = {"type": "match", "id": 1, "transaction": txn}
            first = CountdownOracle(RuleIndex.from_rulebook(refresher.book))
            assert _ask(port, request) == first.line(request, 1)

            with open(stream_path, "a") as fh:
                for event in _stream(100, 64):
                    fh.write(json.dumps(event) + "\n")
            deadline = time.monotonic() + 60
            while json.loads(line := _ask(port, request))["version"] != 2:
                assert time.monotonic() < deadline, "no answer from version 2"
                time.sleep(0.05)
            follow_book = RuleBook.load(out_dir / "rulebook.v1.jsonl")
            oracle = CountdownOracle(RuleIndex.from_rulebook(follow_book))
            assert line == oracle.line(request, 2)

            tree = {proc.pid} | _descendants(proc.pid)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0, proc.stderr.read().decode()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        deadline = time.monotonic() + 10
        while any(map(_running, tree)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not [pid for pid in tree if _running(pid)]
        assert not [
            name for name in list_segments() if int(name.split(".")[3]) in tree
        ]
