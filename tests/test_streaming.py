"""Window semantics of the streaming window, at granule-aligned sizes.

:class:`StreamingBitmapWindow` evicts whole granules of
:data:`GRANULE` transactions, so these tests use window sizes and
stream lengths in whole granules: once full, the window then holds
exactly the last ``window_size`` transactions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MiningConfig, TransactionDatabase
from repro.core.fpgrowth import fpgrowth
from repro.engine import MiningEngine
from repro.streaming import GRANULE, StreamingBitmapWindow

from .oracles import window_of

G = GRANULE


class TestWindowMaintenance:
    def test_grows_until_window_size(self):
        win = StreamingBitmapWindow(G)
        for k in range(3 * G):
            win.observe([f"i{k % 5}"])
        assert len(win) == G
        assert win.n_seen == 3 * G

    def test_eviction_updates_item_counts(self):
        win = StreamingBitmapWindow(2 * G)
        win.observe_many([["a"]] * G)
        win.observe_many([["a", "b"]] * G)
        assert win.item_support("a") == 1.0
        win.observe_many([["b"]] * G)  # evicts the first granule of ["a"]
        assert win.item_support("a") == pytest.approx(0.5)
        assert win.item_support("b") == 1.0

    def test_unknown_item_support_zero(self):
        win = StreamingBitmapWindow(G)
        win.observe(["a"])
        assert win.item_support("ghost") == 0.0

    def test_empty_window_support_raises(self):
        # regression: support over zero transactions is undefined and must
        # fail loudly, not read as "item absent" (0.0) or divide by zero
        win = StreamingBitmapWindow(G)
        with pytest.raises(ValueError, match="empty window"):
            win.item_support("a")

    def test_window_emptiness_is_about_window_not_stream(self):
        # after enough evictions the window is never empty again, so the
        # guard only ever fires before the first observe()
        win = StreamingBitmapWindow(G)
        win.observe_many([["a"]] * G)
        win.observe_many([["b"]] * G)
        assert win.item_support("a") == 0.0
        assert win.item_support("b") == 1.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            StreamingBitmapWindow(0)

    def test_duplicate_items_collapsed(self):
        win = StreamingBitmapWindow(G)
        win.observe(["a", "a", "a"])
        assert win.item_support("a") == 1.0
        db = win.snapshot()
        assert len(db.transaction(0)) == 1


class TestMining:
    def test_mine_matches_batch_on_window(self):
        config = MiningConfig(min_support=0.5, max_len=None)
        win = StreamingBitmapWindow(G)
        pattern = [["a", "b"], ["a"], ["a", "b"], ["b"], ["a", "b", "c"]]
        stream = [pattern[k % 5] for k in range(2 * G)]
        win.observe_many(stream)
        assert len(win) == G  # the window now holds the last granule
        batch = TransactionDatabase.from_itemsets(stream[-G:])
        expected = fpgrowth(batch, 0.5)
        mined = MiningEngine().mine(win.snapshot(), config)
        decoded = {
            frozenset(i.render() for i in win.vocabulary.items_of(ids)): count
            for ids, count in mined.counts.items()
        }
        expected_decoded = {
            frozenset(i.render() for i in batch.vocabulary.items_of(ids)): count
            for ids, count in expected.items()
        }
        assert decoded == expected_decoded

    def test_drift_detection(self):
        """A regime change inside the stream shows up after the window
        slides past the old regime — the monitoring use case."""
        config = MiningConfig(min_support=0.6, max_len=2)
        engine = MiningEngine()
        win = StreamingBitmapWindow(G)
        # regime 1: failures dominate
        win.observe_many([["Failed", "SM Util = 0%"]] * G)
        before = engine.mine(win.snapshot(), config)
        assert win.item_support("Failed") == 1.0
        # regime 2: healthy jobs wash the window
        win.observe_many([["Completed"]] * G)
        after = engine.mine(win.snapshot(), config)
        assert win.item_support("Failed") == 0.0
        failed_id = win.vocabulary.id_of("Failed")
        assert any(failed_id in s for s in before.counts)
        assert not any(failed_id in s for s in after.counts)

    def test_snapshot_is_isolated(self):
        win = StreamingBitmapWindow(G)
        win.observe(["a"])
        snap = win.snapshot()
        win.observe_many([["b"]] * (2 * G))  # seals and evicts
        assert len(snap) == 1  # unchanged by later stream activity
        assert snap.transaction(0).tolist() == [win.vocabulary.id_of("a")]


@given(
    granules=st.integers(1, 3),
    stream=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4), max_size=300
    ),
)
@settings(max_examples=60, deadline=None)
def test_window_equals_batch_property(granules, stream):
    """At every prefix, the snapshot equals a batch DB over the suffix."""
    win = StreamingBitmapWindow(granules * G)
    win.observe_many(stream)
    start = 0
    while len(stream) - start > win.window_size:  # whole-granule eviction
        start += G
    tail = stream[start:]
    snap = win.snapshot()
    assert len(snap) == len(tail)
    batch = TransactionDatabase.from_itemsets(tail)
    decoded_snap = [
        frozenset(i.render() for i in s) for s in snap.iter_item_transactions()
    ]
    decoded_batch = [
        frozenset(i.render() for i in s) for s in batch.iter_item_transactions()
    ]
    assert decoded_snap == decoded_batch
    oracle = window_of(stream, len(tail), win.vocabulary)
    assert snap.fingerprint() == oracle.fingerprint()


class TestSnapshotPreallocation:
    """The granule-concatenated snapshot vs the list-building oracle."""

    def test_snapshot_matches_list_oracle(self):
        win = StreamingBitmapWindow(G)
        stream = [
            [f"i{k % 4}", f"j{k % 3}"] + (["k"] if k % 2 else []) for k in range(150)
        ]
        win.observe_many(stream)
        fast, oracle = win.snapshot(), window_of(stream, len(win), win.vocabulary)
        assert np.array_equal(fast.indptr, oracle.indptr)
        assert np.array_equal(fast.indices, oracle.indices)
        assert fast.fingerprint() == oracle.fingerprint()

    def test_snapshot_matches_oracle_with_empty_transactions(self):
        win = StreamingBitmapWindow(G)
        stream = [[], ["a"], []] * 30  # 90 seen: the first granule is evicted
        win.observe_many(stream)
        fast, oracle = win.snapshot(), window_of(stream, len(win), win.vocabulary)
        assert np.array_equal(fast.indptr, oracle.indptr)
        assert np.array_equal(fast.indices, oracle.indices)

    def test_maintained_id_total_tracks_eviction(self):
        win = StreamingBitmapWindow(G)
        win.observe_many([["a", "b", "c"]] * G)
        win.observe_many([["a"]] * G)  # evicts the 3-item granule
        assert len(win.snapshot().indices) == G
        assert win.item_support_counts().tolist() == [G, 0, 0]
