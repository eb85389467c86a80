"""Tests for the delta-maintained streaming bitmap window.

House style: the fast path is checked against two independent oracles —
the last *n* transactions of the stream as a batch database
(:func:`tests.oracles.window_of`) and :class:`PackedBitmaps` popcounts
built from the window's own snapshot.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MiningConfig
from repro.core.bitmap import PackedBitmaps
from repro.engine import MiningEngine
from repro.core.items import ItemVocabulary
from repro.streaming import GRANULE, StreamingBitmapWindow

from .oracles import window_of


def _random_transactions(seed: int, n: int, n_items: int = 12, max_len: int = 6):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        k = int(rng.integers(0, max_len + 1))
        out.append([f"f{int(i)}" for i in rng.choice(n_items, size=k, replace=False)])
    return out


def _reference_window(transactions, window_size):
    """The transactions a granule-aligned window of *window_size* retains."""
    kept = transactions[-window_size:] if window_size else []
    # eviction is granule-granular: drop whole leading granules until the
    # retained count fits, exactly like the window itself
    n = len(transactions)
    start = 0
    # simulate: sealed granules + partial, evict oldest granule while over
    while n - start > window_size:
        start += GRANULE
    return transactions[start:]


class TestWindowSemantics:
    def test_rounds_window_up_to_granules(self):
        assert StreamingBitmapWindow(1).window_size == GRANULE
        assert StreamingBitmapWindow(64).window_size == 64
        assert StreamingBitmapWindow(65).window_size == 128

    def test_rejects_bad_window_size(self):
        with pytest.raises(ValueError, match="window_size"):
            StreamingBitmapWindow(0)

    def test_len_and_bounds_track_granule_eviction(self):
        win = StreamingBitmapWindow(128)
        for k in range(300):
            win.observe([f"i{k % 7}"])
        # 300 seen, eviction keeps len in (window_size - 64, window_size]
        assert 64 < len(win) <= 128
        first, last = win.window_bounds()
        assert last == 300
        assert last - first == len(win)
        assert win.n_seen == 300

    def test_empty_window_support_raises(self):
        win = StreamingBitmapWindow(64)
        with pytest.raises(ValueError, match="empty window"):
            win.item_support("a")

    def test_unknown_item_support_zero(self):
        win = StreamingBitmapWindow(64)
        win.observe(["a"])
        assert win.item_support("ghost") == 0.0

    def test_rejects_out_of_vocabulary_encoded_ids(self):
        win = StreamingBitmapWindow(64)
        win.observe(["a"])
        with pytest.raises(ValueError, match="outside the vocabulary"):
            win.extend_encoded([[5]])


class TestSnapshotEquivalence:
    """snapshot() must equal the batch database of the retained suffix.

    (The parametrised test keeps the name of the deque window it was
    first checked against.)
    """

    @pytest.mark.parametrize("seed,n,window", [(0, 50, 64), (1, 200, 64),
                                               (2, 500, 128), (3, 991, 256)])
    def test_matches_sliding_window_miner(self, seed, n, window):
        txns = _random_transactions(seed, n)
        win = StreamingBitmapWindow(window)
        win.observe_many(txns)
        retained = _reference_window(txns, win.window_size)
        assert len(win) == len(retained)
        a, b = win.snapshot(), window_of(txns, len(retained), win.vocabulary)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.fingerprint() == b.fingerprint()

    def test_mine_equivalence(self):
        txns = _random_transactions(7, 300, n_items=8, max_len=5)
        win = StreamingBitmapWindow(128)
        win.observe_many(txns)
        retained = _reference_window(txns, win.window_size)
        config = MiningConfig(min_support=0.1)
        engine = MiningEngine()
        ours = engine.mine(win.snapshot(), config)
        theirs = engine.mine(window_of(txns, len(retained), win.vocabulary), config)
        assert ours.counts == theirs.counts


class TestMaintainedCounts:
    """Incremental popcount deltas vs ground-truth PackedBitmaps."""

    @pytest.mark.parametrize("seed,n,window", [(11, 80, 64), (12, 400, 128)])
    def test_item_counts_match_bitmaps(self, seed, n, window):
        txns = _random_transactions(seed, n)
        win = StreamingBitmapWindow(window)
        win.observe_many(txns)
        bitmaps = PackedBitmaps.from_database(win.snapshot())
        assert np.array_equal(
            win.item_support_counts()[: len(win.vocabulary)],
            bitmaps.item_counts(),
        )

    def test_tracked_counts_maintained_across_seals_and_evictions(self):
        txns = _random_transactions(21, 640, n_items=10, max_len=5)
        win = StreamingBitmapWindow(128)
        win.observe_many(txns[:200])
        # track some itemsets mid-stream, then keep streaming: the counts
        # must stay correct through further seals AND granule evictions
        vocab_n = len(win.vocabulary)
        tracked = [[i] for i in range(vocab_n)]
        tracked += [[i, (i + 1) % vocab_n] for i in range(vocab_n - 1)]
        tracked += [[0, 1, 2], [3, 4, 5]]
        win.set_tracked(tracked)
        for lo in range(200, 640, 37):  # odd batch size: partial granules
            win.observe_many(txns[lo:lo + 37])
            counts = win.tracked_counts()
            bitmaps = PackedBitmaps.from_database(win.snapshot())
            expected = [bitmaps.support_count(sorted(t)) for t in tracked]
            assert counts.tolist() == expected

    def test_set_tracked_rejects_empty_and_unknown(self):
        win = StreamingBitmapWindow(64)
        win.observe(["a"])
        with pytest.raises(ValueError, match="non-empty"):
            win.set_tracked([[]])
        with pytest.raises(ValueError, match="outside the vocabulary"):
            win.set_tracked([[99]])

    def test_vocabulary_growth_preserves_counts(self):
        win = StreamingBitmapWindow(64)
        # start tiny, then blow past the initial 16-item capacity
        for k in range(40):
            win.observe([f"item{k}", "common"])
        bitmaps = PackedBitmaps.from_database(win.snapshot())
        assert np.array_equal(
            win.item_support_counts()[: len(win.vocabulary)],
            bitmaps.item_counts(),
        )
        assert win.item_support("common") == 1.0

    def test_shared_vocabulary_grown_elsewhere(self):
        # the vocabulary is shared: items interned outside the window
        # read as support 0, and per-item counts cover every item
        vocab = ItemVocabulary()
        win = StreamingBitmapWindow(64, vocabulary=vocab)
        win.observe(["a"])
        for k in range(40):
            vocab.intern(f"x{k}")
        assert win.item_support("x39") == 0.0
        assert win.item_support("a") == 1.0
        counts = win.item_support_counts()
        assert counts.tolist() == [1] + [0] * 40
        win.observe(["x39"])
        assert win.item_support("x39") == 0.5
        assert win.item_support_counts()[vocab.id_of("x39")] == 1

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=120),
           st.integers(1, 3))
    def test_property_counts_always_match_snapshot(self, raw, granules):
        win = StreamingBitmapWindow(granules * GRANULE)
        win.observe_many([[f"i{i}" for i in txn] for txn in raw])
        if len(win.vocabulary):
            bitmaps = PackedBitmaps.from_database(win.snapshot())
            assert np.array_equal(
                win.item_support_counts()[: len(win.vocabulary)],
                bitmaps.item_counts(),
            )
        first, last = win.window_bounds()
        assert last - first == len(win)
        assert len(win) <= win.window_size
