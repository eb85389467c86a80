"""Packed-bitmap kernel contracts: answers never change, only the speed.

Every fast path introduced with :mod:`repro.core.bitmap` has a slow,
obviously-correct statement it is checked against here:

* packed support counts vs naive Python subset counting (property test,
  including empty transactions and items present in every transaction);
* mask-projected FP-Growth, packed Eclat and packed Apriori vs support
  by set inclusion (:mod:`tests.oracles`), on random databases and on
  all three synthetic traces (test names still mention the object-tree
  and dense-boolean twins this replaced);
* vectorised rule metrics vs scalar :func:`compute_metrics`;
* ``from_encoded`` vs the generic ``from_itemsets`` loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MiningConfig, TransactionDatabase, generate_rule_table
from repro.core.apriori import apriori
from repro.core.bitmap import (
    PackedBitmaps,
    bitmap_cache_info,
    clear_bitmap_cache,
    get_shared_bitmaps,
    popcount,
)
from repro.core.eclat import eclat
from repro.core.fpgrowth import fpgrowth
from repro.core.items import ItemVocabulary
from repro.core.itemsets import FrequentItemsets
from repro.obs import EngineStats, kernel_timer, stage

from .oracles import check_itemset_table, compute_metrics, support_counts

# -- strategies ---------------------------------------------------------------

#: random id-encoded databases: empty transactions allowed, duplicate ids
#: allowed (construction dedupes), small vocabularies so itemsets overlap
_N_ITEMS = 8
_txn = st.lists(st.integers(min_value=0, max_value=_N_ITEMS - 1), max_size=6)
_txns = st.lists(_txn, max_size=40)


def _make_db(raw_txns: list[list[int]]) -> TransactionDatabase:
    vocab = ItemVocabulary()
    for i in range(_N_ITEMS):
        vocab.intern(f"item{i}")
    return TransactionDatabase.from_itemsets(raw_txns, vocabulary=vocab)


def _naive_support(raw_txns: list[list[int]], itemset: set[int]) -> int:
    return sum(1 for t in raw_txns if itemset <= set(t))


# -- popcount + bitmap layout -------------------------------------------------


class TestPopcount:
    def test_empty(self):
        assert popcount(np.zeros(0, dtype=np.uint64)) == 0

    def test_all_ones_word(self):
        assert popcount(np.asarray([np.uint64(0xFFFFFFFFFFFFFFFF)])) == 64

    def test_matches_bin(self):
        rng = np.random.default_rng(7)
        words = rng.integers(0, 2**63, size=33, dtype=np.uint64)
        expected = sum(bin(int(w)).count("1") for w in words)
        assert popcount(words) == expected


class TestBitmapLayout:
    def test_bit_position(self):
        # transaction t lives in word t >> 6 at bit t & 63
        db = _make_db([[0] if t in (0, 63, 64, 100) else [] for t in range(130)])
        words = db.bitmaps().words
        assert words.shape == (_N_ITEMS, 3)
        assert words[0, 0] == (1 | (np.uint64(1) << np.uint64(63)))
        assert words[0, 1] == (1 | (np.uint64(1) << np.uint64(36)))
        assert words[0, 2] == 0

    def test_pad_bits_zero(self):
        # 70 transactions all containing item 0: bits 70..127 must stay 0
        db = _make_db([[0]] * 70)
        bm = db.bitmaps()
        assert bm.words.shape[1] == 2
        assert popcount(bm.words[0]) == 70

    def test_from_onehot_matches_from_database(self):
        rng = np.random.default_rng(3)
        matrix = rng.random((77, _N_ITEMS)) < 0.4
        via_onehot = PackedBitmaps.from_onehot(matrix)
        db = _make_db([list(np.flatnonzero(row)) for row in matrix])
        assert np.array_equal(via_onehot.words, db.bitmaps().words)

    def test_to_bool_roundtrip(self):
        raw = [[0], [], [0, 1], [1]]
        bm = _make_db(raw).bitmaps()
        for item in range(2):
            assert bm.to_bool(bm.row(item)).tolist() == [item in t for t in raw]


# -- property: packed support == naive subset counting ------------------------


@given(raw=_txns, itemset=st.sets(st.integers(0, _N_ITEMS - 1), max_size=4))
@settings(max_examples=150, deadline=None)
def test_support_count_matches_naive(raw, itemset):
    db = _make_db(raw)
    bm = db.bitmaps()
    if itemset:
        assert bm.support_count(sorted(itemset)) == _naive_support(raw, itemset)
    else:
        assert bm.support_count([]) == len(raw)


@given(raw=_txns)
@settings(max_examples=100, deadline=None)
def test_item_counts_match_naive(raw):
    db = _make_db(raw)
    counts = db.bitmaps().item_counts()
    for item in range(_N_ITEMS):
        assert counts[item] == _naive_support(raw, {item})


def test_all_ones_item_and_empty_transactions():
    # item 0 in every transaction, item 1 never, plus empty transactions
    raw = [[0], [0, 2], [0], [0, 2, 3], [0]] + [[0]] * 120
    raw.insert(3, [0])
    db = _make_db(raw)
    bm = db.bitmaps()
    assert bm.support_count([0]) == len(raw)
    assert bm.support_count([1]) == 0
    assert bm.support_count([0, 1]) == 0

    with_empties = [[], [0], [], [0, 1], []]
    db2 = _make_db(with_empties)
    assert db2.bitmaps().support_count([0]) == 2
    assert db2.bitmaps().support_count([]) == 5


def test_empty_database():
    db = _make_db([])
    bm = db.bitmaps()
    assert bm.n_transactions == 0
    assert bm.support_count([]) == 0
    assert bm.item_counts().tolist() == [0] * _N_ITEMS


# -- slice_range / txn_range inheritance --------------------------------------


class TestSliceRange:
    def test_matches_fresh_build(self):
        rng = np.random.default_rng(11)
        raw = [list(np.flatnonzero(rng.random(_N_ITEMS) < 0.3)) for _ in range(200)]
        db = _make_db(raw)
        parent = db.bitmaps()
        for start, stop in [(0, 64), (64, 200), (128, 130), (0, 200), (64, 64)]:
            view = parent.slice_range(start, stop)
            fresh = _make_db(raw[start:stop]).bitmaps()
            assert np.array_equal(view.words, fresh.words)

    def test_does_not_mutate_parent(self):
        db = _make_db([[0]] * 5)
        parent = db.bitmaps()
        before = parent.words.copy()
        parent.slice_range(0, 2)  # tail masking must act on a copy
        assert np.array_equal(parent.words, before)

    def test_unaligned_start_rejected(self):
        db = _make_db([[0]] * 130)
        with pytest.raises(ValueError):
            db.bitmaps().slice_range(3, 10)

    def test_txn_range_inherits_when_aligned(self):
        db = _make_db([[0, 1]] * 130)
        parent = db.bitmaps()
        sub = db.txn_range(64, 130)
        inherited = sub._bitmaps_cache
        assert inherited is not None
        assert np.array_equal(inherited.words, parent.words[:, 1:3])
        # unaligned start: no inheritance, lazily rebuilt instead
        assert db.txn_range(65, 130)._bitmaps_cache is None


# -- shared bitmap cache ------------------------------------------------------


class TestBitmapCache:
    def test_equal_content_shares_one_build(self):
        clear_bitmap_cache()
        raw = [[0, 1], [1, 2], [0, 2]]
        a, b = _make_db(raw), _make_db(raw)
        assert a is not b
        assert get_shared_bitmaps(a) is get_shared_bitmaps(b)
        info = bitmap_cache_info()
        assert info["misses"] == 1 and info["hits"] >= 1

    def test_different_content_distinct(self):
        clear_bitmap_cache()
        a = _make_db([[0, 1]])
        b = _make_db([[0, 2]])
        assert get_shared_bitmaps(a) is not get_shared_bitmaps(b)


# -- kernel attribution -------------------------------------------------------


def test_kernel_counters_accumulate():
    stats = EngineStats()
    with stage(stats, "test", 0):
        for _ in range(2):
            with kernel_timer("test-kernel"):
                pass
    ((name, seconds, calls),) = stats.stage("test").kernels
    assert (name, calls) == ("test-kernel", 2)
    assert seconds >= 0.0


def test_mining_records_kernels(toy_db):
    stats = EngineStats()
    with stage(stats, "mine", len(toy_db)):
        eclat(toy_db, 0.2)
        apriori(toy_db, 0.2)
        fpgrowth(toy_db, 0.2)
    calls = {name: calls for name, _, calls in stats.stage("mine").kernels}
    for name in ("eclat-bitmap", "apriori-bitmap", "fpgrowth-masks"):
        assert calls[name] >= 1


# -- every miner vs support by set inclusion --------------------------------------


@given(
    raw=_txns,
    min_support=st.sampled_from([0.01, 0.1, 0.3, 0.6]),
    max_len=st.sampled_from([None, 1, 2, 4]),
)
@settings(max_examples=100, deadline=None)
def test_miners_equivalent_random(raw, min_support, max_len):
    db = _make_db(raw)
    reference = support_counts(raw, min_support, max_len)
    assert fpgrowth(db, min_support, max_len) == reference
    assert eclat(db, min_support, max_len) == reference
    assert apriori(db, min_support, max_len) == reference


@pytest.mark.parametrize("fixture", ["pai_db", "supercloud_db", "philly_db"])
def test_fpgrowth_matches_object_tree_on_traces(fixture, request):
    # the mined-table check at the paper's operating point
    db = request.getfixturevalue(fixture)
    config = MiningConfig()
    counts = fpgrowth(db, config.min_support, config.max_len)
    check_itemset_table(db, counts, config.min_support, config.max_len)


@pytest.mark.parametrize("fixture", ["pai_db", "supercloud_db", "philly_db"])
def test_packed_miners_match_dense_on_traces(fixture, request):
    db = request.getfixturevalue(fixture)
    check_itemset_table(db, eclat(db, 0.05, 4), 0.05, 4)
    check_itemset_table(db, apriori(db, 0.05, 3), 0.05, 3)


# -- vectorised rule metrics vs compute_metrics -------------------------------


@given(raw=_txns, min_lift=st.sampled_from([0.0, 0.5, 1.0, 1.5]))
@settings(max_examples=80, deadline=None)
def test_batch_rule_metrics_match_scalar(raw, min_lift):
    db = _make_db(raw)
    counts = fpgrowth(db, 0.05, 4)
    itemsets = FrequentItemsets(counts, db.vocabulary, len(db), 0.05, 4)
    rules = generate_rule_table(itemsets, min_lift=min_lift)
    n = len(db)
    for rule in rules:
        count_xy = counts[rule.antecedent_ids | rule.consequent_ids]
        ref = compute_metrics(
            count_xy / n,
            counts[rule.antecedent_ids] / n,
            counts[rule.consequent_ids] / n,
        )
        assert rule.support == pytest.approx(ref.support, abs=1e-12)
        assert rule.confidence == pytest.approx(ref.confidence, abs=1e-12)
        assert rule.lift == pytest.approx(ref.lift, abs=1e-12)
        assert rule.leverage == pytest.approx(ref.leverage, abs=1e-12)
        if ref.conviction == float("inf"):
            assert rule.conviction == float("inf")
        else:
            assert rule.conviction == pytest.approx(ref.conviction, abs=1e-12)


def test_rules_identical_on_trace(supercloud_db):
    """Batch scoring is bit-identical to scalar scoring on a real trace."""
    counts = fpgrowth(supercloud_db, 0.05, 4)
    itemsets = FrequentItemsets(
        counts, supercloud_db.vocabulary, len(supercloud_db), 0.05, 4
    )
    rules = generate_rule_table(itemsets, min_lift=1.5)
    assert rules  # the planted associations must surface
    n = len(supercloud_db)
    for rule in rules:
        ref = compute_metrics(
            counts[rule.antecedent_ids | rule.consequent_ids] / n,
            counts[rule.antecedent_ids] / n,
            counts[rule.consequent_ids] / n,
        )
        assert rule.confidence == ref.confidence  # bit-identical, not approx
        assert rule.lift == ref.lift
        assert rule.leverage == ref.leverage


# -- from_encoded fast path ---------------------------------------------------


@given(raw=_txns)
@settings(max_examples=100, deadline=None)
def test_from_encoded_matches_generic_path(raw):
    vocab = ItemVocabulary()
    for i in range(_N_ITEMS):
        vocab.intern(f"item{i}")
    fast = TransactionDatabase.from_encoded(raw, vocab)
    # the generic path, forced by routing ids through Item objects
    slow = TransactionDatabase.from_itemsets(
        [[vocab.item_of(i) for i in t] for t in raw], vocabulary=vocab
    )
    assert np.array_equal(fast.indptr, slow.indptr)
    assert np.array_equal(fast.indices, slow.indices)


def test_from_itemsets_routes_encoded_input():
    vocab = ItemVocabulary()
    for i in range(3):
        vocab.intern(f"item{i}")
    # ints, numpy ints, sets and generators must all land on the fast path
    db = TransactionDatabase.from_itemsets(
        [[2, 0, 0], {1, 2}, (np.int64(0),), iter([1])], vocabulary=vocab
    )
    assert db.transaction(0).tolist() == [0, 2]
    assert db.transaction(1).tolist() == [1, 2]
    assert db.transaction(2).tolist() == [0]
    assert db.transaction(3).tolist() == [1]
