"""Unit tests for the CSR transaction database."""

import numpy as np
import pytest

from repro.core import Item, ItemVocabulary, TransactionDatabase


class TestConstruction:
    def test_from_itemsets_sorts_and_dedupes(self):
        db = TransactionDatabase.from_itemsets([["b", "a", "b"], ["a"]])
        assert len(db) == 2
        first = db.transaction(0)
        assert list(first) == sorted(first)
        assert len(first) == 2  # duplicate collapsed

    def test_empty_transactions_allowed(self):
        db = TransactionDatabase.from_itemsets([[], ["a"], []])
        assert len(db) == 3
        assert len(db.transaction(0)) == 0

    def test_from_onehot(self):
        matrix = np.asarray([[1, 0, 1], [0, 1, 0]], dtype=bool)
        db = TransactionDatabase.from_onehot(matrix, ["a", "b", "c"])
        assert len(db) == 2
        assert db.support_count(["a", "c"]) == 1
        assert db.support_count(["b"]) == 1

    def test_from_onehot_shape_mismatch(self):
        with pytest.raises(ValueError):
            TransactionDatabase.from_onehot(np.zeros((2, 2), bool), ["a"])

    def test_from_onehot_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TransactionDatabase.from_onehot(np.zeros((1, 2), bool), ["a", "a"])

    def test_invalid_indptr_rejected(self):
        vocab = ItemVocabulary(["a"])
        with pytest.raises(ValueError):
            TransactionDatabase(vocab, np.asarray([1, 1]), np.asarray([], np.int32))

    def test_out_of_range_ids_rejected(self):
        vocab = ItemVocabulary(["a"])
        with pytest.raises(ValueError):
            TransactionDatabase(vocab, np.asarray([0, 1]), np.asarray([5], np.int32))


class TestSupport:
    def test_item_support_counts(self, toy_db):
        counts = toy_db.item_support_counts()
        by_item = {
            toy_db.vocabulary.item_of(i).render(): int(c) for i, c in enumerate(counts)
        }
        assert by_item["bread"] == 4
        assert by_item["milk"] == 4
        assert by_item["diapers"] == 4
        assert by_item["beer"] == 3

    def test_support_count_of_pair(self, toy_db):
        assert toy_db.support_count(["diapers", "beer"]) == 3

    def test_support_relative(self, toy_db):
        assert toy_db.support(["diapers", "beer"]) == pytest.approx(0.6)

    def test_empty_itemset_supported_everywhere(self, toy_db):
        assert toy_db.support_count([]) == len(toy_db)

    def test_support_by_item_object_and_id(self, toy_db):
        by_name = toy_db.support_count(["bread"])
        item_id = toy_db.vocabulary.id_of(Item.flag("bread"))
        assert toy_db.support_count([item_id]) == by_name

    def test_unknown_id_rejected(self, toy_db):
        with pytest.raises(KeyError):
            toy_db.support_count([999])

    def test_bitmaps_match_counts(self, toy_db):
        bitmaps = toy_db.bitmaps()
        counts = toy_db.item_support_counts()
        assert (bitmaps.item_counts() == counts).all()


class TestProjections:
    def test_restrict_items_keeps_n_transactions(self, toy_db):
        keep = [toy_db.vocabulary.id_of("bread")]
        sub = toy_db.restrict_items(keep)
        assert len(sub) == len(toy_db)
        assert sub.support_count(["bread"]) == 4
        assert sub.item_support_counts().sum() == 4

    def test_restrict_items_with_empty_transactions(self):
        db = TransactionDatabase.from_itemsets([[], ["a", "b"], ["b"]])
        sub = db.restrict_items([db.vocabulary.id_of("a")])
        assert len(sub) == 3
        assert sub.support_count(["a"]) == 1

    def test_sample_selects_rows(self, toy_db):
        sub = toy_db.sample([0, 4])
        assert len(sub) == 2
        assert sub.support_count(["bread"]) == 2

    def test_iter_item_transactions_roundtrip(self, toy_db):
        decoded = list(toy_db.iter_item_transactions())
        assert len(decoded) == 5
        assert Item.flag("bread") in decoded[0]


class TestFingerprint:
    """Content addressing: equal content ⇔ equal key, any perturbation differs."""

    TXNS = [
        ["bread", "milk"],
        ["bread", "diapers", "beer", "eggs"],
        ["milk", "diapers", "beer", "cola"],
        ["bread", "milk", "diapers", "beer"],
        ["bread", "milk", "diapers", "cola"],
    ]

    def test_equal_content_equal_key(self):
        a = TransactionDatabase.from_itemsets(self.TXNS)
        b = TransactionDatabase.from_itemsets([list(t) for t in self.TXNS])
        assert a.fingerprint() == b.fingerprint()

    def test_stable_across_calls(self, toy_db):
        assert toy_db.fingerprint() == toy_db.fingerprint()

    def test_transaction_perturbations_change_key(self):
        import random

        rng = random.Random(7)
        base = TransactionDatabase.from_itemsets(self.TXNS)
        seen = {base.fingerprint()}
        # property-style loop: drop a transaction, drop an item, add an
        # item, or rename an item — every perturbation must change the key
        for trial in range(30):
            txns = [list(t) for t in self.TXNS]
            kind = trial % 4
            if kind == 0:
                txns.pop(rng.randrange(len(txns)))
            elif kind == 1:
                t = txns[rng.randrange(len(txns))]
                if len(t) > 1:
                    t.pop(rng.randrange(len(t)))
                else:
                    t.append("extra")
            elif kind == 2:
                txns[rng.randrange(len(txns))].append(f"new{trial}")
            else:
                i = rng.randrange(len(txns))
                j = rng.randrange(len(txns[i]))
                txns[i][j] = txns[i][j] + "_renamed"
            fp = TransactionDatabase.from_itemsets(txns).fingerprint()
            assert fp != base.fingerprint(), f"perturbation {trial} collided"
            seen.add(fp)
        assert len(seen) > 1

    def test_vocabulary_identity_matters(self):
        # same index structure over different item names must differ
        a = TransactionDatabase.from_itemsets([["a", "b"], ["a"]])
        b = TransactionDatabase.from_itemsets([["x", "y"], ["x"]])
        assert a.fingerprint() != b.fingerprint()

    def test_transaction_order_matters(self):
        a = TransactionDatabase.from_itemsets([["a"], ["b"]])
        b = TransactionDatabase.from_itemsets([["b"], ["a"]])
        assert a.fingerprint() != b.fingerprint()

    def test_empty_vs_nonempty(self):
        empty = TransactionDatabase.from_itemsets([])
        one = TransactionDatabase.from_itemsets([["a"]])
        assert empty.fingerprint() != one.fingerprint()


class TestNarrowFingerprint:
    """Row lengths and item ids are hashed at their narrowest width: no
    value at a width edge may wrap into another database's bytes."""

    @staticmethod
    def _db(n_items, rows):
        vocab = ItemVocabulary(Item.flag(f"i{k}") for k in range(n_items))
        return TransactionDatabase.from_itemsets(rows, vocabulary=vocab)

    @pytest.mark.parametrize("n_items", [255, 256, 257])
    def test_every_id_keys_apart_across_the_id_width(self, n_items):
        top = n_items - 1
        ids = sorted({0, 1, top - 1, top, top % 256})
        prints = [self._db(n_items, [[k], [0]]).fingerprint() for k in ids]
        assert len(set(prints)) == len(ids)

    def test_id_width_edge_keys_apart(self):
        prints = {
            n: self._db(n, [list(range(n)), [n - 1]]).fingerprint()
            for n in (255, 256, 257)
        }
        assert len(set(prints.values())) == 3

    @pytest.mark.parametrize("length", [255, 256])
    def test_row_length_edge_keys_apart(self, length):
        # under a length width too narrow, 256 would wrap to 0 and the
        # two databases would hash the same bytes
        full = list(range(length))
        first = self._db(300, [full, []]).fingerprint()
        second = self._db(300, [[], full]).fingerprint()
        shorter = self._db(300, [full[:-1], []]).fingerprint()
        assert len({first, second, shorter}) == 3

    def test_equal_content_equal_key_at_every_width(self):
        rows = [list(range(256)), [], [3, 299]]
        assert self._db(300, rows).fingerprint() == self._db(300, rows).fingerprint()
