"""Unit tests for the transactional encoder."""

import numpy as np
import pytest

from repro.core import Item, ItemVocabulary, TransactionDatabase
from repro.core.fpgrowth import fpgrowth
from repro.dataframe import ColumnTable
from repro.preprocess import BinningSpec, FeatureSpec, TransactionEncoder


@pytest.fixture()
def table():
    return ColumnTable.from_dict(
        {
            "sm_util": [0.0, 50.0, 0.0, 90.0, 10.0, None],
            "gpu_type": ["T4", "V100", None, "T4", "V100", "T4"],
            "failed": [True, False, True, False, False, True],
            "tier": ["Freq User", "Rare User", "Freq User", "Rare User",
                     "Freq User", "Rare User"],
        }
    )


class TestAutoEncoding:
    def test_auto_kinds(self, table):
        db = TransactionEncoder().fit_transform(table)
        assert len(db) == 6
        # numeric → bins, categorical → feature=value, boolean → flag
        rendered = {i.render() for i in db.vocabulary}
        assert "gpu_type = T4" in rendered
        assert "failed" in rendered
        assert any(r.startswith("sm_util = Bin") for r in rendered)

    def test_missing_values_contribute_no_item(self, table):
        db = TransactionEncoder().fit_transform(table)
        # row 2: gpu_type missing → only sm_util + failed + tier items
        assert len(db.transaction(2)) == 3
        # row 5: sm_util missing
        items = db.vocabulary.items_of(db.transaction(5).tolist())
        assert not any(i.feature == "sm_util" for i in items)


class TestSpecs:
    def test_item_feature_rename_and_zero_bin(self, table):
        specs = [
            FeatureSpec(
                "sm_util", item_feature="SM Util", binning=BinningSpec(zero_label="0%")
            ),
            FeatureSpec("failed", kind="flag", true_label="Failed"),
        ]
        db = TransactionEncoder(specs).fit_transform(table)
        assert db.support_count([Item("SM Util", "0%")]) == 2
        assert db.support_count([Item.flag("Failed")]) == 3

    def test_label_kind_flags_values(self, table):
        specs = [FeatureSpec("tier", kind="label")]
        db = TransactionEncoder(specs).fit_transform(table)
        assert db.support_count([Item.flag("Freq User")]) == 3
        assert db.support_count([Item.flag("Rare User")]) == 3

    def test_flag_from_numeric_01(self):
        t = ColumnTable.from_dict({"flag": [1.0, 0.0, None, 1.0]})
        db = TransactionEncoder(
            [FeatureSpec("flag", kind="flag", true_label="On")]
        ).fit_transform(t)
        assert db.support_count([Item.flag("On")]) == 2

    def test_duplicate_feature_names_rejected(self, table):
        specs = [
            FeatureSpec("sm_util", item_feature="X"),
            FeatureSpec("gpu_type", item_feature="X"),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            TransactionEncoder(specs).fit(table)

    def test_kind_mismatch_rejected(self, table):
        with pytest.raises(TypeError):
            TransactionEncoder(
                [FeatureSpec("gpu_type", kind="numeric")]
            ).fit(table)

    def test_transform_before_fit_rejected(self, table):
        with pytest.raises(RuntimeError):
            TransactionEncoder().transform(table)


class TestFitTransformSeparation:
    def test_bins_learned_on_fit_table(self):
        train = ColumnTable.from_dict({"x": list(np.linspace(0, 100, 50))})
        test = ColumnTable.from_dict({"x": [200.0, -50.0]})
        enc = TransactionEncoder([FeatureSpec("x")]).fit(train)
        db = enc.transform(test)
        items = sorted(
            i.render() for t in db.iter_item_transactions() for i in t
        )
        # out-of-range values clamp to the extreme bins
        assert items == ["x = Bin1", "x = Bin4"]

    def test_bin_ranges_exposed(self, table):
        enc = TransactionEncoder([FeatureSpec("sm_util")]).fit(table)
        ranges = enc.bin_ranges()["sm_util"]
        assert all(lo <= hi for lo, hi in ranges.values())

    def test_shared_vocabulary_across_transforms(self, table):
        enc = TransactionEncoder([FeatureSpec("failed", kind="flag")]).fit(table)
        db1 = enc.transform(table)
        db2 = enc.transform(table, vocabulary=db1.vocabulary)
        assert db2.vocabulary is db1.vocabulary

    def test_empty_spec_list_builds_empty_transactions(self, table):
        # encoder requires at least the specs given; with zero columns the
        # database still has one (empty) transaction per row
        enc = TransactionEncoder([])
        db = enc.fit_transform(table)
        assert len(db) == len(table)
        assert db.n_items == 0


class TestDuplicateItems:
    """A ``label`` value equal to a flag's item is one item per job."""

    @pytest.fixture()
    def clash(self):
        table = ColumnTable.from_dict(
            {
                "user": ["Freq User", "Rare", "Freq User"],
                "frequent": [True, True, False],
            }
        )
        specs = [
            FeatureSpec("user", kind="label"),
            FeatureSpec("frequent", kind="flag", true_label="Freq User"),
        ]
        return TransactionEncoder(specs).fit_transform(table)

    def test_item_counted_once_per_job(self, clash):
        freq = clash.vocabulary.id_of(Item.flag("Freq User"))
        assert clash.item_support_counts()[freq] == 3
        assert [len(clash.transaction(j)) for j in range(3)] == [1, 2, 1]

    def test_equals_the_itemset_oracle(self, clash):
        oracle = TransactionDatabase.from_itemsets(
            [
                ["Freq User", "Freq User"],
                ["Rare", "Freq User"],
                ["Freq User"],
            ],
            vocabulary=ItemVocabulary(clash.vocabulary),
        )
        assert np.array_equal(clash.indptr, oracle.indptr)
        assert np.array_equal(clash.indices, oracle.indices)

    def test_support_never_exceeds_one(self, clash):
        counts = fpgrowth(clash, min_support=0.0)
        freq = clash.vocabulary.id_of(Item.flag("Freq User"))
        assert counts[frozenset([freq])] == 3
        assert max(counts.values()) <= len(clash)
